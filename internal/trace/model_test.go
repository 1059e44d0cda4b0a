package trace

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestGroupOf(t *testing.T) {
	tests := []struct {
		priority int
		want     PriorityGroup
	}{
		{0, Gratis}, {1, Gratis},
		{2, Other}, {5, Other}, {8, Other},
		{9, Production}, {10, Production}, {11, Production},
	}
	for _, tt := range tests {
		if got := GroupOf(tt.priority); got != tt.want {
			t.Errorf("GroupOf(%d) = %v, want %v", tt.priority, got, tt.want)
		}
	}
}

func TestGroupStringAndIndex(t *testing.T) {
	if Gratis.String() != "gratis" || Other.String() != "other" || Production.String() != "production" {
		t.Error("unexpected group names")
	}
	if PriorityGroup(99).String() != "PriorityGroup(99)" {
		t.Error("unexpected fallback name")
	}
	for i, g := range Groups() {
		if g.Index() != i {
			t.Errorf("Index(%v) = %d, want %d", g, g.Index(), i)
		}
	}
}

func TestMachineFits(t *testing.T) {
	m := MachineType{CPU: 0.5, Mem: 0.25}
	if !m.Fits(0.5, 0.25) {
		t.Error("exact fit rejected")
	}
	if m.Fits(0.51, 0.1) {
		t.Error("cpu overflow accepted")
	}
	if m.Fits(0.1, 0.26) {
		t.Error("mem overflow accepted")
	}
}

func TestTraceValidate(t *testing.T) {
	good := &Trace{
		Machines: []MachineType{{ID: 1, CPU: 1, Mem: 1, Count: 10}},
		Tasks: []Task{
			{ID: 1, Submit: 0, Duration: 10, CPU: 0.1, Mem: 0.1, Priority: 0},
			{ID: 2, Submit: 5, Duration: 10, CPU: 0.1, Mem: 0.1, Priority: 9},
		},
		Horizon: 100,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}

	tests := []struct {
		name   string
		mutate func(*Trace)
	}{
		{"no machines", func(tr *Trace) { tr.Machines = nil }},
		{"bad machine cap", func(tr *Trace) { tr.Machines[0].CPU = 1.5 }},
		{"negative count", func(tr *Trace) { tr.Machines[0].Count = -1 }},
		{"negative submit", func(tr *Trace) { tr.Tasks[0].Submit = -1 }},
		{"unsorted", func(tr *Trace) { tr.Tasks[1].Submit = -0.5; tr.Tasks[0].Submit = 1 }},
		{"zero duration", func(tr *Trace) { tr.Tasks[0].Duration = 0 }},
		{"oversized task", func(tr *Trace) { tr.Tasks[0].CPU = 1.2 }},
		{"bad priority", func(tr *Trace) { tr.Tasks[0].Priority = 12 }},
		{"bad class", func(tr *Trace) { tr.Tasks[0].SchedClass = 4 }},
		{"NaN cpu", func(tr *Trace) { tr.Tasks[0].CPU = math.NaN() }},
		{"NaN mem", func(tr *Trace) { tr.Tasks[1].Mem = math.NaN() }},
		{"NaN submit", func(tr *Trace) { tr.Tasks[1].Submit = math.NaN() }},
		{"+Inf submit", func(tr *Trace) { tr.Tasks[1].Submit = math.Inf(1) }},
		{"NaN duration", func(tr *Trace) { tr.Tasks[0].Duration = math.NaN() }},
		{"+Inf duration", func(tr *Trace) { tr.Tasks[0].Duration = math.Inf(1) }},
		{"NaN machine cap", func(tr *Trace) { tr.Machines[0].Mem = math.NaN() }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			bad := &Trace{
				Machines: []MachineType{{ID: 1, CPU: 1, Mem: 1, Count: 10}},
				Tasks: []Task{
					{ID: 1, Submit: 0, Duration: 10, CPU: 0.1, Mem: 0.1},
					{ID: 2, Submit: 5, Duration: 10, CPU: 0.1, Mem: 0.1},
				},
				Horizon: 100,
			}
			tt.mutate(bad)
			if err := bad.Validate(); err == nil {
				t.Error("invalid trace accepted")
			}
		})
	}
}

// TestValidateRejectsNonFiniteAfterCSV is the regression for non-finite
// task fields: CSV carries NaN and ±Inf through a round trip unchanged,
// so Validate is the only gate before k-means takes their logarithm.
func TestValidateRejectsNonFiniteAfterCSV(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Trace)
	}{
		{"NaN cpu", func(tr *Trace) { tr.Tasks[0].CPU = math.NaN() }},
		{"NaN mem", func(tr *Trace) { tr.Tasks[1].Mem = math.NaN() }},
		{"NaN submit", func(tr *Trace) { tr.Tasks[2].Submit = math.NaN() }},
		{"+Inf submit", func(tr *Trace) { tr.Tasks[2].Submit = math.Inf(1) }},
		{"NaN duration", func(tr *Trace) { tr.Tasks[1].Duration = math.NaN() }},
		{"+Inf duration", func(tr *Trace) { tr.Tasks[1].Duration = math.Inf(1) }},
		{"-Inf duration", func(tr *Trace) { tr.Tasks[1].Duration = math.Inf(-1) }},
		{"NaN cpu and +Inf duration", func(tr *Trace) {
			tr.Tasks[0].CPU = math.NaN()
			tr.Tasks[2].Duration = math.Inf(1)
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr := tinyTrace()
			tt.mutate(tr)
			var buf bytes.Buffer
			if err := WriteCSV(&buf, tr); err != nil {
				t.Fatal(err)
			}
			got, err := ReadCSV(&buf, tr.Machines, tr.Horizon)
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Validate(); err == nil {
				t.Error("non-finite task field survived the CSV round trip and Validate")
			}
		})
	}
}

func TestSortTasks(t *testing.T) {
	tr := &Trace{Tasks: []Task{
		{ID: 3, Submit: 10},
		{ID: 1, Submit: 5},
		{ID: 2, Submit: 5},
	}}
	tr.SortTasks()
	wantIDs := []uint64{1, 2, 3}
	for i, w := range wantIDs {
		if tr.Tasks[i].ID != w {
			t.Errorf("tasks[%d].ID = %d, want %d", i, tr.Tasks[i].ID, w)
		}
	}
}

func TestTotalMachines(t *testing.T) {
	tr := &Trace{Machines: []MachineType{{Count: 3}, {Count: 4}}}
	if got := tr.TotalMachines(); got != 7 {
		t.Errorf("TotalMachines = %d", got)
	}
}

// Property: GroupOf is total and consistent with group priority ranges.
func TestGroupOfProperty(t *testing.T) {
	f := func(p uint8) bool {
		prio := int(p % 12)
		g := GroupOf(prio)
		switch g {
		case Gratis:
			return prio <= 1
		case Other:
			return prio >= 2 && prio <= 8
		case Production:
			return prio >= 9
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
