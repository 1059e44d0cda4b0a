package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Group ties together the
// spans of one control tick (sim) or one request (daemon); -1 means none.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Group  int64  `json:"group"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths can call it unconditionally.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, group int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Group: group, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// record adds an already-timed span.
func (t *tracer) record(name string, parent int, group int64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Group: group,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return len(t.spans)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
// Children are clipped to the parent, and overlapping children (parallel
// requests) are counted once, so a self time is never negative.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][][2]int64{}
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(children[s.ID])
	}
	return self
}

// covered returns the total length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		hi = max(hi, x[1])
	}
	return total + hi - lo
}

// spansNamed returns the durations (ms) of the spans with the given name.
func spansNamed(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines, each with its self time.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	self := selfTimes(spans)
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			span
			Self int64 `json:"self_ns"`
		}{s, self[s.ID]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// checkSpans fails the run unless every span ended, lies within its
// parent, and has a non-negative self time.
func checkSpans(rep *report, spans []span) {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			rep.fail("span %d (%s) never ended", s.ID, s.Name)
			return
		}
		if p, ok := byID[s.Parent]; ok && (s.Start < p.Start || s.End > p.End) {
			rep.fail("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
			return
		}
	}
	for id, self := range selfTimes(spans) {
		if self < 0 {
			rep.fail("span %d has negative self time %d ns", id, self)
			return
		}
	}
}
