package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		give []float64
		want float64
	}{
		{name: "empty", give: nil, want: 0},
		{name: "single", give: []float64{5}, want: 5},
		{name: "pair", give: []float64{1, 3}, want: 2},
		{name: "negatives", give: []float64{-2, 2, -4, 4}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.give); got != tt.want {
				t.Errorf("Mean(%v) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEq(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestSampleVariance(t *testing.T) {
	if got := SampleVariance([]float64{1}); got != 0 {
		t.Errorf("SampleVariance(single) = %v, want 0", got)
	}
	xs := []float64{1, 2, 3, 4}
	// mean 2.5, sum sq dev = 2.25+0.25+0.25+2.25 = 5, /3
	if got := SampleVariance(xs); !almostEq(got, 5.0/3.0, 1e-12) {
		t.Errorf("SampleVariance = %v, want %v", got, 5.0/3.0)
	}
}

func TestMinMax(t *testing.T) {
	if _, err := Min(nil); err == nil {
		t.Error("Min(nil) should error")
	}
	if _, err := Max(nil); err == nil {
		t.Error("Max(nil) should error")
	}
	xs := []float64{3, -1, 7, 0}
	mn, err := Min(xs)
	if err != nil || mn != -1 {
		t.Errorf("Min = %v, %v; want -1, nil", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 7 {
		t.Errorf("Max = %v, %v; want 7, nil", mx, err)
	}
}

func TestCoefVar(t *testing.T) {
	if got := CoefVar([]float64{0, 0}); got != 0 {
		t.Errorf("CoefVar of zeros = %v, want 0", got)
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9} // mean 5, sd 2
	if got := CoefVar(xs); !almostEq(got, 0.4, 1e-12) {
		t.Errorf("CoefVar = %v, want 0.4", got)
	}
	if got := SquaredCV(xs); !almostEq(got, 0.16, 1e-12) {
		t.Errorf("SquaredCV = %v, want 0.16", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
		{75, 40},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tt.p, err)
		}
		if !almostEq(got, tt.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("Percentile(empty) should error")
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Error("Percentile(-1) should error")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("Percentile(101) should error")
	}
}

// Percentiles sorts once but must return, for every p, the very bits
// Percentile returns, including the one-point and p = 0 / 100 edges, and
// leave its input unsorted.
func TestPercentilesMatchPercentile(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ps := []float64{0, 0.5, 25, 33.3, 50, 80, 90, 95, 99, 99.99, 100}
	for _, n := range []int{1, 2, 3, 7, 100, 1001} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Exp(4 * r.NormFloat64())
		}
		orig := append([]float64(nil), xs...)
		got, err := Percentiles(xs, ps)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range ps {
			want, err := Percentile(xs, p)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Errorf("n=%d p=%v: Percentiles %v, Percentile %v", n, p, got[i], want)
			}
		}
		for i := range xs {
			if xs[i] != orig[i] {
				t.Fatalf("n=%d: Percentiles reordered its input", n)
			}
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		if got[0] != lo || got[len(ps)-1] != hi {
			t.Errorf("n=%d: p0 = %v, p100 = %v; want min %v, max %v", n, got[0], got[len(ps)-1], lo, hi)
		}
	}
	if _, err := Percentiles(nil, ps); err == nil {
		t.Error("Percentiles(empty) should error")
	}
	if _, err := Percentiles([]float64{1}, []float64{50, 101}); err == nil {
		t.Error("Percentiles with p = 101 should error")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	got, err := Percentile(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 5, 1e-12) {
		t.Errorf("Percentile(50) of {0,10} = %v, want 5", got)
	}
}

// Property: variance is translation-invariant and scales quadratically.
func TestVarianceProperties(t *testing.T) {
	f := func(raw []float64, shift float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			// Keep values bounded so float error stays small.
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, math.Mod(x, 1e3))
		}
		if len(xs) == 0 {
			return true
		}
		shift = math.Mod(shift, 1e3)
		if math.IsNaN(shift) {
			shift = 0
		}
		v := Variance(xs)
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + shift
		}
		return almostEq(Variance(shifted), v, 1e-6*(1+v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, math.Mod(x, 1e6))
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		mn, _ := Min(xs)
		mx, _ := Max(xs)
		return m >= mn-1e-9 && m <= mx+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
