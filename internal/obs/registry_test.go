package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestCounterConcurrent hammers one counter from many goroutines; run
// under -race this doubles as the data-race check.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("hits_total").Add(1)
				r.Counter("hits_total", L("kind", "a")).Add(2)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total").Value(); got != goroutines*perG {
		t.Errorf("plain counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Counter("hits_total", L("kind", "a")).Value(); got != 2*goroutines*perG {
		t.Errorf("labelled counter = %d, want %d", got, 2*goroutines*perG)
	}
	// CounterValue sums across label sets of the same name.
	if got := r.CounterValue("hits_total"); got != 3*goroutines*perG {
		t.Errorf("CounterValue = %d, want %d", got, 3*goroutines*perG)
	}
}

// TestGaugeConcurrentAdd checks the CAS loop loses no updates.
func TestGaugeConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Gauge("level").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Gauge("level").Value(); got != goroutines*perG {
		t.Errorf("gauge = %v, want %d", got, goroutines*perG)
	}
}

// TestHistogramConcurrent observes from many goroutines and checks the
// count, sum and quantile plausibility.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 8, 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Histogram("fit_seconds").Observe(float64(g*perG+i) / 1000)
			}
		}()
	}
	wg.Wait()
	h := r.Histogram("fit_seconds")
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("count = %d, want %d", got, goroutines*perG)
	}
	wantSum := 0.0
	for i := 0; i < goroutines*perG; i++ {
		wantSum += float64(i) / 1000
	}
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Errorf("sum = %v, want %v", got, wantSum)
	}
	med := h.Quantile(0.5)
	if math.IsNaN(med) || med < 0 || med > float64(goroutines*perG)/1000 {
		t.Errorf("median %v outside observed range", med)
	}
	if lo, hi := h.Quantile(0), h.Quantile(1); lo > hi {
		t.Errorf("quantile(0)=%v > quantile(1)=%v", lo, hi)
	}
}

func TestHistogramQuantileExact(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if got := h.Quantile(0.5); math.Abs(got-50) > 1 {
		t.Errorf("median = %v, want ≈50", got)
	}
	if got := h.Quantile(0.99); got < 98 || got > 100 {
		t.Errorf("p99 = %v, want ≈99", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("min quantile = %v, want 1", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("max quantile = %v, want 100", got)
	}
}

func TestHistogramReservoirBounded(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 3*histogramReservoir; i++ {
		h.Observe(float64(i))
	}
	if len(h.samples) != histogramReservoir {
		t.Errorf("reservoir length %d, want %d", len(h.samples), histogramReservoir)
	}
	if got := h.Count(); got != 3*histogramReservoir {
		t.Errorf("count = %d, want %d", got, 3*histogramReservoir)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("models_fitted_total").Add(7)
	r.Counter("fleet_workloads_total", L("outcome", "trained")).Add(3)
	r.Gauge("queue_depth").Set(2.5)
	r.Histogram("fit_duration_seconds", L("technique", "SARIMAX")).Observe(0.25)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"models_fitted_total 7",
		`fleet_workloads_total{outcome="trained"} 3`,
		"queue_depth 2.5",
		`fit_duration_seconds{quantile="0.5",technique="SARIMAX"} 0.25`,
		`fit_duration_seconds_sum{technique="SARIMAX"} 0.25`,
		`fit_duration_seconds_count{technique="SARIMAX"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestJSONSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(1)
	r.Gauge("g").Set(-1)
	r.Histogram("h").Observe(4)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`"a_total": 1`, `"g": -1`, `"count": 1`, `"sum": 4`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON snapshot missing %q in:\n%s", want, out)
		}
	}
}

// TestLabelOrderCanonical checks that label order does not create
// distinct series.
func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", L("a", "1"), L("b", "2")).Add(1)
	r.Counter("x", L("b", "2"), L("a", "1")).Add(1)
	if got := r.Counter("x", L("a", "1"), L("b", "2")).Value(); got != 2 {
		t.Errorf("value = %d, want 2 (label order must not split series)", got)
	}
}

// TestNilRegistry checks the disabled-metrics path is inert.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(1)
	r.Gauge("g").Set(1)
	r.Histogram("h").Observe(1)
	if got := r.CounterValue("c"); got != 0 {
		t.Errorf("nil registry counter = %d", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Errorf("nil registry exposition non-empty: %q", b.String())
	}
}
