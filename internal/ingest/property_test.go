package ingest

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/metricstore"
)

// Property: wire round-tripping a shuffled batch and delivering it
// twice (at-least-once redelivery) lands exactly where one in-order
// PutBatch does — out-of-order arrival and duplicate delivery are both
// absorbed by the repository's (key, timestamp) overwrite semantics.
func TestWireRedeliveryIdempotentProperty(t *testing.T) {
	base := time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC)
	targets := []string{"cdbm011", "cdbm012"}
	metrics := []string{"cpu", "memory"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(100)
		ordered := make([]metricstore.Sample, n)
		for i := range ordered {
			ordered[i] = metricstore.Sample{
				Target: targets[rng.Intn(len(targets))],
				Metric: metrics[rng.Intn(len(metrics))],
				At:     base.Add(time.Duration(i) * 15 * time.Minute),
				Value:  rng.NormFloat64() * 50,
			}
		}
		want := metricstore.New()
		want.PutBatch(ordered)

		shuffled := append([]metricstore.Sample(nil), ordered...)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := metricstore.New()
		for round := 0; round < 2; round++ {
			// Split into random wire batches, round-trip each through the
			// encoder, and deliver.
			for off := 0; off < n; {
				sz := 1 + rng.Intn(n-off)
				var buf bytes.Buffer
				if err := EncodeBatch(&buf, shuffled[off:off+sz]); err != nil {
					return false
				}
				decoded, _, err := DecodeBatchMeta(&buf, 0)
				if err != nil {
					return false
				}
				got.PutBatch(decoded)
				off += sz
			}
		}
		for _, k := range want.Keys() {
			w, g := want.Raw(k), got.Raw(k)
			if len(w) != len(g) {
				return false
			}
			for i := range w {
				if !w[i].At.Equal(g[i].At) || w[i].Value != g[i].Value {
					return false
				}
			}
		}
		return len(want.Keys()) == len(got.Keys())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
