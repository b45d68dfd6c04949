package metricstore

import (
	"bytes"
	"encoding/gob"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/timeseries"
)

var t0 = time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)

func TestParseKey(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Key
		ok   bool
	}{
		{"a/b/cpu", Key{Target: "a/b", Metric: "cpu"}, true},
		{"cdbm011/cpu", Key{Target: "cdbm011", Metric: "cpu"}, true},
		{"cpu", Key{}, false},
		{"/cpu", Key{}, false},
		{"a/", Key{}, false},
		{"", Key{}, false},
	} {
		got, ok := ParseKey(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseKey(%q) = %+v, %v; want %+v, %v", tc.in, got, ok, tc.want, tc.ok)
		}
		if ok && got.String() != tc.in {
			t.Errorf("ParseKey(%q).String() = %q", tc.in, got.String())
		}
	}
}

func TestPutAndRawOrdering(t *testing.T) {
	s := New()
	k := Key{Target: "db1", Metric: "cpu"}
	// Insert out of order.
	s.Put(Sample{Target: "db1", Metric: "cpu", At: t0.Add(30 * time.Minute), Value: 3})
	s.Put(Sample{Target: "db1", Metric: "cpu", At: t0, Value: 1})
	s.Put(Sample{Target: "db1", Metric: "cpu", At: t0.Add(15 * time.Minute), Value: 2})
	raw := s.Raw(k)
	if len(raw) != 3 || raw[0].Value != 1 || raw[1].Value != 2 || raw[2].Value != 3 {
		t.Fatalf("raw = %+v", raw)
	}
}

func TestPutDuplicateOverwrites(t *testing.T) {
	s := New()
	k := Key{Target: "db1", Metric: "cpu"}
	s.Put(Sample{Target: "db1", Metric: "cpu", At: t0, Value: 1})
	s.Put(Sample{Target: "db1", Metric: "cpu", At: t0, Value: 9})
	raw := s.Raw(k)
	if len(raw) != 1 || raw[0].Value != 9 {
		t.Fatalf("raw = %+v", raw)
	}
}

func TestSeriesHourlyAggregation(t *testing.T) {
	s := New()
	// Four 15-minute samples in hour 0; two in hour 1.
	for i, v := range []float64{10, 20, 30, 40} {
		s.Put(Sample{Target: "db1", Metric: "cpu", At: t0.Add(time.Duration(i) * 15 * time.Minute), Value: v})
	}
	s.Put(Sample{Target: "db1", Metric: "cpu", At: t0.Add(60 * time.Minute), Value: 5})
	s.Put(Sample{Target: "db1", Metric: "cpu", At: t0.Add(75 * time.Minute), Value: 15})
	k := Key{Target: "db1", Metric: "cpu"}
	ser, err := s.Series(k, timeseries.Hourly, t0, t0.Add(3*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if ser.Len() != 3 {
		t.Fatalf("len = %d", ser.Len())
	}
	if ser.Values[0] != 25 || ser.Values[1] != 10 {
		t.Fatalf("values = %v", ser.Values)
	}
	if !math.IsNaN(ser.Values[2]) {
		t.Fatalf("empty bucket should be NaN, got %v", ser.Values[2])
	}
	if ser.Name != "db1/cpu" {
		t.Fatalf("name = %q", ser.Name)
	}
}

func TestSeriesWindowing(t *testing.T) {
	s := New()
	for i := 0; i < 48; i++ {
		s.Put(Sample{Target: "d", Metric: "m", At: t0.Add(time.Duration(i) * time.Hour), Value: float64(i)})
	}
	k := Key{Target: "d", Metric: "m"}
	ser, err := s.Series(k, timeseries.Hourly, t0.Add(10*time.Hour), t0.Add(20*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if ser.Len() != 10 || ser.Values[0] != 10 || ser.Values[9] != 19 {
		t.Fatalf("window wrong: %v", ser.Values)
	}
}

func TestSeriesInvalidInterval(t *testing.T) {
	s := New()
	if _, err := s.Series(Key{}, timeseries.Hourly, t0, t0); err == nil {
		t.Fatal("empty interval should fail")
	}
	if _, err := s.Series(Key{}, timeseries.Hourly, t0.Add(time.Hour), t0); err == nil {
		t.Fatal("reversed interval should fail")
	}
}

func TestKeysSorted(t *testing.T) {
	s := New()
	s.Put(Sample{Target: "b", Metric: "z", At: t0, Value: 1})
	s.Put(Sample{Target: "a", Metric: "y", At: t0, Value: 1})
	s.Put(Sample{Target: "a", Metric: "x", At: t0, Value: 1})
	keys := s.Keys()
	if len(keys) != 3 || keys[0].String() != "a/x" || keys[2].String() != "b/z" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestTimeRange(t *testing.T) {
	s := New()
	k := Key{Target: "d", Metric: "m"}
	if _, _, ok := s.TimeRange(k); ok {
		t.Fatal("empty key should report !ok")
	}
	s.Put(Sample{Target: "d", Metric: "m", At: t0.Add(time.Hour), Value: 1})
	s.Put(Sample{Target: "d", Metric: "m", At: t0, Value: 1})
	first, last, ok := s.TimeRange(k)
	if !ok || !first.Equal(t0) || !last.Equal(t0.Add(time.Hour)) {
		t.Fatalf("range = %v %v %v", first, last, ok)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.Put(Sample{Target: "d", Metric: "m", At: t0.Add(time.Duration(i) * time.Hour), Value: float64(i)})
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := New()
	if err := s2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	k := Key{Target: "d", Metric: "m"}
	if s2.Count(k) != 10 {
		t.Fatalf("count = %d", s2.Count(k))
	}
	raw := s2.Raw(k)
	if raw[5].Value != 5 {
		t.Fatalf("raw[5] = %+v", raw[5])
	}
}

func TestForecastSnapshotStoreAndRoundTrip(t *testing.T) {
	s := New()
	k := Key{Target: "db1", Metric: "cpu"}
	if _, ok := s.Forecast(k); ok {
		t.Fatal("empty store should hold no snapshot")
	}
	fs := ForecastSnapshot{
		Key: k, Start: t0, Step: time.Hour, Level: 0.95,
		Mean:     []float64{50, 51, 52},
		Lower:    []float64{40, 41, 42},
		Upper:    []float64{60, 61, 62},
		SE:       []float64{5, 5.1, 5.2},
		FittedAt: t0,
	}
	s.PutForecast(fs)
	s.PutForecast(ForecastSnapshot{Key: Key{Target: "db2", Metric: "io"}, Start: t0, Step: time.Hour})

	got, ok := s.Forecast(k)
	if !ok || got.Level != 0.95 || len(got.Mean) != 3 || got.Upper[2] != 62 {
		t.Fatalf("snapshot = %+v, %v", got, ok)
	}
	keys := s.ForecastKeys()
	if len(keys) != 2 || keys[0].String() != "db1/cpu" || keys[1].String() != "db2/io" {
		t.Fatalf("forecast keys = %v", keys)
	}

	// A replace overwrites, never duplicates.
	fs.Mean = []float64{70}
	s.PutForecast(fs)
	if got, _ = s.Forecast(k); len(got.Mean) != 1 || got.Mean[0] != 70 {
		t.Fatalf("replaced snapshot = %+v", got)
	}

	// Snapshots survive Save/Load next to the samples.
	s.Put(Sample{Target: "db1", Metric: "cpu", At: t0, Value: 1})
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := New()
	if err := s2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if got, ok = s2.Forecast(k); !ok || got.Mean[0] != 70 || !got.Start.Equal(t0) {
		t.Fatalf("loaded snapshot = %+v, %v", got, ok)
	}
	if s2.Count(k) != 1 {
		t.Fatalf("samples lost across round-trip: %d", s2.Count(k))
	}
}

func TestLoadOldImageWithoutForecasts(t *testing.T) {
	// Simulate an image written by a build that predates snapshots: a
	// persisted struct whose Forecasts map is nil gob-encodes without
	// the field's contents, and Load must still produce a usable store.
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(persisted{Samples: map[Key][]Sample{
		{Target: "d", Metric: "m"}: {{Target: "d", Metric: "m", At: t0, Value: 7}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New()
	if err := s2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if s2.Count(Key{Target: "d", Metric: "m"}) != 1 {
		t.Fatal("samples lost loading an old image")
	}
	if keys := s2.ForecastKeys(); len(keys) != 0 {
		t.Fatalf("phantom snapshots: %v", keys)
	}
	// And the store accepts new snapshots after such a load.
	s2.PutForecast(ForecastSnapshot{Key: Key{Target: "d", Metric: "m"}, Start: t0, Step: time.Hour})
	if _, ok := s2.Forecast(Key{Target: "d", Metric: "m"}); !ok {
		t.Fatal("snapshot rejected after old-image load")
	}
}

func TestLoadGarbage(t *testing.T) {
	s := New()
	if err := s.Load(bytes.NewReader([]byte("not gob"))); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestPutBatchEquivalentToSequentialPut(t *testing.T) {
	// Out-of-order, multi-key, with intra-batch duplicates and overlap
	// against pre-stored samples: PutBatch must land exactly where a
	// Put loop would.
	pre := []Sample{
		{Target: "a", Metric: "cpu", At: t0.Add(15 * time.Minute), Value: 1},
		{Target: "b", Metric: "mem", At: t0, Value: 2},
	}
	batch := []Sample{
		{Target: "a", Metric: "cpu", At: t0.Add(45 * time.Minute), Value: 3},
		{Target: "b", Metric: "mem", At: t0, Value: 9}, // overwrites pre
		{Target: "a", Metric: "cpu", At: t0, Value: 4},
		{Target: "a", Metric: "cpu", At: t0.Add(45 * time.Minute), Value: 7}, // later dup wins
		{Target: "c", Metric: "io", At: t0.Add(time.Hour), Value: 5},
	}
	batched, seq := New(), New()
	batched.PutBatch(pre)
	seq.PutBatch(append([]Sample(nil), pre...))
	batched.PutBatch(batch)
	for _, smp := range batch {
		seq.Put(smp)
	}
	for _, k := range seq.Keys() {
		want, got := seq.Raw(k), batched.Raw(k)
		if len(want) != len(got) {
			t.Fatalf("%s: len %d vs %d", k, len(got), len(want))
		}
		for i := range want {
			if !want[i].At.Equal(got[i].At) || want[i].Value != got[i].Value {
				t.Fatalf("%s[%d]: %+v vs %+v", k, i, got[i], want[i])
			}
		}
	}
}

func TestPutBatchAppendFastPath(t *testing.T) {
	s := New()
	k := Key{Target: "d", Metric: "m"}
	s.PutBatch([]Sample{
		{Target: "d", Metric: "m", At: t0, Value: 1},
		{Target: "d", Metric: "m", At: t0.Add(15 * time.Minute), Value: 2},
	})
	// Strictly after the tail — exercises the append fast path, with an
	// intra-batch duplicate.
	s.PutBatch([]Sample{
		{Target: "d", Metric: "m", At: t0.Add(30 * time.Minute), Value: 3},
		{Target: "d", Metric: "m", At: t0.Add(30 * time.Minute), Value: 8},
		{Target: "d", Metric: "m", At: t0.Add(45 * time.Minute), Value: 4},
	})
	raw := s.Raw(k)
	if len(raw) != 4 || raw[2].Value != 8 || raw[3].Value != 4 {
		t.Fatalf("raw = %+v", raw)
	}
	for i := 1; i < len(raw); i++ {
		if !raw[i].At.After(raw[i-1].At) {
			t.Fatalf("not strictly ordered: %+v", raw)
		}
	}
}

// Regression (PR 8): a loaded image must not keep trace lineage from
// the pre-load process — neither for keys absent from the image nor for
// keys it contains.
func TestLoadClearsLastTrace(t *testing.T) {
	s := New()
	const tp = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	s.PutBatchTraced([]Sample{
		{Target: "gone", Metric: "cpu", At: t0, Value: 1},
		{Target: "kept", Metric: "cpu", At: t0, Value: 2},
	}, tp)

	donor := New()
	donor.Put(Sample{Target: "kept", Metric: "cpu", At: t0, Value: 3})
	var buf bytes.Buffer
	if err := donor.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if got := s.LastTrace(Key{Target: "gone", Metric: "cpu"}); got != "" {
		t.Fatalf("stale trace lineage survived load for absent key: %q", got)
	}
	if got := s.LastTrace(Key{Target: "kept", Metric: "cpu"}); got != "" {
		t.Fatalf("stale trace lineage survived load for present key: %q", got)
	}
	// Lineage works again after the load.
	s.PutBatchTraced([]Sample{{Target: "kept", Metric: "cpu", At: t0.Add(time.Hour), Value: 4}}, tp)
	if got := s.LastTrace(Key{Target: "kept", Metric: "cpu"}); got != tp {
		t.Fatalf("lineage broken after load: %q", got)
	}
}

// Regression (PR 8): a window that is not a whole multiple of the step
// must keep its trailing partial bucket instead of silently truncating
// the samples in it.
func TestSeriesIncludesTrailingPartialBucket(t *testing.T) {
	s := New()
	for i, v := range []float64{10, 20, 30, 40, 50, 60} {
		s.Put(Sample{Target: "d", Metric: "m", At: t0.Add(time.Duration(i) * 15 * time.Minute), Value: v})
	}
	// [t0, t0+1h30m): 1h30m at hourly steps rounds up to 2 buckets; the
	// partial second bucket holds the samples at 1h00 and 1h15.
	ser, err := s.Series(Key{Target: "d", Metric: "m"}, timeseries.Hourly, t0, t0.Add(90*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if ser.Len() != 2 {
		t.Fatalf("len = %d, want 2 (trailing partial bucket dropped)", ser.Len())
	}
	if ser.Values[0] != 25 {
		t.Fatalf("full bucket = %v, want 25", ser.Values[0])
	}
	if ser.Values[1] != 55 {
		t.Fatalf("partial bucket = %v, want mean(50,60)=55", ser.Values[1])
	}
	// A sample at or past `to` stays excluded.
	ser, err = s.Series(Key{Target: "d", Metric: "m"}, timeseries.Hourly, t0, t0.Add(75*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if ser.Len() != 2 || ser.Values[1] != 50 {
		t.Fatalf("values = %v, want [25 50]", ser.Values)
	}
}

// Regression (PR 8): Save must not hold any write-blocking lock across
// the gob encode — concurrent ingestion keeps landing while a large
// snapshot streams out, and the saved image still loads cleanly.
func TestSaveConcurrentWithWrites(t *testing.T) {
	s := New()
	for i := 0; i < 500; i++ {
		s.Put(Sample{Target: "seed", Metric: "m", At: t0.Add(time.Duration(i) * time.Minute), Value: float64(i)})
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Timestamps wrap so overwrites keep the store bounded: an
			// ever-growing store would make each O(n) Save slower while the
			// writers outpace it, and the test would balloon instead of
			// finishing.
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				at := t0.Add(time.Duration(i%512) * 30 * time.Minute)
				s.PutBatch([]Sample{
					{Target: "w", Metric: string(rune('a' + g)), At: at, Value: 1},
					{Target: "w", Metric: string(rune('a' + g)), At: at.Add(15 * time.Minute), Value: 2},
				})
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		s2 := New()
		if err := s2.Load(&buf); err != nil {
			t.Fatalf("snapshot taken under writes does not load: %v", err)
		}
		if s2.Count(Key{Target: "seed", Metric: "m"}) != 500 {
			t.Fatalf("seed series truncated in snapshot %d", i)
		}
	}
	close(stop)
	wg.Wait()
}

func TestConcurrentPutAndRead(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Put(Sample{Target: "d", Metric: "m", At: t0.Add(time.Duration(g*200+i) * time.Minute), Value: 1})
				if i%50 == 0 {
					s.Keys()
					s.Count(Key{Target: "d", Metric: "m"})
				}
			}
		}(g)
	}
	wg.Wait()
	if got := s.Count(Key{Target: "d", Metric: "m"}); got != 1600 {
		t.Fatalf("count = %d, want 1600", got)
	}
}
