package repro_test

import (
	"context"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/ingest"
	"repro/internal/metricstore"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

// collectInto replays the OLTP workload once, delivering every agent
// sample to sink. Identical seeds make two replays byte-identical, so
// the in-process and remote-write paths can be compared sample for
// sample.
func collectInto(t *testing.T, sink agent.Sink, days int) (start, end time.Time) {
	t.Helper()
	cfg := workload.OLTPConfig(11)
	cluster, err := dbsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := agent.New(agent.Config{
		Interval:    15 * time.Minute,
		FailureRate: 0.01,
		Seed:        12,
	}, cluster, sink)
	if err != nil {
		t.Fatal(err)
	}
	end = cfg.Start.Add(time.Duration(days) * 24 * time.Hour)
	if _, _, err := ag.Collect(cfg.Start, end); err != nil {
		t.Fatal(err)
	}
	return cfg.Start, end
}

// TestIngestLoopbackMatchesInProcess proves the networked repository is
// transparent to the learning engine: the same workload shipped through
// gzip batches, HTTP and the collector yields the exact raw samples of
// a direct agent→store run, and the engine selects the same champion
// over both.
func TestIngestLoopbackMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a workload twice and fits models")
	}
	local := metricstore.New()
	start, end := collectInto(t, local, 10)

	remote := metricstore.New()
	col, err := ingest.NewCollector(ingest.ServerConfig{Store: remote})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(col)
	defer srv.Close()
	shipper, err := ingest.NewShipper(ingest.ShipperConfig{
		URL:         srv.URL + ingest.Path,
		BlockOnFull: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	collectInto(t, shipper, 10)
	if err := shipper.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Same raw repository, key for key and sample for sample.
	lk, rk := local.Keys(), remote.Keys()
	if len(lk) == 0 || len(lk) != len(rk) {
		t.Fatalf("key sets differ: local %v, remote %v", lk, rk)
	}
	for _, k := range lk {
		lraw, rraw := local.Raw(k), remote.Raw(k)
		if len(lraw) != len(rraw) {
			t.Fatalf("%s: %d local vs %d remote samples", k, len(lraw), len(rraw))
		}
		for i := range lraw {
			if !lraw[i].At.Equal(rraw[i].At) || lraw[i].Value != rraw[i].Value {
				t.Fatalf("%s sample %d differs: %+v vs %+v", k, i, lraw[i], rraw[i])
			}
		}
	}

	// And the engine agrees on the champion either way.
	champion := func(repo *metricstore.Store) (string, float64) {
		ser, err := repo.Series(metricstore.Key{Target: "cdbm011", Metric: "cpu"},
			timeseries.Hourly, start, end)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ser.Interpolate(); err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(core.Options{Technique: core.TechniqueHES, MaxCandidates: 4})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background(), ser)
		if err != nil {
			t.Fatal(err)
		}
		return res.Champion.Label, res.TestScore.RMSE
	}
	llabel, lrmse := champion(local)
	rlabel, rrmse := champion(remote)
	if llabel != rlabel || math.Abs(lrmse-rrmse) > 1e-9 {
		t.Fatalf("champions diverge: local %s (RMSE %.6f) vs remote %s (RMSE %.6f)",
			llabel, lrmse, rlabel, rrmse)
	}
}

// TestIngestSurvivesCollectorOutage kills the collector mid-stream and
// restarts it on the same address: the shipper's retries must deliver
// every sample with zero loss, and closing the shipper must release its
// goroutines.
func TestIngestSurvivesCollectorOutage(t *testing.T) {
	if testing.Short() {
		t.Skip("exercises retries against a restarted server")
	}
	store := metricstore.New()
	col, err := ingest.NewCollector(ingest.ServerConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := &http.Server{Handler: col}
	go srv.Serve(ln)

	baseline := runtime.NumGoroutine()
	tr := &http.Transport{}
	shipper, err := ingest.NewShipper(ingest.ShipperConfig{
		URL:         "http://" + addr + ingest.Path,
		BatchSize:   8,
		BlockOnFull: true,
		MaxAttempts: 50,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
		Client:      &http.Client{Timeout: 2 * time.Second, Transport: tr},
	})
	if err != nil {
		t.Fatal(err)
	}

	base := time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC)
	k := metricstore.Key{Target: "cdbm011", Metric: "cpu"}
	put := func(from, to int) {
		for i := from; i < to; i++ {
			shipper.Put(metricstore.Sample{
				Target: k.Target, Metric: k.Metric,
				At: base.Add(time.Duration(i) * 15 * time.Minute), Value: float64(i),
			})
		}
	}

	const total = 200
	put(0, 40)
	deadline := time.Now().Add(10 * time.Second)
	for store.Count(k) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("nothing delivered before the outage")
		}
		time.Sleep(time.Millisecond)
	}

	// Outage: the collector goes away with samples still flowing.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	put(40, total)
	// Stay down until the shipper has failed against the closed address
	// at least once, or the rebind below could beat its first attempt and
	// the outage would never happen.
	for shipper.Stats().Retries == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no retry during the outage: stats = %+v", shipper.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	// Recovery on the same address; retries from here on must succeed.
	var ln2 net.Listener
	for {
		if ln2, err = net.Listen("tcp", addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv2 := &http.Server{Handler: col}
	go srv2.Serve(ln2)
	defer srv2.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := shipper.Close(ctx); err != nil {
		t.Fatalf("drain after outage: %v", err)
	}
	st := shipper.Stats()
	if st.Dropped != 0 || st.SamplesShipped != total || st.Retries == 0 {
		t.Fatalf("stats = %+v, want %d shipped with retries and zero drops", st, total)
	}
	if got := store.Count(k); got != total {
		t.Fatalf("store holds %d samples, want %d", got, total)
	}

	// The shipper goroutine and its idle connections must be gone.
	tr.CloseIdleConnections()
	for end := time.Now().Add(5 * time.Second); ; {
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("goroutines leaked: %d now vs %d at baseline", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
