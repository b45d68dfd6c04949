package repro_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/metricstore"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

// TestTraceFollowsBatchAcrossProcesses proves the tracing tentpole end
// to end: a batch shipped by the push-side shipper and the refit it
// eventually triggers on the serve side share one trace ID, visible in
// both processes' span output and in the serve side's exemplars.
//
// Two observers stand in for the two processes — the only thing that
// crosses between them is the HTTP request, exactly as in production.
func TestTraceFollowsBatchAcrossProcesses(t *testing.T) {
	pushObs := obs.New(obs.Config{Trace: true, Metrics: true})
	serveObs := obs.New(obs.Config{Trace: true, Metrics: true})

	// Serve process: collector feeding the metric repository.
	repo := metricstore.New()
	repo.SetObserver(serveObs)
	col, err := ingest.NewCollector(ingest.ServerConfig{Store: repo, Obs: serveObs})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(col)
	defer srv.Close()

	// Push process: ship one hour of samples for one key.
	shipper, err := ingest.NewShipper(ingest.ShipperConfig{
		URL:         srv.URL + ingest.Path,
		BlockOnFull: true,
		Obs:         pushObs,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2026, 4, 6, 0, 0, 0, 0, time.UTC)
	k := metricstore.Key{Target: "cdbm011", Metric: "cpu"}
	for i := 0; i < 4; i++ {
		shipper.Put(metricstore.Sample{
			Target: k.Target, Metric: k.Metric,
			At: t0.Add(time.Duration(i) * 15 * time.Minute), Value: 50,
		})
	}
	if err := shipper.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The push side recorded the batch's root span and its traceparent.
	ship := findSpan(pushObs, "shipper.ship")
	if ship == nil {
		t.Fatal("no shipper.ship span on the push side")
	}
	traceID := ship.Context().Trace.String()
	if traceID == "" {
		t.Fatal("ship span has no trace ID")
	}
	wireTP, ok := ship.Attr("traceparent")
	if !ok {
		t.Fatal("ship span does not record its traceparent")
	}

	// The repository remembers the trace the key's samples arrived under.
	tp := repo.LastTrace(k)
	if tp == "" || tp != wireTP {
		t.Fatalf("repo lineage = %q, want the shipped traceparent %q", tp, wireTP)
	}
	sc, err := obs.ParseTraceParent(tp)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Trace.String() != traceID {
		t.Fatalf("lineage trace %s != ship trace %s", sc.Trace, traceID)
	}

	// The serve side's receive span joined the trace, parented on the
	// ship span across the process boundary, with the store put nested.
	recv := findSpan(serveObs, "ingest.receive")
	if recv == nil {
		t.Fatal("no ingest.receive span on the serve side")
	}
	if got := recv.Context().Trace.String(); got != traceID {
		t.Fatalf("receive span trace %s, want %s", got, traceID)
	}
	if recv.ParentSpanID() != ship.Context().Span {
		t.Fatalf("receive parent %s, want ship span %s", recv.ParentSpanID(), ship.Context().Span)
	}
	if recv.Find("store.put_batch") == nil {
		t.Fatal("receive span has no store.put_batch child")
	}

	// Monitoring: a stored champion whose 2h forecast the next actual
	// falls beyond → horizon refit. The observation joins the batch's
	// trace exactly as serve's hourly observe loop does (LastTrace →
	// ContextWithRemote), so the refit continues it.
	store := core.NewModelStore(core.StalePolicy{})
	store.SetObserver(serveObs)
	stub := func() *core.Result {
		return &core.Result{
			Champion:  core.CandidateResult{Label: "stub"},
			TestScore: metrics.Score{RMSE: 1},
			Forecast:  &core.Prediction{Start: t0, Freq: timeseries.Hourly, Mean: []float64{50, 50}},
		}
	}
	store.Put(k.String(), stub())
	refitTrace := "unset"
	mon, err := monitor.New(monitor.Config{
		Store: store,
		Refit: func(ctx context.Context, key string, warm bool) (*core.Result, error) {
			refitTrace = obs.SpanFromContext(ctx).Context().Trace.String()
			return stub(), nil
		},
		Obs: serveObs,
	})
	if err != nil {
		t.Fatal(err)
	}
	octx := obs.ContextWithRemote(context.Background(), sc)
	mon.ObserveActual(octx, k.String(), t0.Add(3*time.Hour), 55)

	if refitTrace != traceID {
		t.Fatalf("refit ran under trace %q, want the batch's %s", refitTrace, traceID)
	}
	refit := findSpan(serveObs, "monitor.refit")
	if refit == nil {
		t.Fatal("no monitor.refit span on the serve side")
	}
	if got := refit.Context().Trace.String(); got != traceID {
		t.Fatalf("refit span trace %s, want %s", got, traceID)
	}

	// The serve process holds at least two spans of the wire-crossed
	// trace (receive + refit), and its exemplars point back to it.
	inTrace := 0
	for _, sp := range serveObs.Spans() {
		if sp.Context().Trace.String() == traceID {
			inTrace++
		}
	}
	if inTrace < 2 {
		t.Fatalf("serve side holds %d spans of trace %s, want >= 2", inTrace, traceID)
	}
	if !exemplarFor(serveObs, "ingest_batch_seconds", traceID) {
		t.Fatalf("no ingest_batch_seconds exemplar for trace %s", traceID)
	}
	if !exemplarFor(serveObs, "monitor_refit_seconds", traceID) {
		t.Fatalf("no monitor_refit_seconds exemplar for trace %s", traceID)
	}
}

// findSpan returns the first root span with the given name.
func findSpan(o *obs.Observer, name string) *obs.Span {
	for _, sp := range o.Spans() {
		if sp.Name() == name {
			return sp
		}
	}
	return nil
}

// exemplarFor reports whether any bucket exemplar of metric carries
// traceID.
func exemplarFor(o *obs.Observer, metric, traceID string) bool {
	for _, es := range o.Registry().Exemplars() {
		if es.Metric != metric {
			continue
		}
		for _, e := range es.Exemplars {
			if e.TraceID == traceID {
				return true
			}
		}
	}
	return false
}
