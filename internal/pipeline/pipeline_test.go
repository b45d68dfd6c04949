package pipeline

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/monitor"
	"repro/internal/obs"
)

// The run steps past one 24h forecast horizon and past selfTrain, which
// sits above the 72 hourly observations the engine's split needs, so the
// SelfTrain gate rather than the engine is what holds self training back.
const (
	testSeed  = 7
	testSteps = 80
	selfTrain = 76
)

// runResult is what one seeded run leaves behind for comparison.
type runResult struct {
	champions map[string]string
	alerts    []monitor.Alert
}

// isSelf reports whether key belongs to the self-scrape target, whose
// series (heap size, fit wall time) differ from run to run.
func isSelf(key string) bool {
	return strings.HasPrefix(key, monitor.DefaultSelfTarget+"/")
}

// runPipeline trains on a small seeded OLTP history, then replays
// testSteps hours of the same agent feed through Step, checking the
// per-step invariants as it goes.
func runPipeline(t *testing.T) runResult {
	t.Helper()
	ctx := context.Background()
	o := obs.New(obs.Config{Metrics: true})
	ds, err := experiments.Build(experiments.OLTP, experiments.Options{Days: 7, Seed: testSeed, MaxCandidates: 4, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Engine:      core.Options{Technique: core.TechniqueHES, Horizon: 24, MaxCandidates: 4},
		TrainWindow: 7 * 24 * time.Hour,
		Stale:       core.StalePolicy{MaxAge: 7 * 24 * time.Hour, DegradeFactor: 2},
		Monitor: monitor.Config{
			Window: 24,
			Rules:  []monitor.Rule{{Metric: "cpu", Threshold: 40, WithinHours: 24}},
		},
		SelfScrape: true,
		SelfTrain:  selfTrain,
		Obs:        o,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Attach(ds.Store, nil)
	res, err := p.Train(ctx, ds.Start, ds.End)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trained == 0 || res.Failed != 0 {
		t.Fatalf("initial training: %d trained, %d failed (first error %v)", res.Trained, res.Failed, res.FirstErr)
	}
	if !p.Now().Equal(ds.End) {
		t.Fatalf("clock after Train = %v, want %v", p.Now(), ds.End)
	}
	ag, err := agent.New(agent.Config{Interval: 15 * time.Minute, Seed: testSeed + 1}, ds.Cluster, ds.Store)
	if err != nil {
		t.Fatal(err)
	}

	advanced := 0
	selfTrained := false
	for h := 0; h < testSteps; h++ {
		from := ds.End.Add(time.Duration(h) * time.Hour)
		if _, _, err := ag.CollectCtx(ctx, from, from.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
		labels := champions(p)
		p.Step(ctx, from)
		if !p.Now().Equal(from.Add(time.Hour)) {
			t.Fatalf("clock after step %d = %v", h, p.Now())
		}
		for key := range labels {
			rec, ok := p.Monitor().LastRefit(key)
			if !ok || !rec.At.Equal(p.Now()) || rec.Reason != "horizon" {
				continue
			}
			// A horizon-exhausted champion rolls its state forward: no
			// optimiser run, the same champion, a forecast from now on.
			if rec.Mode != "advance" {
				t.Fatalf("step %d: %s past its horizon was refit (%s), not advanced", h, key, rec.Mode)
			}
			sm, _ := p.Store().Peek(key)
			if sm.Result.Champion.Label != labels[key] || !sm.Result.Forecast.Start.Equal(p.Now()) {
				t.Fatalf("step %d: advanced %s now %q from %v, want %q from %v", h, key,
					sm.Result.Champion.Label, sm.Result.Forecast.Start, labels[key], p.Now())
			}
			advanced++
		}
		// Self targets wait for SelfTrain scraped hours, one per step.
		for _, key := range monitor.SelfKeys("") {
			if _, ok := p.Store().Peek(key); ok {
				if h+1 < selfTrain {
					t.Fatalf("self target %s trained after %d scraped hours, want %d", key, h+1, selfTrain)
				}
				selfTrained = true
			}
		}
	}
	if advanced == 0 {
		t.Fatalf("no champion was advanced in %d steps with a 24h horizon", testSteps)
	}
	if !selfTrained {
		t.Fatalf("no self target trained after %d scraped hours", testSteps)
	}
	t.Logf("%d horizon advances in %d steps", advanced, testSteps)
	for _, key := range p.Store().Keys() {
		sm, _ := p.Store().Peek(key)
		fc := sm.Result.Forecast
		for _, v := range [][]float64{fc.Mean, fc.Lower, fc.Upper} {
			for i, x := range v {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("%s forecast step %d = %v", key, i, x)
				}
			}
		}
	}

	out := runResult{champions: map[string]string{}}
	for key, label := range champions(p) {
		if !isSelf(key) {
			out.champions[key] = label
		}
	}
	for _, a := range p.Monitor().Alerts() {
		if !isSelf(a.Key) {
			out.alerts = append(out.alerts, a)
		}
	}
	return out
}

// champions maps every stored key to its champion's label.
func champions(p *Pipeline) map[string]string {
	labels := map[string]string{}
	for _, key := range p.Store().Keys() {
		if sm, _ := p.Store().Peek(key); sm != nil && sm.Result != nil {
			labels[key] = sm.Result.Champion.Label
		}
	}
	return labels
}

// TestPipelineTrainAndStep drives the serve loop without HTTP or flags:
// Train on a seeded OLTP history, then Step through replayed hours.
// Horizon-exhausted champions must advance, self targets must train on
// schedule, every forecast must stay finite, and a second run of the
// same seed must leave the same champions and alert states.
func TestPipelineTrainAndStep(t *testing.T) {
	// Not skipped under -short: `make race` runs this as the race check
	// of the serve loop (about a second, five under -race).
	first := runPipeline(t)
	second := runPipeline(t)
	if len(first.champions) == 0 {
		t.Fatal("no champions stored")
	}
	if !reflect.DeepEqual(first.champions, second.champions) {
		t.Fatalf("champions differ between runs of one seed:\n%v\n%v", first.champions, second.champions)
	}
	if !reflect.DeepEqual(first.alerts, second.alerts) {
		t.Fatalf("alerts differ between runs of one seed:\n%+v\n%+v", first.alerts, second.alerts)
	}
}

func TestCoveredHours(t *testing.T) {
	t0 := time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		last time.Time
		want int
	}{
		{t0.Add(-time.Minute), 0},
		{t0, 1},
		{t0.Add(59 * time.Minute), 1},
		{t0.Add(time.Hour), 2},
		{t0.Add(23*time.Hour + 45*time.Minute), 24},
	} {
		if got := CoveredHours(t0, tc.last); got != tc.want {
			t.Errorf("CoveredHours(t0, %v) = %d, want %d", tc.last, got, tc.want)
		}
	}
}
