package planner

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dbsim"
)

// Closed-loop evaluation harness: the planner and a reactive autoscaler
// each drive a simulated actuator over the same deterministic demand
// trace, and both are scored on the two axes a capacity planner trades
// off — SLO-breach hours (an instance ran hotter than the SLO) and
// overprovisioned instance-hours (instances beyond what the hour
// needed). dbsim's purity makes every run exactly reproducible.

// Scenario is one closed-loop evaluation setup.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// Cluster is the demand source; its workload carries over unchanged
	// through every reconfiguration.
	Cluster *dbsim.Cluster
	// StartAfter offsets the evaluation window from the cluster start —
	// the warmup history the forecaster may draw on (≥ 48h for the
	// seasonal-naive forecaster).
	StartAfter time.Duration
	// Hours is the evaluation length.
	Hours int
	// SLO is the per-instance planning-metric ceiling; any instance
	// sampled above it makes the hour a breach.
	SLO float64
}

func (sc Scenario) start() time.Time {
	return sc.Cluster.Start().Add(sc.StartAfter)
}

// Outcome is one controller's closed-loop score.
type Outcome struct {
	Scenario   string `json:"scenario"`
	Controller string `json:"controller"`
	Hours      int    `json:"hours"`
	// BreachHours counts hours where any instance exceeded the SLO.
	BreachHours int `json:"breach_hours"`
	// InstanceHours is the total capacity paid for.
	InstanceHours int `json:"instance_hours"`
	// OverprovisionedHours sums, per hour, the instances beyond the
	// minimum count that would have held every node at or under the SLO
	// (computed from the true demand — a lower bound no controller can
	// beat, so the overhang is comparable across controllers).
	OverprovisionedHours int `json:"overprovisioned_hours"`
	// Actions counts applied reconfigurations.
	Actions int `json:"actions"`
	// FinalInstances is the fleet size when the window closed.
	FinalInstances int `json:"final_instances"`
}

// ForecastFunc produces the demand horizon the planner plans against at
// time now. Implementations must only use information available at now.
type ForecastFunc func(now time.Time, horizon int) Demand

// SeasonalNaiveForecast returns a deterministic stand-in for the model
// store's champion forecasts: for each horizon hour it takes the demand
// the cluster presented at the same hour yesterday and the day before,
// uses the larger as the band, adds the day-over-day trend (so drifting
// workloads are extrapolated, not chased), and inflates by margin as
// the interval width. For horizons up to 24 h it never reads past now.
//
// capplan:keep planner eval harness: the closed-loop tests in eval_test.go.
func SeasonalNaiveForecast(c *dbsim.Cluster, metric dbsim.Metric, margin float64) ForecastFunc {
	demand := func(t time.Time) float64 {
		v, err := c.Demand(metric, t)
		if err != nil {
			return math.NaN()
		}
		return v
	}
	return func(now time.Time, horizon int) Demand {
		d := Demand{Start: now.Add(time.Hour)}
		if horizon <= 0 {
			return d
		}
		d.Upper = make([]float64, horizon)
		d.Mean = make([]float64, horizon)
		for i := 0; i < horizon; i++ {
			t := d.StepAt(i)
			y1 := demand(t.Add(-24 * time.Hour))
			y2 := demand(t.Add(-48 * time.Hour))
			base := math.Max(y1, y2)
			trend := math.Max(0, y1-y2)
			d.Mean[i] = y1 + trend
			d.Upper[i] = (base + trend) * (1 + margin)
		}
		return d
	}
}

// probeNodeLoads samples every node three times across the hour
// starting at t and keeps the per-node maximum — coarse enough to stay
// cheap, fine enough to catch sub-hour backup windows.
func probeNodeLoads(c *dbsim.Cluster, metric dbsim.Metric, t time.Time) ([]float64, error) {
	n := len(c.Instances())
	loads := make([]float64, n)
	for node := 0; node < n; node++ {
		for _, off := range []time.Duration{0, 20 * time.Minute, 40 * time.Minute} {
			v, err := c.Sample(node, metric, t.Add(off))
			if err != nil {
				return nil, err
			}
			if v > loads[node] {
				loads[node] = v
			}
		}
	}
	return loads, nil
}

// minimalInstances is the scoring oracle: the smallest fleet that would
// have held every node at or under the SLO for the hour's true demand,
// ignoring backups and noise (a lower bound on any controller).
func minimalInstances(c *dbsim.Cluster, metric dbsim.Metric, t time.Time, slo float64) (int, error) {
	var peak float64
	for _, off := range []time.Duration{0, 20 * time.Minute, 40 * time.Minute} {
		v, err := c.Demand(metric, t.Add(off))
		if err != nil {
			return 0, err
		}
		if v > peak {
			peak = v
		}
	}
	base, err := c.Baseline(metric)
	if err != nil {
		return 0, err
	}
	usable := slo - base
	if usable <= 0 {
		return 1, fmt.Errorf("planner: SLO %.1f leaves no usable capacity over baseline %.1f", slo, base)
	}
	n := int(math.Ceil(peak / usable))
	if n < 1 {
		n = 1
	}
	return n, nil
}

// BackupInfos extracts the daily backup jobs the planner may move from
// a cluster's configuration, with each job's load in the planning
// metric. Exposed so serve can hand the planner the schedule it "knows
// about" (the paper's understood shocks).
func BackupInfos(c *dbsim.Cluster, metric dbsim.Metric) []BackupInfo {
	var infos []BackupInfo
	for i, b := range c.Backups() {
		if b.Every < 24*time.Hour {
			continue
		}
		load := 0.0
		switch metric {
		case dbsim.CPU:
			load = b.CPUPct
		case dbsim.MemoryMB:
			load = b.MemMB
		case dbsim.LogicalIOPS:
			load = b.IOPS
		}
		infos = append(infos, BackupInfo{
			Index: i, Node: b.Node,
			StartHour:     int(b.Offset / time.Hour),
			DurationHours: b.Duration.Hours(),
			Load:          load,
		})
	}
	return infos
}

// scoreHour accumulates one hour into the outcome and returns the
// observed per-node loads for the controller's next decision.
func scoreHour(out *Outcome, c *dbsim.Cluster, metric dbsim.Metric, t time.Time, slo float64) ([]float64, error) {
	loads, err := probeNodeLoads(c, metric, t)
	if err != nil {
		return nil, err
	}
	breach := false
	for _, v := range loads {
		if v >= slo {
			breach = true
		}
	}
	if breach {
		out.BreachHours++
	}
	n := len(loads)
	out.InstanceHours += n
	nreq, err := minimalInstances(c, metric, t, slo)
	if err != nil {
		return nil, err
	}
	if n > nreq {
		out.OverprovisionedHours += n - nreq
	}
	return loads, nil
}

// RunPlannerLoop drives the forecast planner in closed loop over the
// scenario: each hour is scored on the current topology, then the
// planner plans from the forecast and the actuator applies its actions
// when their lead time expires.
//
// capplan:keep planner eval harness: the closed-loop tests in eval_test.go.
func RunPlannerLoop(sc Scenario, pol Policy, fc ForecastFunc) (Outcome, error) {
	pl, err := New(pol, nil)
	if err != nil {
		return Outcome{}, err
	}
	pol = pl.Policy()
	metric, err := planMetric(pol.Metric)
	if err != nil {
		return Outcome{}, err
	}
	base, err := sc.Cluster.Baseline(metric)
	if err != nil {
		return Outcome{}, err
	}
	act := NewSimActuator(sc.Cluster)
	out := Outcome{Scenario: sc.Name, Controller: "planner", Hours: sc.Hours}
	start := sc.start()
	for h := 0; h < sc.Hours; h++ {
		now := start.Add(time.Duration(h) * time.Hour)
		if _, err := act.Advance(now); err != nil {
			return out, err
		}
		c := act.Cluster()
		loads, err := scoreHour(&out, c, metric, now, sc.SLO)
		if err != nil {
			return out, err
		}
		st := ClusterState{
			Target:    "cluster",
			Instances: len(loads),
			NodeLoad:  loads,
			Baseline:  base,
			Backups:   BackupInfos(c, metric),
		}
		act.Submit(pl.Plan(now, st, fc(now, pol.HorizonHours)))
	}
	out.Actions = act.Applied()
	out.FinalInstances = act.Instances()
	return out, nil
}

// RunReactiveLoop drives the reactive baseline over the same scenario:
// each hour is scored, then the controller sizes the fleet from what it
// just observed and the change lands after the same actuation lead the
// planner pays.
//
// capplan:keep planner eval harness: the closed-loop tests in eval_test.go.
func RunReactiveLoop(sc Scenario, cfg ReactiveConfig, leadHours int) (Outcome, error) {
	if leadHours <= 0 {
		leadHours = 1
	}
	r := NewReactive(cfg)
	act := NewSimActuator(sc.Cluster)
	out := Outcome{Scenario: sc.Name, Controller: "reactive", Hours: sc.Hours}
	start := sc.start()
	seq := 0
	for h := 0; h < sc.Hours; h++ {
		now := start.Add(time.Duration(h) * time.Hour)
		if _, err := act.Advance(now); err != nil {
			return out, err
		}
		c := act.Cluster()
		loads, err := scoreHour(&out, c, dbsim.CPU, now, sc.SLO)
		if err != nil {
			return out, err
		}
		current := len(loads)
		desired := r.Step(loads, current)
		if desired != current {
			typ := ActionGrow
			if desired < current {
				typ = ActionShrink
			}
			seq++
			act.Submit([]Action{{
				Seq: seq, Type: typ, Target: "cluster", Metric: "cpu",
				At: now, ExecuteAt: now.Add(time.Duration(leadHours) * time.Hour),
				FromInstances: current, ToInstances: desired,
				Reason: "reactive threshold autoscaler",
			}})
		}
	}
	out.Actions = act.Applied()
	out.FinalInstances = act.Instances()
	return out, nil
}

// planMetric maps a policy metric name to the dbsim metric.
func planMetric(name string) (dbsim.Metric, error) {
	for _, m := range dbsim.AllMetrics {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("planner: unknown planning metric %q", name)
}
