package monitor

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metricstore"
	"repro/internal/obs"
)

// AlertState is the lifecycle position of a capacity alert.
type AlertState int

const (
	// StateInactive means the rule is not breaching.
	StateInactive AlertState = iota
	// StatePending means the forecast breaches but not yet for enough
	// consecutive evaluations to fire (flap suppression).
	StatePending
	// StateFiring means the breach held for PendingTicks evaluations.
	StateFiring
	// StateResolved means a firing alert's forecast cleared for
	// ResolveTicks evaluations; it re-enters Pending on the next breach.
	StateResolved
)

// String implements fmt.Stringer.
func (s AlertState) String() string {
	switch s {
	case StateInactive:
		return "inactive"
	case StatePending:
		return "pending"
	case StateFiring:
		return "firing"
	case StateResolved:
		return "resolved"
	default:
		return fmt.Sprintf("AlertState(%d)", int(s))
	}
}

// MarshalJSON renders the state name.
func (s AlertState) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Rule is one capacity-breach condition: alert when the champion's
// forecast for a metric crosses Threshold within WithinHours. The upper
// prediction-interval bound is checked when the forecast carries one
// (early warning, like the capplan threshold check), the mean otherwise.
type Rule struct {
	// Metric is the metric name the rule applies to — the suffix of the
	// "instance/metric" key, e.g. "cpu".
	Metric string `json:"metric"`
	// Threshold is the capacity limit in the metric's unit.
	Threshold float64 `json:"threshold"`
	// WithinHours is the look-ahead horizon (0 → the full forecast).
	WithinHours int `json:"within_hours"`
}

// matches reports whether the rule governs a workload key.
func (r Rule) matches(key string) bool {
	k, ok := metricstore.ParseKey(key)
	return ok && k.Metric == r.Metric
}

// Alert is the live state of one (workload key, rule) pair.
type Alert struct {
	Key   string     `json:"key"`
	Rule  Rule       `json:"rule"`
	State AlertState `json:"state"`
	// Value is the worst forecast value inside the look-ahead window at
	// the last evaluation.
	Value float64 `json:"value"`
	// BreachAt is the predicted first crossing time (zero when clear).
	BreachAt time.Time `json:"breach_at"`
	// Since stamps when the current state was entered.
	Since      time.Time `json:"since"`
	FiredAt    time.Time `json:"fired_at"`
	ResolvedAt time.Time `json:"resolved_at"`

	breachRun, clearRun int
}

// Alerter walks champions' forecast horizons and drives each (key, rule)
// pair through the pending→firing→resolved state machine — the "predict
// when a threshold is likely to be breached" early warning, run
// continuously.
type Alerter struct {
	mu    sync.Mutex
	rules []Rule
	// pendingTicks is how many consecutive breaching evaluations promote
	// Pending to Firing; resolveTicks how many clear evaluations resolve
	// a firing alert.
	pendingTicks, resolveTicks int
	alerts                     map[string]*Alert
	obs                        *obs.Observer
}

// NewAlerter builds an alerter over rules. pendingTicks and resolveTicks
// default to 2 when non-positive.
func NewAlerter(rules []Rule, pendingTicks, resolveTicks int, o *obs.Observer) *Alerter {
	if pendingTicks <= 0 {
		pendingTicks = 2
	}
	if resolveTicks <= 0 {
		resolveTicks = 2
	}
	return &Alerter{
		rules:        rules,
		pendingTicks: pendingTicks,
		resolveTicks: resolveTicks,
		alerts:       make(map[string]*Alert),
		obs:          o,
	}
}

// Observe evaluates every matching rule against a champion's production
// forecast at time now.
func (a *Alerter) Observe(key string, now time.Time, fc *core.Prediction) {
	if fc == nil {
		return
	}
	for _, r := range a.rules {
		if !r.matches(key) {
			continue
		}
		breaching, worst, at := scanForecast(fc, now, r)
		a.transition(key, r, now, breaching, worst, at)
	}
	a.publishGauges()
}

// ObserveCondition drives an externally evaluated condition — e.g. the
// drift detector's alarm state — through the same pending→firing→
// resolved machinery as a forecast rule. kind names the synthetic
// metric the alert is keyed under (key+"|"+kind), so a drift event and
// a capacity breach can coexist on one target; value is the condition's
// current magnitude (the Page–Hinkley statistic for drift).
func (a *Alerter) ObserveCondition(key, kind string, now time.Time, active bool, value float64, at time.Time) {
	if !active {
		at = time.Time{}
	}
	a.transition(key, Rule{Metric: kind}, now, active, value, at)
	a.publishGauges()
}

// scanForecast walks the forecast steps inside the rule's look-ahead
// window, returning whether the threshold is crossed, the worst value
// seen and the first crossing time.
func scanForecast(fc *core.Prediction, now time.Time, r Rule) (breaching bool, worst float64, at time.Time) {
	limit := time.Time{}
	if r.WithinHours > 0 {
		limit = now.Add(time.Duration(r.WithinHours) * time.Hour)
	}
	band := fc.Mean
	if len(fc.Upper) == len(fc.Mean) && len(fc.Upper) > 0 {
		band = fc.Upper
	}
	seen := false
	for i, v := range band {
		t := fc.TimeAt(i)
		if t.Before(now) {
			continue
		}
		if !limit.IsZero() && t.After(limit) {
			break
		}
		if !seen || v > worst {
			worst = v
			seen = true
		}
		if v >= r.Threshold && !breaching {
			breaching = true
			at = t
		}
	}
	return breaching, worst, at
}

// transition advances one (key, rule) alert through the state machine.
func (a *Alerter) transition(key string, r Rule, now time.Time, breaching bool, worst float64, breachAt time.Time) {
	id := key + "|" + r.Metric
	a.mu.Lock()
	defer a.mu.Unlock()
	al := a.alerts[id]
	if al == nil {
		al = &Alert{Key: key, Rule: r, State: StateInactive, Since: now}
		a.alerts[id] = al
	}
	word := "capacity"
	switch {
	case r.Metric == DriftCondition:
		word = "drift"
	case strings.HasPrefix(r.Metric, "plan_"):
		word = "plan"
	}
	al.Value = worst
	al.BreachAt = breachAt
	if breaching {
		al.breachRun++
		al.clearRun = 0
		switch al.State {
		case StateInactive, StateResolved:
			al.State = StatePending
			al.Since = now
			al.breachRun = 1
			a.count("pending", key, r.Metric)
			a.obs.Info(word+" alert pending", "key", key, "metric", r.Metric,
				"threshold", r.Threshold, "value", fmt.Sprintf("%.2f", worst),
				"breach_at", breachAt.Format(time.RFC3339))
		case StatePending:
			if al.breachRun >= a.pendingTicks {
				al.State = StateFiring
				al.Since = now
				al.FiredAt = now
				al.ResolvedAt = time.Time{}
				a.count("firing", key, r.Metric)
				a.obs.Warn(word+" alert FIRING", "key", key, "metric", r.Metric,
					"threshold", r.Threshold, "value", fmt.Sprintf("%.2f", worst),
					"breach_at", breachAt.Format(time.RFC3339))
			}
		}
		return
	}
	al.clearRun++
	al.breachRun = 0
	switch al.State {
	case StatePending:
		// A breach that clears before firing is a flap, not an incident.
		al.State = StateInactive
		al.Since = now
		a.count("flap", key, r.Metric)
		a.obs.Debug(word+" alert flap suppressed", "key", key, "metric", r.Metric)
	case StateFiring:
		if al.clearRun >= a.resolveTicks {
			al.State = StateResolved
			al.Since = now
			al.ResolvedAt = now
			a.count("resolved", key, r.Metric)
			a.obs.Info(word+" alert resolved", "key", key, "metric", r.Metric,
				"threshold", r.Threshold)
		}
	}
}

func (a *Alerter) count(state, key, metric string) {
	a.obs.Count("monitor_alert_transitions_total", 1,
		obs.L("state", state), obs.L("key", key), obs.L("metric", metric))
}

// publishGauges exports the live firing/pending counts.
func (a *Alerter) publishGauges() {
	a.mu.Lock()
	var firing, pending int
	for _, al := range a.alerts {
		switch al.State {
		case StateFiring:
			firing++
		case StatePending:
			pending++
		}
	}
	a.mu.Unlock()
	a.obs.SetGauge("monitor_alerts_firing", float64(firing))
	a.obs.SetGauge("monitor_alerts_pending", float64(pending))
}

// Alerts returns every alert that has left Inactive at least once,
// sorted by key then metric — the /alerts payload.
func (a *Alerter) Alerts() []Alert {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Alert, 0, len(a.alerts))
	for _, al := range a.alerts {
		if al.State == StateInactive && al.FiredAt.IsZero() {
			continue
		}
		out = append(out, *al)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Rule.Metric < out[j].Rule.Metric
	})
	return out
}
