package monitor

import (
	"math"
	"sync"
	"time"

	"repro/internal/obs"
)

// DriftCondition is the synthetic alert "metric" drift events are
// keyed under in the alerter, so a drift incident walks the same
// pending→firing→resolved state machine as a capacity breach and
// shows up on /alerts next to it.
const DriftCondition = "drift"

// DriftConfig tunes the Page–Hinkley change detector that watches each
// target's standardized forecast residuals. The detector subtracts its
// own running mean, so a constant model bias does not accumulate —
// only a *change* in the residual mean (a regime shift the champion
// has not learned) drives the statistic toward Lambda.
type DriftConfig struct {
	// Disabled turns the detector off (no drift refits, no drift alerts).
	Disabled bool
	// Delta is the drift tolerance in standardized-residual units:
	// per-step deviations below Delta never accumulate (0 → 0.25).
	Delta float64
	// Lambda is the alarm threshold on the Page–Hinkley statistic
	// (0 → 12). Smaller fires faster but risks false alarms.
	Lambda float64
	// MinPoints is the warm-up: no alarms before this many residuals
	// have been scored since the last reset (0 → 6).
	MinPoints int
	// HoldTicks keeps the drift condition reported active for this many
	// observations after an alarm, long enough for the alerter's
	// pending→firing promotion to see a sustained breach (0 → 4).
	HoldTicks int
}

func (c DriftConfig) delta() float64 {
	if c.Delta <= 0 {
		return 0.25
	}
	return c.Delta
}

func (c DriftConfig) lambda() float64 {
	if c.Lambda <= 0 {
		return 12
	}
	return c.Lambda
}

func (c DriftConfig) minPoints() int {
	if c.MinPoints <= 0 {
		return 6
	}
	return c.MinPoints
}

func (c DriftConfig) holdTicks() int {
	if c.HoldTicks <= 0 {
		return 4
	}
	return c.HoldTicks
}

// phState is the per-key two-sided Page–Hinkley accumulator.
type phState struct {
	n    int
	mean float64
	// cumUp tracks Σ(z−z̄−δ) with its running minimum: an upward mean
	// shift lifts cumUp away from minUp. cumDown/maxDown mirror it for
	// downward shifts.
	cumUp, minUp     float64
	cumDown, maxDown float64

	hold        int
	alarms      int64
	lastAlarmAt time.Time
	lastStat    float64
	lastAt      time.Time
}

// reset clears the accumulator (after an alarm or a refit) while
// keeping the alarm history and the active hold.
func (s *phState) reset() {
	s.n, s.mean = 0, 0
	s.cumUp, s.minUp = 0, 0
	s.cumDown, s.maxDown = 0, 0
}

// DriftVerdict is what one detector observation decided.
type DriftVerdict struct {
	// Alarm is true exactly once per detected shift: the observation
	// that pushed the statistic past Lambda.
	Alarm bool
	// Active is true while the drift condition should be reported
	// breaching to the alerter (the alarm observation plus HoldTicks).
	Active bool
	// Stat is the two-sided Page–Hinkley statistic after the update.
	Stat float64
}

// DriftStatus is the per-key drift snapshot exposed on
// /api/v1/calibration and merged into /api/v1/targets.
type DriftStatus struct {
	Key string `json:"key"`
	// State is "watching" (quiet) or "drifting" (alarmed within the
	// hold window).
	State string `json:"state"`
	// Stat is the current Page–Hinkley statistic; Lambda the threshold.
	Stat   float64 `json:"stat"`
	Lambda float64 `json:"lambda"`
	// Points counts residuals scored since the last reset.
	Points      int       `json:"points"`
	Alarms      int64     `json:"alarms"`
	LastAlarmAt time.Time `json:"last_alarm_at"`
}

// DriftDetector runs one Page–Hinkley accumulator per monitored key
// over standardized forecast residuals. Safe for concurrent use.
type DriftDetector struct {
	mu     sync.Mutex
	cfg    DriftConfig
	states map[string]*phState
	obs    *obs.Observer
}

// NewDriftDetector builds a detector with cfg. o receives the drift
// gauges and alarm counter; nil disables emission.
func NewDriftDetector(cfg DriftConfig, o *obs.Observer) *DriftDetector {
	return &DriftDetector{
		cfg:    cfg,
		states: make(map[string]*phState),
		obs:    o,
	}
}

// Observe feeds one standardized residual for key at time `at` and
// reports whether the accumulated evidence crossed the alarm
// threshold. An alarm resets the accumulator so one shift raises one
// alarm, not one per subsequent hour.
func (d *DriftDetector) Observe(key string, at time.Time, z float64) DriftVerdict {
	if d == nil || !isFinite(z) {
		return DriftVerdict{}
	}
	d.mu.Lock()
	s := d.states[key]
	if s == nil {
		s = &phState{}
		d.states[key] = s
	}
	s.n++
	s.mean += (z - s.mean) / float64(s.n)
	delta := d.cfg.delta()
	s.cumUp += z - s.mean - delta
	if s.cumUp < s.minUp {
		s.minUp = s.cumUp
	}
	s.cumDown += z - s.mean + delta
	if s.cumDown > s.maxDown {
		s.maxDown = s.cumDown
	}
	stat := math.Max(s.cumUp-s.minUp, s.maxDown-s.cumDown)
	v := DriftVerdict{Stat: stat}
	if s.hold > 0 {
		s.hold--
		v.Active = true
	}
	if s.n >= d.cfg.minPoints() && stat > d.cfg.lambda() {
		v.Alarm = true
		v.Active = true
		s.alarms++
		s.lastAlarmAt = at
		s.hold = d.cfg.holdTicks()
		s.reset()
	}
	s.lastStat = stat
	s.lastAt = at
	d.mu.Unlock()

	d.obs.SetGauge("forecast_drift_stat", stat, obs.L("key", key))
	active := 0.0
	if v.Active {
		active = 1
	}
	d.obs.SetGauge("forecast_drift_active", active, obs.L("key", key))
	if v.Alarm {
		d.obs.Count("monitor_drift_alarms_total", 1, obs.L("key", key))
		d.obs.Warn("forecast drift detected", "key", key,
			"page_hinkley", stat, "lambda", d.cfg.lambda(), "at", at.Format(time.RFC3339))
	}
	return v
}

// Reset clears the accumulator for key — called after a refit so the
// new champion starts from a fresh baseline. The hold window and alarm
// history survive, keeping the in-flight drift alert visible.
func (d *DriftDetector) Reset(key string) {
	if d == nil {
		return
	}
	d.mu.Lock()
	if s := d.states[key]; s != nil {
		s.reset()
	}
	d.mu.Unlock()
}

// Status returns the drift snapshot for key, ok=false when the key has
// never been observed.
func (d *DriftDetector) Status(key string) (DriftStatus, bool) {
	if d == nil {
		return DriftStatus{}, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.states[key]
	if s == nil {
		return DriftStatus{}, false
	}
	return d.statusLocked(key, s), true
}

func (d *DriftDetector) statusLocked(key string, s *phState) DriftStatus {
	state := "watching"
	if s.hold > 0 {
		state = "drifting"
	}
	return DriftStatus{
		Key: key, State: state,
		Stat: s.lastStat, Lambda: d.cfg.lambda(),
		Points: s.n, Alarms: s.alarms, LastAlarmAt: s.lastAlarmAt,
	}
}
