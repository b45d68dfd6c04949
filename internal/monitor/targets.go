package monitor

import (
	"encoding/json"
	"net/http"
	"sort"
	"time"
)

// TargetsPath is the per-target introspection endpoint's route on the
// shared observability mux.
const TargetsPath = "/api/v1/targets"

// RefitRecord is the outcome of the most recent refit for one key —
// including the trace ID of the pipeline run that triggered it, so a
// "why did this model change?" question resolves to a concrete trace.
type RefitRecord struct {
	Key    string `json:"key"`
	Reason string `json:"reason"`
	// Mode is how the champion was refreshed: "cold" (full grid, cold
	// simplex), "warm" (warm-started optimiser over a shrunken grid) or
	// "advance" (state roll-forward, no optimiser at all).
	Mode       string    `json:"mode,omitempty"`
	TraceID    string    `json:"trace_id,omitempty"`
	At         time.Time `json:"at"`
	DurationMS float64   `json:"duration_ms"`
	Champion   string    `json:"champion,omitempty"`
	Error      string    `json:"error,omitempty"`
}

// TargetStatus is one row of /api/v1/targets: everything the planner
// currently believes about one forecast target.
type TargetStatus struct {
	Key string `json:"key"`
	// State is "ok" (usable champion), "stale" (aged out), "degraded"
	// (accuracy-invalidated) or "untrained" (inventoried, no model yet).
	State         string     `json:"state"`
	Family        string     `json:"family,omitempty"`
	Champion      string     `json:"champion,omitempty"`
	SelectionRMSE float64    `json:"selection_rmse"`
	RollingRMSE   float64    `json:"rolling_rmse"`
	RollingMAPA   float64    `json:"rolling_mapa"`
	WindowPoints  int        `json:"window_points"`
	FittedAt      *time.Time `json:"fitted_at,omitempty"`
	AgeHours      float64    `json:"age_hours"`
	HorizonSteps  int        `json:"horizon_steps"`
	// Forecast-health summary (full detail on /api/v1/calibration):
	// rolling empirical interval coverage vs the nominal level, the
	// composite 0–1 health score, and the drift detector's state.
	Coverage          float64      `json:"interval_coverage_ratio"`
	NominalLevel      float64      `json:"nominal_level"`
	CalibrationPoints int          `json:"calibration_points"`
	Health            float64      `json:"health_ratio"`
	DriftState        string       `json:"drift_state,omitempty"`
	DriftAlarms       int64        `json:"drift_alarms"`
	LastRefit         *RefitRecord `json:"last_refit,omitempty"`
}

// TargetsFor assembles the status of the known targets: the union of
// stored champions and the configured inventory (so warming targets —
// inventoried but not yet trained — are visible too), each joined with
// its rolling accuracy, calibration/drift summary and last refit
// record. A non-empty filter narrows the result to that exact key, so
// fleet-scale deployments can poll one target without serializing
// thousands. Sorted by key. Reads use ModelStore.Peek, so polling the
// endpoint does not skew the store's lookup counters.
func (m *Monitor) TargetsFor(filter string) []TargetStatus {
	now := m.store.Now()
	set := make(map[string]bool)
	for _, k := range m.store.Keys() {
		set[k] = true
	}
	if m.inventory != nil {
		for _, k := range m.inventory() {
			set[k] = true
		}
	}
	if filter != "" {
		if !set[filter] {
			return []TargetStatus{}
		}
		set = map[string]bool{filter: true}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	acc := make(map[string]AccuracyScore)
	for _, a := range m.eval.Accuracy() {
		acc[a.Key] = a
	}

	out := make([]TargetStatus, 0, len(keys))
	for _, k := range keys {
		ts := TargetStatus{Key: k, State: "untrained"}
		if sm, usable := m.store.Peek(k); sm != nil {
			switch {
			case usable:
				ts.State = "ok"
			case sm.Invalidated:
				ts.State = "degraded"
			default:
				ts.State = "stale"
			}
			if sm.Result != nil {
				ts.Family = sm.Result.ChampionFamily()
				ts.Champion = sm.Result.Champion.Label
				if fc := sm.Result.Forecast; fc != nil {
					ts.HorizonSteps = len(fc.Mean)
				}
			}
			ts.SelectionRMSE = nanToZero(sm.SelectionRMSE)
			fitted := sm.FittedAt
			ts.FittedAt = &fitted
			ts.AgeHours = now.Sub(sm.FittedAt).Hours()
		}
		if a, ok := acc[k]; ok {
			// Accuracy() already mapped NaN to zero for JSON.
			ts.RollingRMSE = a.RollingRMSE
			ts.RollingMAPA = a.RollingMAPA
			ts.WindowPoints = a.Points
		}
		if st, ok := m.cal.Status(k); ok {
			ts.Coverage = nanToZero(st.Coverage)
			ts.NominalLevel = nanToZero(st.NominalLevel)
			ts.CalibrationPoints = st.Points
			ts.Health = nanToZero(m.healthFor(k, st))
		}
		if ds, ok := m.drift.Status(k); ok {
			ts.DriftState = ds.State
			ts.DriftAlarms = ds.Alarms
		}
		if rec, ok := m.LastRefit(k); ok {
			ts.LastRefit = &rec
		}
		out = append(out, ts)
	}
	return out
}

// TargetsHandler serves the per-target planner status as a JSON array;
// ?key=target/metric narrows it to one target.
func TargetsHandler(m *Monitor) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(m.TargetsFor(req.URL.Query().Get("key"))) //nolint:errcheck // best-effort endpoint
	})
}
