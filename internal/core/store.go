package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// StalePolicy controls when a stored champion must be re-learned,
// per Figure 4: "That model is then stored in a central repository and
// used for a period of one week or until the model's RMSE drops to a
// point where it is rendered useless."
type StalePolicy struct {
	// MaxAge is the validity window (0 → 7 days, the paper's week).
	MaxAge time.Duration
	// DegradeFactor invalidates the model when its live RMSE exceeds the
	// selection RMSE by this multiple (0 → 2.0).
	DegradeFactor float64
}

func (p StalePolicy) maxAge() time.Duration {
	if p.MaxAge <= 0 {
		return 7 * 24 * time.Hour
	}
	return p.MaxAge
}

func (p StalePolicy) degrade() float64 {
	if p.DegradeFactor <= 0 {
		return 2.0
	}
	return p.DegradeFactor
}

// StoredModel is a champion kept by the ModelStore.
type StoredModel struct {
	// Key identifies the monitored series ("target/metric").
	Key string
	// Result is the engine run that produced the champion.
	Result *Result
	// FittedAt stamps when the model was learned.
	FittedAt time.Time
	// SelectionRMSE is the hold-out RMSE at selection time, the baseline
	// for degradation checks.
	SelectionRMSE float64
	// LiveRMSE tracks the most recent observed accuracy (NaN until the
	// first check-in).
	LiveRMSE float64
	// Invalidated is set when a degradation check failed.
	Invalidated bool
}

// ModelStore is the central model repository of §5.1, safe for concurrent
// use. Models are re-learned only when stale — the paper's "We simply
// re-train on the data unless … the time since the last use of the models
// lengthens beyond a certain period."
type ModelStore struct {
	mu     sync.RWMutex
	policy StalePolicy
	models map[string]*StoredModel
	now    func() time.Time
	obs    *obs.Observer
}

// SetObserver attaches an observer for staleness-watchdog counters and
// logs (modelstore_puts_total, modelstore_lookups_total{result=…},
// modelstore_invalidations_total, modelstore_evictions_total{reason=…}).
// nil detaches.
func (s *ModelStore) SetObserver(o *obs.Observer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs = o
}

// NewModelStore returns an empty store with the given staleness policy.
func NewModelStore(policy StalePolicy) *ModelStore {
	return &ModelStore{
		policy: policy,
		models: make(map[string]*StoredModel),
		now:    time.Now,
	}
}

// SetClock overrides the time source (tests).
func (s *ModelStore) SetClock(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}

// Put stores (or replaces) the champion for a key.
func (s *ModelStore) Put(key string, res *Result) {
	s.mu.Lock()
	s.models[key] = &StoredModel{
		Key:           key,
		Result:        res,
		FittedAt:      s.now(),
		SelectionRMSE: res.TestScore.RMSE,
		LiveRMSE:      res.TestScore.RMSE,
	}
	o := s.obs
	s.mu.Unlock()
	o.Count("modelstore_puts_total", 1)
}

// ReplaceResult swaps the stored result for key in place while preserving
// the fit timestamp, selection score and invalidation bookkeeping — the
// advance path's store update: the champion did not change and no fit ran,
// only its state and forecast rolled forward, so age-based staleness must
// keep counting from the original fit. Returns false when the key is not
// stored (callers then fall back to a full Put via refit).
func (s *ModelStore) ReplaceResult(key string, res *Result) bool {
	s.mu.Lock()
	sm, ok := s.models[key]
	if ok {
		sm.Result = res
	}
	o := s.obs
	s.mu.Unlock()
	if ok {
		o.Count("modelstore_advances_total", 1)
	}
	return ok
}

// Get returns the stored champion and whether it is still usable. A stale
// or missing model returns usable=false, telling the caller to re-run the
// engine.
func (s *ModelStore) Get(key string) (m *StoredModel, usable bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sm, ok := s.models[key]
	if !ok {
		s.obs.Count("modelstore_lookups_total", 1, obs.L("result", "miss"))
		return nil, false
	}
	if sm.Invalidated {
		s.obs.Count("modelstore_lookups_total", 1, obs.L("result", "invalidated"))
		return sm, false
	}
	if s.now().Sub(sm.FittedAt) > s.policy.maxAge() {
		s.obs.Count("modelstore_lookups_total", 1, obs.L("result", "stale"))
		s.obs.Debug("stored model stale", "key", key, "fitted_at", sm.FittedAt.Format(time.RFC3339))
		return sm, false
	}
	s.obs.Count("modelstore_lookups_total", 1, obs.L("result", "hit"))
	return sm, true
}

// Peek returns the stored champion and its usability without bumping
// lookup counters or logging — for introspection endpoints that poll
// the store without polluting the operational metrics Get maintains.
func (s *ModelStore) Peek(key string) (m *StoredModel, usable bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sm, ok := s.models[key]
	if !ok {
		return nil, false
	}
	usable = !sm.Invalidated && s.now().Sub(sm.FittedAt) <= s.policy.maxAge()
	return sm, usable
}

// Now reads the store's clock — real time in production, the simulated
// clock in replay-driven serving, so status ages agree with the data.
func (s *ModelStore) Now() time.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.now()
}

// CheckIn reports fresh accuracy for a stored model: the caller compares
// recent actuals against the model's forecasts and submits the RMSE. The
// model is invalidated when accuracy degraded beyond the policy factor —
// the "continually assess the models performance" loop of §9.
// It returns whether the model remains usable.
func (s *ModelStore) CheckIn(key string, liveRMSE float64) (usable bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sm, ok := s.models[key]
	if !ok {
		return false, fmt.Errorf("core: no stored model for %q", key)
	}
	sm.LiveRMSE = liveRMSE
	if !sm.Invalidated && sm.SelectionRMSE > 0 && liveRMSE > sm.SelectionRMSE*s.policy.degrade() {
		sm.Invalidated = true
		ratio := liveRMSE / sm.SelectionRMSE
		s.obs.Count("modelstore_invalidations_total", 1)
		s.obs.Count("modelstore_evictions_total", 1, obs.L("reason", "degraded"))
		s.obs.Warn("model invalidated (accuracy degraded)", "key", key,
			"selection_rmse", sm.SelectionRMSE, "live_rmse", liveRMSE,
			"degradation_ratio", fmt.Sprintf("%.2f", ratio),
			"limit", fmt.Sprintf("%.2f", s.policy.degrade()))
	}
	if sm.Invalidated {
		return false, nil
	}
	return s.now().Sub(sm.FittedAt) <= s.policy.maxAge(), nil
}

// Invalidate marks the stored champion for key unusable for the given
// reason — the path external quality signals (the monitor's drift
// detector, an operator action) use to force a refit without waiting
// for the RMSE degradation ratio or the age window. It shares the
// StalePolicy's bookkeeping: the eviction is counted under the reason
// and subsequent Gets report the model unusable. Reports whether a
// model was actually invalidated (false when the key is unknown or the
// model was already invalid).
func (s *ModelStore) Invalidate(key, reason string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	sm, ok := s.models[key]
	if !ok || sm.Invalidated {
		return false
	}
	sm.Invalidated = true
	s.obs.Count("modelstore_invalidations_total", 1)
	s.obs.Count("modelstore_evictions_total", 1, obs.L("reason", reason))
	s.obs.Warn("model invalidated", "key", key, "reason", reason)
	return true
}

// Keys lists the stored model keys.
func (s *ModelStore) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.models))
	for k := range s.models {
		out = append(out, k)
	}
	return out
}
