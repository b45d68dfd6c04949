// Package timeseries defines the regular-interval time series that flows
// through the entire system: the agent produces one per (instance, metric),
// the repository aggregates it to hourly granularity, and the learning
// engine consumes it (§3 of the paper: m = [x₁ … x_n] at a fixed monitoring
// frequency).
//
// Missing observations — the paper's "agent may have been at fault" case —
// are represented as NaN and repaired with linear interpolation before
// modelling, exactly as in Figure 4 of the paper.
package timeseries

import (
	"fmt"
	"math"
	"time"
)

// Frequency names the monitoring/prediction granularities used in the
// paper (Table 1). The seasonal period F associated with each frequency is
// the paper's convention: 24 for hourly data (daily season), 7 for daily
// data (weekly season), 52 for weekly data (yearly season).
type Frequency int

const (
	// Minute15 is the agent's raw polling interval (§6.2: "metrics are
	// captured every 15 mins via an agent").
	Minute15 Frequency = iota
	// Hourly is the aggregated modelling granularity used in both
	// experiments.
	Hourly
	// Daily granularity for 7-day-ahead forecasts.
	Daily
	// Weekly granularity for 4-week-ahead forecasts.
	Weekly
)

// Step returns the sampling interval of the frequency.
func (f Frequency) Step() time.Duration {
	switch f {
	case Minute15:
		return 15 * time.Minute
	case Hourly:
		return time.Hour
	case Daily:
		return 24 * time.Hour
	case Weekly:
		return 7 * 24 * time.Hour
	default:
		panic(fmt.Sprintf("timeseries: unknown frequency %d", int(f)))
	}
}

// Period returns the default seasonal period F for the frequency, per the
// paper's SARIMA parameterisation (…,F) — e.g. F=24 for hourly data.
func (f Frequency) Period() int {
	switch f {
	case Minute15:
		return 96 // one day of 15-minute samples
	case Hourly:
		return 24
	case Daily:
		return 7
	case Weekly:
		return 52
	default:
		panic(fmt.Sprintf("timeseries: unknown frequency %d", int(f)))
	}
}

// String implements fmt.Stringer.
func (f Frequency) String() string {
	switch f {
	case Minute15:
		return "15min"
	case Hourly:
		return "hourly"
	case Daily:
		return "daily"
	case Weekly:
		return "weekly"
	default:
		return fmt.Sprintf("Frequency(%d)", int(f))
	}
}

// Series is a regularly sampled time series. Values[i] is the observation
// at Start + i·Freq.Step(). NaN marks a missing observation.
type Series struct {
	// Name identifies the series, e.g. "cdbm011/cpu".
	Name string
	// Start is the timestamp of Values[0].
	Start time.Time
	// Freq is the sampling frequency.
	Freq Frequency
	// Values holds the observations; NaN means missing.
	Values []float64
}

// New returns a Series with the given identity and values. The values
// slice is used directly (not copied).
func New(name string, start time.Time, freq Frequency, values []float64) *Series {
	return &Series{Name: name, Start: start, Freq: freq, Values: values}
}

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.Values) }

// TimeAt returns the timestamp of observation i.
func (s *Series) TimeAt(i int) time.Time {
	return s.Start.Add(time.Duration(i) * s.Freq.Step())
}

// End returns the timestamp one step past the last observation.
func (s *Series) End() time.Time { return s.TimeAt(s.Len()) }

// Clone returns a deep copy.
func (s *Series) Clone() *Series {
	v := make([]float64, len(s.Values))
	copy(v, s.Values)
	return &Series{Name: s.Name, Start: s.Start, Freq: s.Freq, Values: v}
}

// Slice returns a view-copy of observations [from, to).
// It panics on an invalid range.
func (s *Series) Slice(from, to int) *Series {
	if from < 0 || to > s.Len() || from > to {
		panic(fmt.Sprintf("timeseries: invalid slice [%d,%d) of %d", from, to, s.Len()))
	}
	v := make([]float64, to-from)
	copy(v, s.Values[from:to])
	return &Series{Name: s.Name, Start: s.TimeAt(from), Freq: s.Freq, Values: v}
}

// MissingCount returns the number of NaN observations.
func (s *Series) MissingCount() int {
	n := 0
	for _, v := range s.Values {
		if math.IsNaN(v) {
			n++
		}
	}
	return n
}

// HasMissing reports whether any observation is NaN.
func (s *Series) HasMissing() bool { return s.MissingCount() > 0 }

// Interpolate fills missing (NaN) observations in place by linear
// interpolation between the nearest known neighbours; leading and trailing
// gaps are filled by nearest-value extension. This is the gap-repair stage
// of the paper's Figure 4 ("a linear interpolation exercise is carried out
// to fill in the gaps based on known data points").
// It returns the number of values filled, or an error if every value is
// missing.
func (s *Series) Interpolate() (int, error) {
	n := len(s.Values)
	if n == 0 {
		return 0, nil
	}
	// Locate the first known value.
	first := -1
	for i, v := range s.Values {
		if !math.IsNaN(v) {
			first = i
			break
		}
	}
	if first == -1 {
		return 0, fmt.Errorf("timeseries: series %q is entirely missing", s.Name)
	}
	filled := 0
	// Leading gap: extend the first known value backwards.
	for i := 0; i < first; i++ {
		s.Values[i] = s.Values[first]
		filled++
	}
	last := first
	for i := first + 1; i < n; i++ {
		if math.IsNaN(s.Values[i]) {
			continue
		}
		if i > last+1 {
			// Interior gap (last, i): interpolate linearly.
			lo, hi := s.Values[last], s.Values[i]
			span := float64(i - last)
			for j := last + 1; j < i; j++ {
				frac := float64(j-last) / span
				s.Values[j] = lo + frac*(hi-lo)
				filled++
			}
		}
		last = i
	}
	// Trailing gap: extend the last known value forwards.
	for i := last + 1; i < n; i++ {
		s.Values[i] = s.Values[last]
		filled++
	}
	return filled, nil
}

// Split divides the series into train and test segments with the given
// test length, per the paper's Table 1 (e.g. 1008 hourly observations →
// 984 train + 24 test).
func (s *Series) Split(testLen int) (train, test *Series, err error) {
	if testLen <= 0 || testLen >= s.Len() {
		return nil, nil, fmt.Errorf("timeseries: invalid test length %d for series of %d", testLen, s.Len())
	}
	cut := s.Len() - testLen
	return s.Slice(0, cut), s.Slice(cut, s.Len()), nil
}
