// Package workload provides the paper's two experimental workloads as
// ready-made simulator configurations (§6.2, §7.1, §7.2) plus pure
// synthetic series generators used by unit tests and examples.
//
// Experiment One (OLAP): 40 users running TPC-H-like long IO-heavy
// queries with a daily activity cycle, modest growth from an expanding
// dataset, and a nightly midnight backup on node 1 — challenges C1
// (seasonality) and C4 (shocks).
//
// Experiment Two (OLTP): a TPC-E-like system whose user base grows by 50
// users/day, with logon surges at 07:00 (+1000 users, 4 h) and 09:00
// (+1000 users, 1 h), and 6-hourly backups — challenges C1–C4 including
// multiple seasonality and trend.
package workload

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/dbsim"
)

// DefaultStart anchors the experiments on a Monday so weekly effects are
// phase-stable across runs.
var DefaultStart = time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC)

// OLAPConfig returns the Experiment One cluster configuration.
func OLAPConfig(seed uint64) dbsim.Config {
	return dbsim.Config{
		InstanceNames:  []string{"cdbm011", "cdbm012"},
		BaselineCPUPct: 4,
		BaselineMemMB:  900,
		BaselineIOPS:   5000,
		Workload: dbsim.Workload{
			Kind:      dbsim.OLAP,
			BaseUsers: 40,
			// OLAP sessions are few but heavy: long scans, hash joins.
			Profile: dbsim.SessionProfile{
				CPUPct: 0.9,
				MemMB:  60,
				IOPS:   28000,
			},
			DailyAmplitude: 0.75,
			PeakHour:       13,
			// §7.1: "The dataset grew by several GB per hour" — execution
			// cost inflates slowly (growth/trend, challenge C2-lite).
			DatasetGrowthPerDay: 0.012,
			NoiseFrac:           0.05,
		},
		Backups: []dbsim.BackupJob{{
			// §7.1: backup "executed from Node 1 at midnight every night,
			// which also contributed to IO, CPU and Memory".
			Node:     0,
			Every:    24 * time.Hour,
			Duration: 90 * time.Minute,
			CPUPct:   18,
			IOPS:     900000,
			MemMB:    400,
		}},
		Start: DefaultStart,
		Seed:  seed,
		// The paper's two instances show different magnitudes
		// (cdbm011 carries the backup and a touch more load).
		LoadSkew: []float64{0.06, -0.06},
	}
}

// OLTPConfig returns the Experiment Two cluster configuration.
func OLTPConfig(seed uint64) dbsim.Config {
	return dbsim.Config{
		InstanceNames:  []string{"cdbm011", "cdbm012"},
		BaselineCPUPct: 5,
		BaselineMemMB:  1200,
		BaselineIOPS:   8000,
		Workload: dbsim.Workload{
			Kind:      dbsim.OLTP,
			BaseUsers: 400,
			// §7.2: "increasing the user base by 50 users per day".
			UserGrowthPerDay: 50,
			Profile: dbsim.SessionProfile{
				CPUPct: 0.018,
				MemMB:  3.5,
				IOPS:   900,
			},
			DailyAmplitude:  0.6,
			WeeklyAmplitude: 0.25,
			PeakHour:        11,
			Surges: []dbsim.Surge{
				// §7.2: "Surges in users are introduced twice daily at
				// 07:00am of 1000 users for a period of 4 hours and again
				// at 9am for another 1000 users for a period of 1 hour."
				{StartHour: 7, Duration: 4 * time.Hour, Users: 1000},
				{StartHour: 9, Duration: 1 * time.Hour, Users: 1000},
			},
			DatasetGrowthPerDay: 0.004,
			NoiseFrac:           0.04,
		},
		Backups: []dbsim.BackupJob{{
			// §6.3: "several shocks in the form of backups that run every
			// 6 hours (4 exogenous variables)".
			Node:     0,
			Every:    6 * time.Hour,
			Duration: 45 * time.Minute,
			CPUPct:   12,
			IOPS:     700000,
			MemMB:    250,
		}},
		Start:    DefaultStart,
		Seed:     seed,
		LoadSkew: []float64{0.05, -0.05},
	}
}

// Synthetic series generators for unit-level work.

// SyntheticOpts shapes a generated series.
type SyntheticOpts struct {
	N        int
	Level    float64
	Trend    float64   // per-step increment
	Periods  []int     // seasonal periods
	Amps     []float64 // amplitude per period
	Noise    float64   // white-noise standard deviation
	ShockAt  []int     // indices of pulse shocks
	ShockAmp float64
	Seed     int64
}

// Synthetic generates level + trend + sums of sinusoids + pulses + noise.
func Synthetic(o SyntheticOpts) []float64 {
	rng := rand.New(rand.NewSource(o.Seed))
	y := make([]float64, o.N)
	shock := make(map[int]bool, len(o.ShockAt))
	for _, i := range o.ShockAt {
		shock[i] = true
	}
	for i := range y {
		v := o.Level + o.Trend*float64(i)
		for j, p := range o.Periods {
			amp := 1.0
			if j < len(o.Amps) {
				amp = o.Amps[j]
			}
			v += amp * math.Sin(2*math.Pi*float64(i)/float64(p))
		}
		if shock[i] {
			v += o.ShockAmp
		}
		v += o.Noise * rng.NormFloat64()
		y[i] = v
	}
	return y
}

// DailySeasonal is shorthand for an hourly series with one daily season.
//
// capplan:keep test fixture: it generates the golden-digest series in the core, dbsim and workload tests.
func DailySeasonal(n int, level, amp, trend, noise float64, seed int64) []float64 {
	return Synthetic(SyntheticOpts{
		N: n, Level: level, Trend: trend,
		Periods: []int{24}, Amps: []float64{amp},
		Noise: noise, Seed: seed,
	})
}
