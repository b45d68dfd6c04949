// Package dbsim simulates the paper's experimental environment (§6.1,
// Figure 5): an N-tier architecture with a clustered database whose load
// is shared between nodes, driven by OLAP or OLTP workloads, with
// housekeeping backups that shock the metrics.
//
// The paper ran Swingbench TPC-H/TPC-E-like workloads on a two-node
// Oracle cluster; this package reproduces the *observable* behaviour —
// the CPU, memory and logical-IOPS time series per instance — from a
// session-based resource cost model. The substitution is sound for the
// reproduction because the forecasting layer only ever consumes those
// series (see DESIGN.md §2).
//
// Sampling is a pure function of (instance, metric, time) given the
// cluster configuration and seed, so any component can sample any instant
// without simulation state, and repeated runs are exactly reproducible.
package dbsim

import (
	"fmt"
	"math"
	"time"
)

// Metric enumerates the key metrics the paper captures (§5.1: "key
// metrics (CPU, IOPS and Memory)").
type Metric int

const (
	// CPU is host CPU utilisation in percent (0–100 per instance).
	CPU Metric = iota
	// MemoryMB is database memory consumption in megabytes.
	MemoryMB
	// LogicalIOPS is logical I/O operations per second.
	LogicalIOPS
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case CPU:
		return "cpu"
	case MemoryMB:
		return "memory"
	case LogicalIOPS:
		return "logical_iops"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// AllMetrics lists the captured metrics in display order.
var AllMetrics = []Metric{CPU, MemoryMB, LogicalIOPS}

// SessionProfile is the per-session resource cost model: how much of each
// resource one connected session consumes on average while active.
type SessionProfile struct {
	// CPUPct is CPU percent consumed per active session.
	CPUPct float64
	// MemMB is memory held per connected session.
	MemMB float64
	// IOPS is logical reads per second issued per active session.
	IOPS float64
}

// Surge is a recurring intraday step in connected users — the paper's
// §6.2 "Surges in users are introduced twice daily at 07:00am of 1000
// users for a period of 4 hours and again at 9am for another 1000 users
// for a period of 1 hour".
type Surge struct {
	// StartHour is the hour of day (0–23) the surge begins.
	StartHour int
	// Duration is how long the extra users stay connected.
	Duration time.Duration
	// Users is the size of the surge.
	Users float64
}

// BackupJob is a scheduled housekeeping task — the paper's shock source
// ("a Recovery Manager backup … prevents the database redo logs from
// filling up the disc drives"). It runs on a single node.
type BackupJob struct {
	// Node is the index of the instance that executes the backup.
	Node int
	// Every is the schedule interval measured from midnight (e.g. 6h
	// gives runs at 00:00, 06:00, 12:00, 18:00; 24h gives midnight only).
	Every time.Duration
	// Offset shifts the whole schedule from its midnight anchor (e.g.
	// Every 24h + Offset 3h runs at 03:00 nightly). Must sit in
	// [0, 24h); the planner's valley scheduling rewrites it.
	Offset time.Duration
	// Duration is how long one backup runs.
	Duration time.Duration
	// CPUPct, IOPS, MemMB are the extra load while running.
	CPUPct float64
	IOPS   float64
	MemMB  float64
}

// WorkloadKind labels the driver shape.
type WorkloadKind int

const (
	// OLAP mirrors Experiment One: a modest fixed user population running
	// long IO-heavy queries with a daily activity cycle (TPC-H-like).
	OLAP WorkloadKind = iota
	// OLTP mirrors Experiment Two: a growing user base with logon surges
	// and multiple seasonality (TPC-E-like).
	OLTP
)

// Workload describes the driver: the connected-user process and the
// per-session costs.
type Workload struct {
	Kind WorkloadKind
	// BaseUsers is the initial connected-user count.
	BaseUsers float64
	// UserGrowthPerDay adds users linearly — the paper's "increasing the
	// user base by 50 users per day" (0 for OLAP).
	UserGrowthPerDay float64
	// DailyAmplitude scales the intraday activity cycle in [0,1]: at 1
	// the off-peak trough idles most sessions.
	DailyAmplitude float64
	// WeeklyAmplitude scales a weekday/weekend cycle in [0,1].
	WeeklyAmplitude float64
	// PeakHour is the hour of maximum intraday activity.
	PeakHour float64
	// Surges lists intraday user surges.
	Surges []Surge
	// Profile is the per-session cost model.
	Profile SessionProfile
	// DatasetGrowthPerDay inflates per-session IO over time — the paper's
	// "the data set becomes bigger and thus code execution times
	// lengthen" (fractional growth per day, e.g. 0.01 = +1 %/day).
	DatasetGrowthPerDay float64
	// NoiseFrac is the multiplicative sampling-noise standard deviation.
	NoiseFrac float64
}

// Config assembles a simulated cluster.
type Config struct {
	// InstanceNames names the nodes; the paper's cluster is
	// ["cdbm011", "cdbm012"].
	InstanceNames []string
	// BaselineCPUPct, BaselineMemMB, BaselineIOPS are the per-instance
	// idle consumption (background processes, SGA overhead).
	BaselineCPUPct float64
	BaselineMemMB  float64
	BaselineIOPS   float64
	// Workload is the driver.
	Workload Workload
	// Backups lists scheduled shock jobs.
	Backups []BackupJob
	// Failovers lists failover events (§4.2 shocks).
	Failovers []FailoverEvent
	// Start anchors the simulation clock.
	Start time.Time
	// Seed makes the noise reproducible.
	Seed uint64
	// LoadSkew tilts the load balancer: node i receives share
	// (1 + skew_i)/Σ. Empty means an even split. The paper's instances
	// show mildly different magnitudes.
	LoadSkew []float64
}

// Cluster is a simulated clustered database.
type Cluster struct {
	cfg    Config
	shares []float64
}

// New validates the configuration and builds a Cluster.
func New(cfg Config) (*Cluster, error) {
	n := len(cfg.InstanceNames)
	if n == 0 {
		return nil, fmt.Errorf("dbsim: need at least one instance")
	}
	if cfg.Start.IsZero() {
		return nil, fmt.Errorf("dbsim: zero start time")
	}
	if len(cfg.LoadSkew) != 0 && len(cfg.LoadSkew) != n {
		return nil, fmt.Errorf("dbsim: LoadSkew has %d entries for %d instances", len(cfg.LoadSkew), n)
	}
	for _, b := range cfg.Backups {
		if b.Node < 0 || b.Node >= n {
			return nil, fmt.Errorf("dbsim: backup node %d out of range", b.Node)
		}
		if b.Every <= 0 || b.Duration <= 0 {
			return nil, fmt.Errorf("dbsim: backup schedule must be positive")
		}
		if b.Offset < 0 || b.Offset >= 24*time.Hour {
			return nil, fmt.Errorf("dbsim: backup offset %v outside [0, 24h)", b.Offset)
		}
	}
	if err := validateFailovers(cfg.Failovers, n); err != nil {
		return nil, err
	}
	w := cfg.Workload
	if w.BaseUsers < 0 || w.UserGrowthPerDay < 0 {
		return nil, fmt.Errorf("dbsim: negative user population")
	}
	if w.DailyAmplitude < 0 || w.DailyAmplitude > 1 || w.WeeklyAmplitude < 0 || w.WeeklyAmplitude > 1 {
		return nil, fmt.Errorf("dbsim: amplitudes must be in [0,1]")
	}
	shares := make([]float64, n)
	var total float64
	for i := range shares {
		s := 1.0
		if len(cfg.LoadSkew) == n {
			s += cfg.LoadSkew[i]
		}
		if s <= 0 {
			return nil, fmt.Errorf("dbsim: LoadSkew[%d] makes share non-positive", i)
		}
		shares[i] = s
		total += s
	}
	for i := range shares {
		shares[i] /= total
	}
	return &Cluster{cfg: cfg, shares: shares}, nil
}

// Instances returns the node names.
func (c *Cluster) Instances() []string {
	return append([]string(nil), c.cfg.InstanceNames...)
}

// Start returns the simulation epoch.
func (c *Cluster) Start() time.Time { return c.cfg.Start }

// ConnectedUsers returns the cluster-wide connected-user count at t
// (before load balancing), combining base population, linear growth,
// and surge steps.
func (c *Cluster) ConnectedUsers(t time.Time) float64 {
	w := c.cfg.Workload
	days := t.Sub(c.cfg.Start).Hours() / 24
	if days < 0 {
		days = 0
	}
	users := w.BaseUsers + w.UserGrowthPerDay*days
	for _, s := range w.Surges {
		if c.surgeActive(s, t) {
			users += s.Users
		}
	}
	return users
}

func (c *Cluster) surgeActive(s Surge, t time.Time) bool {
	dayStart := time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, t.Location())
	begin := dayStart.Add(time.Duration(s.StartHour) * time.Hour)
	return !t.Before(begin) && t.Before(begin.Add(s.Duration))
}

// activity returns the intraday/weekly activity multiplier in (0, 1]:
// how busy the average connected session is at t.
func (c *Cluster) activity(t time.Time) float64 {
	w := c.cfg.Workload
	hour := float64(t.Hour()) + float64(t.Minute())/60
	// Intraday cycle peaking at PeakHour.
	daily := 1 - w.DailyAmplitude*0.5*(1-math.Cos(2*math.Pi*(hour-w.PeakHour)/24))
	// Weekly cycle: trough at the weekend.
	dow := float64(t.Weekday()) // Sunday = 0
	weekly := 1 - w.WeeklyAmplitude*0.5*(1-math.Cos(2*math.Pi*(dow-3)/7))
	v := daily * weekly
	if v < 0.02 {
		v = 0.02
	}
	return v
}

// backupActive reports whether job b runs at t. The schedule anchors at
// midnight plus the job's Offset; an early-morning t can still fall in
// the tail of the previous day's cycle, so the anchor steps back a day
// when t precedes it.
func backupActive(b BackupJob, dayAnchor, t time.Time) bool {
	anchor := dayAnchor.Add(b.Offset)
	if t.Before(anchor) {
		anchor = anchor.Add(-24 * time.Hour)
		if t.Before(anchor) {
			return false
		}
	}
	phase := t.Sub(anchor) % b.Every
	return phase < b.Duration
}

// BackupLoad returns the extra (cpu, iops, mem) on instance node at t.
func (c *Cluster) BackupLoad(node int, t time.Time) (cpu, iops, mem float64) {
	dayAnchor := time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, t.Location())
	for _, b := range c.cfg.Backups {
		if b.Node != node {
			continue
		}
		if backupActive(b, dayAnchor, t) {
			cpu += b.CPUPct
			iops += b.IOPS
			mem += b.MemMB
		}
	}
	return
}

// BackupActiveAt reports whether any backup runs on node at t — exposed
// so the engine can build exogenous regressors from the schedule it
// "knows about" (the paper's understood shocks).
//
// capplan:keep test fixture: the simulator's backup tests assert through it.
func (c *Cluster) BackupActiveAt(node int, t time.Time) bool {
	cpu, iops, mem := c.BackupLoad(node, t)
	return cpu > 0 || iops > 0 || mem > 0
}

// Backups returns a copy of the configured backup jobs.
func (c *Cluster) Backups() []BackupJob {
	return append([]BackupJob(nil), c.cfg.Backups...)
}

// sessionDemand returns the load `users` connected sessions place on the
// cluster for one metric at t: the demand term of Sample, linear in
// users, before baselines, backups, storms or noise.
func (c *Cluster) sessionDemand(metric Metric, users float64, t time.Time) (float64, error) {
	w := c.cfg.Workload
	act := c.activity(t)
	days := t.Sub(c.cfg.Start).Hours() / 24
	if days < 0 {
		days = 0
	}
	datasetFactor := 1 + w.DatasetGrowthPerDay*days
	switch metric {
	case CPU:
		return users * act * w.Profile.CPUPct * math.Sqrt(datasetFactor), nil
	case MemoryMB:
		// Memory follows connections (held while logged on), modulated
		// weakly by activity (work areas).
		return users * w.Profile.MemMB * (0.8 + 0.2*act), nil
	case LogicalIOPS:
		return users * act * w.Profile.IOPS * datasetFactor, nil
	default:
		return 0, fmt.Errorf("dbsim: unknown metric %d", int(metric))
	}
}

// Demand returns the cluster-wide session demand for a metric at t: the
// load the whole connected-user population presents before it is split
// across instances, excluding per-instance baselines, backups and
// reconnection storms. Demand is invariant under reconfiguration — the
// same users arrive however many instances serve them — which is what
// lets the planner size an instance count against it.
func (c *Cluster) Demand(metric Metric, t time.Time) (float64, error) {
	return c.sessionDemand(metric, c.ConnectedUsers(t), t)
}

// Baseline returns the per-instance idle consumption for a metric.
func (c *Cluster) Baseline(metric Metric) (float64, error) {
	switch metric {
	case CPU:
		return c.cfg.BaselineCPUPct, nil
	case MemoryMB:
		return c.cfg.BaselineMemMB, nil
	case LogicalIOPS:
		return c.cfg.BaselineIOPS, nil
	default:
		return 0, fmt.Errorf("dbsim: unknown metric %d", int(metric))
	}
}

// Sample returns the value of the metric on instance node at time t.
// It is deterministic in (cfg, node, metric, t).
func (c *Cluster) Sample(node int, metric Metric, t time.Time) (float64, error) {
	if node < 0 || node >= len(c.cfg.InstanceNames) {
		return 0, fmt.Errorf("dbsim: instance %d out of range", node)
	}
	w := c.cfg.Workload
	users := c.ConnectedUsers(t) * c.shareAt(node, t)
	demand, err := c.sessionDemand(metric, users, t)
	if err != nil {
		return 0, err
	}
	base, err := c.Baseline(metric)
	if err != nil {
		return 0, err
	}

	bCPU, bIOPS, bMem := c.BackupLoad(node, t)
	sCPU, sIOPS := c.stormLoad(node, t)
	switch metric {
	case CPU:
		demand += bCPU + sCPU
	case LogicalIOPS:
		demand += bIOPS + sIOPS
	case MemoryMB:
		demand += bMem
	}

	v := base + demand
	// Multiplicative noise, deterministic per (node, metric, tick).
	if w.NoiseFrac > 0 {
		tick := uint64(t.Unix())
		z := gaussian(hash3(c.cfg.Seed, uint64(node)<<8|uint64(metric), tick))
		v *= 1 + w.NoiseFrac*z
	}
	if v < 0 {
		v = 0
	}
	// CPU saturates at 100%.
	if metric == CPU && v > 100 {
		v = 100
	}
	return v, nil
}

// hash3 mixes three words with splitmix64 to a uniform uint64.
func hash3(a, b, c uint64) uint64 {
	x := a ^ 0x9e3779b97f4a7c15
	x = splitmix(x + b)
	x = splitmix(x + c)
	return splitmix(x)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// gaussian maps a uniform uint64 to an approximately standard normal
// value via the sum of 4 uniforms (Irwin-Hall, matched variance), which
// is plenty for workload noise.
func gaussian(u uint64) float64 {
	var s float64
	for i := 0; i < 4; i++ {
		part := (u >> (i * 16)) & 0xffff
		s += float64(part)/65535 - 0.5
	}
	// Var of one uniform(-0.5, 0.5) is 1/12; of the sum is 4/12 = 1/3.
	return s * math.Sqrt(3)
}
