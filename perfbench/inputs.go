package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/agent"
	"repro/internal/dbsim"
	"repro/internal/ingest"
	"repro/internal/metricstore"
	"repro/internal/planner"
	"repro/internal/workload"
)

const (
	// pollInterval and failureRate are the paper's agent: 15-minute polls,
	// 1% of them missed.
	pollInterval = 15 * time.Minute
	failureRate  = 0.01
	// batchLimit is the shipper's default batch size (ingest.ShipperConfig).
	batchLimit = 500
)

// spec sizes one workload's inputs.
type spec struct {
	// Clusters alternate the paper's OLTP and OLAP configurations; each
	// has two instances × three metrics = six targets.
	Clusters    int
	HistoryDays int
	// ReplayHours is the serve replay after the history (0 = none). A
	// workload that replays simulates its history with the same seeds in
	// every run (cluster i: seed i+1) and only the replay with the run's
	// seed, so every run trains the same champions and the seed draws
	// the served hours.
	ReplayHours int
	// ShiftFrom is the replay hour from which every replayed sample is
	// multiplied by ShiftFactor (negative = no shift).
	ShiftFrom   int
	ShiftFactor float64
	// Compacts requires the history load to rotate WAL segments and
	// compact them into snapshots.
	Compacts bool
}

// hour is one simulated hour of the fleet's agent feed, pre-encoded as
// the remote-write batches that carry it.
type hour struct {
	bodies  [][]byte
	samples []int // samples in each body
	// batchOf maps a cluster index to the body carrying its samples.
	batchOf []int
}

// inputs is everything a workload feeds the program, generated from the
// seed before any timing starts.
type inputs struct {
	spec            spec
	start, trainEnd time.Time
	history         []hour
	replay          []hour
	// clusterOf maps an instance name to its cluster index.
	clusterOf map[string]int
	// backups are the daily backup jobs of the whole fleet, indexed by
	// instance position in sorted order (the planner's cluster view).
	backups []planner.BackupInfo
}

// sampleSink is the agent's in-memory delivery target.
type sampleSink struct{ buf []metricstore.Sample }

func (s *sampleSink) Put(smp metricstore.Sample) { s.buf = append(s.buf, smp) }

// generate simulates the fleet's agents over the history and the replay
// and encodes their feed. History hours pack whole clusters into batches
// of at most batchLimit samples; replay hours ship one batch per cluster.
func generate(sp spec, seed uint64) (*inputs, error) {
	in := &inputs{
		spec:      sp,
		start:     workload.DefaultStart,
		clusterOf: make(map[string]int),
	}
	in.trainEnd = in.start.Add(time.Duration(sp.HistoryDays) * 24 * time.Hour)
	sink := &sampleSink{}
	history := make([]*agent.Agent, sp.Clusters)
	replay := make([]*agent.Agent, sp.Clusters)
	node := 0
	for i := range history {
		hs := seed + uint64(i)
		if sp.ReplayHours > 0 {
			hs = uint64(i) + 1
		}
		c, ag, err := cluster(i, hs, sink)
		if err != nil {
			return nil, err
		}
		history[i] = ag
		for _, name := range c.Instances() {
			in.clusterOf[name] = i
		}
		for _, b := range planner.BackupInfos(c, dbsim.CPU) {
			b.Index = len(in.backups)
			b.Node += node
			in.backups = append(in.backups, b)
		}
		node += len(c.Instances())
		if _, replay[i], err = cluster(i, seed+uint64(i), sink); err != nil {
			return nil, err
		}
	}
	t := in.start
	for h := 0; h < sp.HistoryDays*24; h++ {
		hr, err := collectHour(history, sink, t, 1, batchLimit)
		if err != nil {
			return nil, err
		}
		in.history = append(in.history, hr)
		t = t.Add(time.Hour)
	}
	for h := 0; h < sp.ReplayHours; h++ {
		factor := 1.0
		if sp.ShiftFrom >= 0 && h >= sp.ShiftFrom {
			factor = sp.ShiftFactor
		}
		hr, err := collectHour(replay, sink, t, factor, 0)
		if err != nil {
			return nil, err
		}
		in.replay = append(in.replay, hr)
		t = t.Add(time.Hour)
	}
	return in, nil
}

// cluster simulates the fleet's i-th cluster with seed — the OLTP
// configuration for even i, OLAP for odd, instance names prefixed with
// the cluster number — and an agent polling it into sink.
func cluster(i int, seed uint64, sink agent.Sink) (*dbsim.Cluster, *agent.Agent, error) {
	cfg := workload.OLTPConfig(seed)
	if i%2 == 1 {
		cfg = workload.OLAPConfig(seed)
	}
	names := make([]string, len(cfg.InstanceNames))
	for j, n := range cfg.InstanceNames {
		names[j] = fmt.Sprintf("c%03d-%s", i, n)
	}
	cfg.InstanceNames = names
	c, err := dbsim.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	// The agent's missed polls are seeded apart from the noise.
	ag, err := agent.New(agent.Config{Interval: pollInterval, FailureRate: failureRate, Seed: seed + 1}, c, sink)
	return c, ag, err
}

// collectHour polls every cluster over [t, t+1h), scales the samples by
// factor, and encodes them: whole clusters packed up to limit samples per
// batch, or one batch per cluster when limit is 0.
func collectHour(agents []*agent.Agent, sink *sampleSink, t time.Time, factor float64, limit int) (hour, error) {
	hr := hour{batchOf: make([]int, len(agents))}
	var pending []metricstore.Sample
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		var buf bytes.Buffer
		if err := ingest.EncodeBatch(&buf, pending); err != nil {
			return err
		}
		hr.bodies = append(hr.bodies, buf.Bytes())
		hr.samples = append(hr.samples, len(pending))
		pending = pending[:0]
		return nil
	}
	for i, ag := range agents {
		sink.buf = sink.buf[:0]
		if _, _, err := ag.Collect(t, t.Add(time.Hour)); err != nil {
			return hr, err
		}
		if limit == 0 || len(pending)+len(sink.buf) > limit {
			if err := flush(); err != nil {
				return hr, err
			}
		}
		for _, smp := range sink.buf {
			smp.Value *= factor
			pending = append(pending, smp)
		}
		hr.batchOf[i] = len(hr.bodies)
	}
	return hr, flush()
}
