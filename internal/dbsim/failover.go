package dbsim

import (
	"fmt"
	"time"
)

// FailoverEvent models a cluster failover — the paper's §4.2 shock class
// ("a system that has a backup, batch jobs and that periodically fails
// over"): for the duration of the event, the From node's workload share
// moves to the To node, and the To node absorbs a brief reconnection
// storm (sessions re-establishing, caches re-warming).
type FailoverEvent struct {
	// From and To are instance indices.
	From, To int
	// At is the offset from the simulation start when the failover
	// begins.
	At time.Duration
	// Duration is how long the From node stays down.
	Duration time.Duration
	// StormDuration is the length of the reconnection storm on To
	// (0 → 15 minutes).
	StormDuration time.Duration
	// StormCPUPct and StormIOPS are the extra load during the storm.
	StormCPUPct float64
	StormIOPS   float64
}

func (f FailoverEvent) storm() time.Duration {
	if f.StormDuration <= 0 {
		return 15 * time.Minute
	}
	return f.StormDuration
}

// validateFailovers checks failover configuration against the cluster.
func validateFailovers(events []FailoverEvent, nInstances int) error {
	for i, f := range events {
		if f.From < 0 || f.From >= nInstances || f.To < 0 || f.To >= nInstances {
			return fmt.Errorf("dbsim: failover %d references invalid nodes (%d→%d)", i, f.From, f.To)
		}
		if f.From == f.To {
			return fmt.Errorf("dbsim: failover %d has From == To", i)
		}
		if f.At < 0 || f.Duration <= 0 {
			return fmt.Errorf("dbsim: failover %d has invalid timing", i)
		}
	}
	return nil
}

// failoverActive returns the active failover at t, if any.
func (c *Cluster) failoverActive(t time.Time) (FailoverEvent, bool) {
	since := t.Sub(c.cfg.Start)
	for _, f := range c.cfg.Failovers {
		if since >= f.At && since < f.At+f.Duration {
			return f, true
		}
	}
	return FailoverEvent{}, false
}

// shareAt returns node's load-balancer share at time t, accounting for an
// active failover (the From node serves nothing; its share moves to To).
func (c *Cluster) shareAt(node int, t time.Time) float64 {
	share := c.shares[node]
	f, active := c.failoverActive(t)
	if !active {
		return share
	}
	switch node {
	case f.From:
		return 0
	case f.To:
		return share + c.shares[f.From]
	default:
		return share
	}
}

// stormLoad returns the extra (cpu, iops) on node from a reconnection
// storm at t.
func (c *Cluster) stormLoad(node int, t time.Time) (cpu, iops float64) {
	since := t.Sub(c.cfg.Start)
	for _, f := range c.cfg.Failovers {
		if node != f.To {
			continue
		}
		if since >= f.At && since < f.At+f.storm() {
			cpu += f.StormCPUPct
			iops += f.StormIOPS
		}
	}
	return
}

// FailoverActiveAt reports whether node is failed over (down) at t.
//
// capplan:keep test fixture: the simulator's failover tests assert through it.
func (c *Cluster) FailoverActiveAt(node int, t time.Time) bool {
	f, active := c.failoverActive(t)
	return active && f.From == node
}
