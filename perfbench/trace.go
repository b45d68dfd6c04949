package main

import (
	"sort"
	"time"

	"repro/internal/obs"
)

// spanRollup is the per-layer self time a traced pass spent, by phase.
// Self time is a span's duration minus the part of it its children cover;
// children include remote-parented roots (the collector's ingest.receive
// continues the trace of the benchmark's bench.post).
type spanRollup struct {
	self  map[string]float64 // "phase/name" → seconds
	total map[string]float64 // "phase/name" → seconds, children included
	count map[string]int     // "phase/name" → spans
}

func rollupSpans(roots []*obs.Span, setupEnd time.Time) spanRollup {
	r := spanRollup{self: map[string]float64{}, total: map[string]float64{}, count: map[string]int{}}
	byID := make(map[obs.SpanID]*obs.Span)
	kids := make(map[*obs.Span][]*obs.Span)
	var all []*obs.Span
	var walk func(sp *obs.Span)
	walk = func(sp *obs.Span) {
		all = append(all, sp)
		byID[sp.Context().Span] = sp
		for _, c := range sp.Children() {
			kids[sp] = append(kids[sp], c)
			walk(c)
		}
	}
	for _, sp := range roots {
		walk(sp)
	}
	for _, sp := range roots {
		if parent, ok := byID[sp.ParentSpanID()]; ok && parent != sp {
			kids[parent] = append(kids[parent], sp)
		}
	}
	for _, sp := range all {
		phase := "replay"
		if sp.Start().Before(setupEnd) {
			phase = "setup"
		}
		key := phase + "/" + sp.Name()
		d := sp.Duration()
		r.total[key] += d.Seconds()
		r.self[key] += (d - covered(sp, kids[sp])).Seconds()
		r.count[key]++
	}
	return r
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent *obs.Span, children []*obs.Span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	lo, hi := parent.Start(), parent.Start().Add(parent.Duration())
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start(), c.Start().Add(c.Duration())
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var sum time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			sum += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	return sum + cur.b.Sub(cur.a)
}
