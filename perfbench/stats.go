package main

import (
	"math"
	"sort"
	"time"
)

// dist collects one timed operation's durations, in seconds.
type dist struct {
	v []float64
}

func (d *dist) add(x time.Duration) { d.v = append(d.v, x.Seconds()) }

func (d *dist) n() int { return len(d.v) }

func (d *dist) mean() float64 { return ratio(d.sum(), float64(len(d.v))) }

func (d *dist) sum() float64 {
	s := 0.0
	for _, x := range d.v {
		s += x
	}
	return s
}

// q is the p-quantile (0 ≤ p ≤ 1) by linear interpolation between order
// statistics; 0 for an empty distribution.
func (d *dist) q(p float64) float64 { return quantile(d.v, p) }

func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
