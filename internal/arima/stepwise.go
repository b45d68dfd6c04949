package arima

import (
	"fmt"
	"math"
)

// StepwiseOptions tunes the Hyndman-Khandakar stepwise search.
type StepwiseOptions struct {
	// Seasonal enables the seasonal orders with period S.
	Seasonal bool
	// S is the seasonal period (required when Seasonal).
	S int
	// D and SD fix the differencing orders (found beforehand with
	// ADF/strength tests, as the engine does).
	D, SD int
	// MaxP, MaxQ, MaxSP, MaxSQ bound the search (0 → 5, 5, 2, 2).
	MaxP, MaxQ, MaxSP, MaxSQ int
	// MaxSteps bounds the number of moves (0 → 94, the R default).
	MaxSteps int
	// Fit forwards estimation options.
	Fit FitOptions
}

func (o StepwiseOptions) maxP() int {
	if o.MaxP <= 0 {
		return 5
	}
	return o.MaxP
}
func (o StepwiseOptions) maxQ() int {
	if o.MaxQ <= 0 {
		return 5
	}
	return o.MaxQ
}
func (o StepwiseOptions) maxSP() int {
	if o.MaxSP <= 0 {
		return 2
	}
	return o.MaxSP
}
func (o StepwiseOptions) maxSQ() int {
	if o.MaxSQ <= 0 {
		return 2
	}
	return o.MaxSQ
}
func (o StepwiseOptions) maxSteps() int {
	if o.MaxSteps <= 0 {
		return 94
	}
	return o.MaxSteps
}

// StepwiseResult reports a stepwise search outcome.
type StepwiseResult struct {
	Model  *Model
	Tried  int // models fitted
	Cached int // moves skipped because the spec was already visited
}

// Stepwise runs the Hyndman-Khandakar stepwise order search: start from
// a small set of initial orders, then repeatedly move to the neighbour
// (±1 on one of p, q, P, Q) with the best AIC until no neighbour
// improves. It fits far fewer models than the §6.3 grids while usually
// finding the same champion class — the alternative "tuning" the
// engine's ablation benches compare against.
//
// capplan:keep ablation: BenchmarkAblationStepwiseSearch measures it against the §6.3 grid.
func Stepwise(y []float64, exog [][]float64, opt StepwiseOptions) (*StepwiseResult, error) {
	if opt.Seasonal && opt.S < 2 {
		return nil, fmt.Errorf("arima: stepwise seasonal search needs S >= 2")
	}
	type key struct{ p, q, sp, sq int }
	visited := make(map[key]float64) // AIC per spec
	res := &StepwiseResult{}

	specFor := func(k key) Spec {
		s := Spec{P: k.p, D: opt.D, Q: k.q}
		if opt.Seasonal {
			s.SP = k.sp
			s.SD = opt.SD
			s.SQ = k.sq
			s.S = opt.S
		}
		return s
	}

	var bestModel *Model
	bestAIC := math.Inf(1)
	var bestKey key

	try := func(k key) {
		if k.p < 0 || k.q < 0 || k.sp < 0 || k.sq < 0 {
			return
		}
		if k.p > opt.maxP() || k.q > opt.maxQ() || k.sp > opt.maxSP() || k.sq > opt.maxSQ() {
			return
		}
		if _, seen := visited[k]; seen {
			res.Cached++
			return
		}
		sp := specFor(k)
		if sp.Validate() != nil {
			visited[k] = math.Inf(1)
			return
		}
		m, err := Fit(sp, y, exog, opt.Fit)
		res.Tried++
		if err != nil {
			visited[k] = math.Inf(1)
			return
		}
		visited[k] = m.AIC
		if m.AIC < bestAIC {
			bestAIC = m.AIC
			bestModel = m
			bestKey = k
		}
	}

	// Hyndman-Khandakar initial set.
	inits := []key{
		{2, 2, 1, 1},
		{0, 0, 0, 0},
		{1, 0, 1, 0},
		{0, 1, 0, 1},
	}
	if !opt.Seasonal {
		inits = []key{{2, 2, 0, 0}, {0, 0, 0, 0}, {1, 0, 0, 0}, {0, 1, 0, 0}}
	}
	for _, k := range inits {
		try(k)
	}
	if bestModel == nil {
		return nil, fmt.Errorf("arima: stepwise search could not fit any initial model")
	}

	for step := 0; step < opt.maxSteps(); step++ {
		cur := bestKey
		neighbours := []key{
			{cur.p + 1, cur.q, cur.sp, cur.sq},
			{cur.p - 1, cur.q, cur.sp, cur.sq},
			{cur.p, cur.q + 1, cur.sp, cur.sq},
			{cur.p, cur.q - 1, cur.sp, cur.sq},
			{cur.p + 1, cur.q + 1, cur.sp, cur.sq},
			{cur.p - 1, cur.q - 1, cur.sp, cur.sq},
		}
		if opt.Seasonal {
			neighbours = append(neighbours,
				key{cur.p, cur.q, cur.sp + 1, cur.sq},
				key{cur.p, cur.q, cur.sp - 1, cur.sq},
				key{cur.p, cur.q, cur.sp, cur.sq + 1},
				key{cur.p, cur.q, cur.sp, cur.sq - 1},
				key{cur.p, cur.q, cur.sp + 1, cur.sq + 1},
				key{cur.p, cur.q, cur.sp - 1, cur.sq - 1},
			)
		}
		prevBest := bestAIC
		for _, nb := range neighbours {
			try(nb)
		}
		if bestAIC >= prevBest {
			break // no neighbour improved: local optimum
		}
	}
	res.Model = bestModel
	return res, nil
}
