package optimize

import (
	"context"
	"errors"
	"testing"
)

func TestNelderMeadAbortStopsEarly(t *testing.T) {
	evals := 0
	f := func(x []float64) float64 {
		evals++
		return (x[0]-3)*(x[0]-3) + (x[1]+1)*(x[1]+1)
	}
	r := NelderMead(f, []float64{0, 0}, NelderMeadOptions{
		Abort: func() bool { return true },
	})
	if !r.Aborted {
		t.Fatal("Abort hook tripped but Result.Aborted is false")
	}
	if r.Converged {
		t.Fatal("an aborted search must not report convergence")
	}
	// Only the initial simplex plus at most one operation may evaluate
	// before the per-iteration check fires.
	if evals > 3*abortCheckEvery {
		t.Fatalf("aborted search ran %d evaluations", evals)
	}
}

func TestNelderMeadAbortMidSearch(t *testing.T) {
	// Trip after a fixed number of evaluations: the search must stop
	// within one simplex operation of the trip, not run to MaxIter.
	n := 0
	r := NelderMead(func(x []float64) float64 {
		n++
		return x[0]*x[0] + x[1]*x[1]
	}, []float64{5, 5}, NelderMeadOptions{
		MaxIter: 100000,
		Abort:   func() bool { return n >= 40 },
	})
	if !r.Aborted {
		t.Fatal("mid-search abort not reported")
	}
	if n > 40+3*abortCheckEvery {
		t.Fatalf("search ran %d evaluations past the trip point", n)
	}
}

func TestNelderMeadNilAbortConverges(t *testing.T) {
	f := func(x []float64) float64 { return (x[0] - 2) * (x[0] - 2) }
	r := NelderMead(f, []float64{0}, NelderMeadOptions{})
	if r.Aborted || !r.Converged {
		t.Fatalf("aborted=%v converged=%v, want false/true", r.Aborted, r.Converged)
	}
}

func TestContextAbort(t *testing.T) {
	if ContextAbort(nil) != nil {
		t.Fatal("nil ctx should yield a nil hook")
	}
	ctx, cancel := context.WithCancel(context.Background())
	hook := ContextAbort(ctx)
	if hook() {
		t.Fatal("live ctx reported aborted")
	}
	cancel()
	if !hook() {
		t.Fatal("cancelled ctx not reported")
	}
}

func TestAbortCause(t *testing.T) {
	if err := AbortCause(nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("nil ctx cause = %v, want context.Canceled", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done()
	if err := AbortCause(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline ctx cause = %v, want context.DeadlineExceeded", err)
	}
}
