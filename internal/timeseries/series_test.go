package timeseries

import (
	"math"
	"testing"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestFrequencySteps(t *testing.T) {
	if Minute15.Step() != 15*time.Minute || Hourly.Step() != time.Hour ||
		Daily.Step() != 24*time.Hour || Weekly.Step() != 7*24*time.Hour {
		t.Fatal("frequency steps wrong")
	}
	if Hourly.Period() != 24 || Daily.Period() != 7 || Weekly.Period() != 52 || Minute15.Period() != 96 {
		t.Fatal("frequency periods wrong")
	}
	if Hourly.String() != "hourly" {
		t.Fatalf("String = %q", Hourly.String())
	}
}

func TestSeriesTimeAt(t *testing.T) {
	s := New("x", t0, Hourly, []float64{1, 2, 3})
	if !s.TimeAt(0).Equal(t0) {
		t.Fatal("TimeAt(0) wrong")
	}
	if !s.TimeAt(2).Equal(t0.Add(2 * time.Hour)) {
		t.Fatal("TimeAt(2) wrong")
	}
	if !s.End().Equal(t0.Add(3 * time.Hour)) {
		t.Fatal("End wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New("x", t0, Hourly, []float64{1, 2, 3})
	c := s.Clone()
	c.Values[0] = 99
	if s.Values[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestSlice(t *testing.T) {
	s := New("x", t0, Hourly, []float64{0, 1, 2, 3, 4})
	sub := s.Slice(1, 4)
	if sub.Len() != 3 || sub.Values[0] != 1 || sub.Values[2] != 3 {
		t.Fatalf("Slice values wrong: %v", sub.Values)
	}
	if !sub.Start.Equal(t0.Add(time.Hour)) {
		t.Fatal("Slice start wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid slice should panic")
			}
		}()
		s.Slice(3, 2)
	}()
}

func TestInterpolateInterior(t *testing.T) {
	nan := math.NaN()
	s := New("x", t0, Hourly, []float64{1, nan, nan, 4})
	filled, err := s.Interpolate()
	if err != nil {
		t.Fatal(err)
	}
	if filled != 2 {
		t.Fatalf("filled = %d, want 2", filled)
	}
	want := []float64{1, 2, 3, 4}
	for i := range want {
		if math.Abs(s.Values[i]-want[i]) > 1e-12 {
			t.Fatalf("Values = %v, want %v", s.Values, want)
		}
	}
}

func TestInterpolateEdges(t *testing.T) {
	nan := math.NaN()
	s := New("x", t0, Hourly, []float64{nan, nan, 5, 6, nan})
	filled, err := s.Interpolate()
	if err != nil {
		t.Fatal(err)
	}
	if filled != 3 {
		t.Fatalf("filled = %d, want 3", filled)
	}
	want := []float64{5, 5, 5, 6, 6}
	for i := range want {
		if s.Values[i] != want[i] {
			t.Fatalf("Values = %v, want %v", s.Values, want)
		}
	}
}

func TestInterpolateAllMissing(t *testing.T) {
	nan := math.NaN()
	s := New("x", t0, Hourly, []float64{nan, nan})
	if _, err := s.Interpolate(); err == nil {
		t.Fatal("expected error for all-missing series")
	}
}

func TestInterpolateNoMissing(t *testing.T) {
	s := New("x", t0, Hourly, []float64{1, 2, 3})
	filled, err := s.Interpolate()
	if err != nil || filled != 0 {
		t.Fatalf("filled=%d err=%v", filled, err)
	}
}

func TestMissingCount(t *testing.T) {
	nan := math.NaN()
	s := New("x", t0, Hourly, []float64{1, nan, 3, nan})
	if s.MissingCount() != 2 || !s.HasMissing() {
		t.Fatal("MissingCount wrong")
	}
}

func TestSplit(t *testing.T) {
	s := New("x", t0, Hourly, []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	train, test, err := s.Split(3)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 7 || test.Len() != 3 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	if test.Values[0] != 7 {
		t.Fatalf("test starts at %v", test.Values[0])
	}
	if !test.Start.Equal(t0.Add(7 * time.Hour)) {
		t.Fatal("test start time wrong")
	}
	if _, _, err := s.Split(0); err == nil {
		t.Fatal("testLen=0 should fail")
	}
	if _, _, err := s.Split(10); err == nil {
		t.Fatal("testLen=len should fail")
	}
}
