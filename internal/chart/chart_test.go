package chart

import (
	"math"
	"strings"
	"testing"
)

func TestLineBasic(t *testing.T) {
	out := Forecast([]float64{1, 2, 3, 4, 5}, nil, nil, nil, Options{Width: 20, Height: 5, Title: "t"})
	if !strings.Contains(out, "t\n") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "·") {
		t.Fatal("no data points drawn")
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 6 {
		t.Fatalf("too few lines: %d", len(lines))
	}
}

func TestForecastMarkers(t *testing.T) {
	hist := []float64{1, 2, 3, 4, 5}
	fc := []float64{6, 7}
	lo := []float64{5, 5.5}
	hi := []float64{7, 8.5}
	out := Forecast(hist, fc, lo, hi, Options{Width: 30, Height: 8})
	if !strings.Contains(out, "*") {
		t.Fatal("forecast markers missing")
	}
	if !strings.Contains(out, "░") {
		t.Fatal("confidence band missing")
	}
	if !strings.Contains(out, "forecast →") {
		t.Fatal("boundary marker missing")
	}
}

func TestForecastBandMismatch(t *testing.T) {
	out := Forecast([]float64{1}, []float64{2, 3}, []float64{1}, []float64{3, 4}, Options{})
	if !strings.Contains(out, "error") {
		t.Fatal("band mismatch not reported")
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	if out := Forecast(nil, nil, nil, nil, Options{}); !strings.Contains(out, "empty") {
		t.Fatalf("empty chart = %q", out)
	}
	nan := math.NaN()
	if out := Forecast([]float64{nan, nan}, nil, nil, nil, Options{}); !strings.Contains(out, "no finite data") {
		t.Fatalf("all-NaN chart = %q", out)
	}
	// Constant series must not divide by zero.
	out := Forecast([]float64{5, 5, 5}, nil, nil, nil, Options{Width: 10, Height: 4})
	if !strings.Contains(out, "·") {
		t.Fatal("constant series not drawn")
	}
}

func TestAxisLabels(t *testing.T) {
	out := Forecast([]float64{0, 100}, nil, nil, nil, Options{Width: 10, Height: 5})
	if !strings.Contains(out, "100") || !strings.Contains(out, "0") {
		t.Fatalf("axis labels missing:\n%s", out)
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if len([]rune(s)) != 8 {
		t.Fatalf("length = %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[7] != '█' {
		t.Fatalf("ramp wrong: %q", s)
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline should be empty")
	}
	if got := Sparkline([]float64{math.NaN(), 1}); []rune(got)[0] != '?' {
		t.Fatalf("NaN handling wrong: %q", got)
	}
	if got := Sparkline([]float64{2, 2}); len([]rune(got)) != 2 {
		t.Fatalf("constant sparkline wrong: %q", got)
	}
}
