// Package chart renders time series and forecasts as ASCII line charts —
// the CLI stand-in for the paper's Figure 8 product UI: historical data,
// the prediction line, and its error band, in one view.
package chart

import (
	"fmt"
	"math"
	"strings"
)

// Options controls rendering.
type Options struct {
	// Width and Height are the plot area dimensions in characters
	// (defaults 72×16).
	Width, Height int
	// Title is printed above the chart.
	Title string
	// YLabel annotates the value axis.
	YLabel string
}

// Forecast renders history followed by a forecast with an optional
// confidence band. history is drawn with '·', the forecast with '*', and
// the band with '░'. Any slice may be nil; lower/upper must match
// forecast in length when present.
func Forecast(history, forecast, lower, upper []float64, opt Options) string {
	width := opt.Width
	if width <= 0 {
		width = 72
	}
	height := opt.Height
	if height <= 0 {
		height = 16
	}
	n := len(history) + len(forecast)
	if n == 0 {
		return "(empty chart)\n"
	}
	if len(forecast) > 0 && ((lower != nil && len(lower) != len(forecast)) || (upper != nil && len(upper) != len(forecast))) {
		return "(chart error: band length mismatch)\n"
	}

	// Value range across everything drawn.
	lo, hi := math.Inf(1), math.Inf(-1)
	scan := func(vals []float64) {
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	scan(history)
	scan(forecast)
	scan(lower)
	scan(upper)
	if math.IsInf(lo, 1) {
		return "(chart: no finite data)\n"
	}
	if hi == lo {
		hi = lo + 1
	}

	// Map a series index to a column and a value to a row.
	col := func(i int) int {
		if n == 1 {
			return 0
		}
		return i * (width - 1) / (n - 1)
	}
	row := func(v float64) int {
		f := (v - lo) / (hi - lo)
		r := height - 1 - int(math.Round(f*float64(height-1)))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		return r
	}

	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = make([]rune, width)
		for c := range grid[r] {
			grid[r][c] = ' '
		}
	}

	// Band first so points draw over it.
	for k := range forecast {
		if lower == nil || upper == nil {
			break
		}
		if math.IsNaN(lower[k]) || math.IsNaN(upper[k]) {
			continue
		}
		c := col(len(history) + k)
		rTop, rBot := row(upper[k]), row(lower[k])
		for r := rTop; r <= rBot; r++ {
			grid[r][c] = '░'
		}
	}
	for i, v := range history {
		if math.IsNaN(v) {
			continue
		}
		grid[row(v)][col(i)] = '·'
	}
	for k, v := range forecast {
		if math.IsNaN(v) {
			continue
		}
		grid[row(v)][col(len(history)+k)] = '*'
	}

	var sb strings.Builder
	if opt.Title != "" {
		fmt.Fprintf(&sb, "%s\n", opt.Title)
	}
	axisW := 12
	for r := 0; r < height; r++ {
		var label string
		switch r {
		case 0:
			label = fmt.Sprintf("%11.4g", hi)
		case height - 1:
			label = fmt.Sprintf("%11.4g", lo)
		case (height - 1) / 2:
			label = fmt.Sprintf("%11.4g", (hi+lo)/2)
		default:
			label = strings.Repeat(" ", axisW-1)
		}
		sb.WriteString(label)
		sb.WriteString("│")
		sb.WriteString(string(grid[r]))
		sb.WriteString("\n")
	}
	sb.WriteString(strings.Repeat(" ", axisW-1))
	sb.WriteString("└")
	sb.WriteString(strings.Repeat("─", width))
	sb.WriteString("\n")
	// Mark the train/forecast boundary.
	if len(forecast) > 0 && len(history) > 0 {
		boundary := col(len(history))
		sb.WriteString(strings.Repeat(" ", axisW+boundary))
		sb.WriteString("^ forecast →\n")
	}
	if opt.YLabel != "" {
		fmt.Fprintf(&sb, "%s\n", opt.YLabel)
	}
	return sb.String()
}

// Correlogram renders an ACF or PACF bar chart with its white-noise
// confidence band (the paper's Figure 1(a) view): one column per lag,
// '█' bars scaled to ±1, and '─' marks at the band. Lags outside the
// band are the candidates the §6.3 pruning keeps.
func Correlogram(corr []float64, band float64, title string) string {
	if len(corr) == 0 {
		return "(empty correlogram)\n"
	}
	const height = 9 // rows per half (positive/negative)
	rows := 2*height + 1
	grid := make([][]rune, rows)
	for r := range grid {
		grid[r] = make([]rune, len(corr))
		for c := range grid[r] {
			grid[r][c] = ' '
		}
	}
	rowFor := func(v float64) int {
		if v > 1 {
			v = 1
		}
		if v < -1 {
			v = -1
		}
		return height - int(math.Round(v*float64(height)))
	}
	zero := height
	bandUp, bandDown := rowFor(band), rowFor(-band)
	for c, v := range corr {
		if math.IsNaN(v) {
			grid[zero][c] = '?'
			continue
		}
		r := rowFor(v)
		lo, hi := r, zero
		if lo > hi {
			lo, hi = hi, lo
		}
		for rr := lo; rr <= hi; rr++ {
			grid[rr][c] = '█'
		}
	}
	// Band markers drawn over empty cells only.
	for c := range corr {
		if grid[bandUp][c] == ' ' {
			grid[bandUp][c] = '─'
		}
		if grid[bandDown][c] == ' ' {
			grid[bandDown][c] = '─'
		}
	}
	var sb strings.Builder
	if title != "" {
		fmt.Fprintf(&sb, "%s (band ±%.3f)\n", title, band)
	}
	for r := 0; r < rows; r++ {
		label := "      "
		switch r {
		case 0:
			label = " +1.0 "
		case zero:
			label = "  0.0 "
		case rows - 1:
			label = " -1.0 "
		}
		sb.WriteString(label)
		sb.WriteString("│")
		sb.WriteString(string(grid[r]))
		sb.WriteString("\n")
	}
	sb.WriteString("      └")
	sb.WriteString(strings.Repeat("─", len(corr)))
	sb.WriteString("\n       lag 0 →\n")
	return sb.String()
}

// Sparkline renders values as a compact one-line bar chart.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	ramp := []rune("▁▂▃▄▅▆▇█")
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if math.IsInf(lo, 1) {
		return strings.Repeat("?", len(values))
	}
	if hi == lo {
		hi = lo + 1
	}
	var sb strings.Builder
	for _, v := range values {
		if math.IsNaN(v) {
			sb.WriteRune('?')
			continue
		}
		idx := int((v - lo) / (hi - lo) * float64(len(ramp)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(ramp) {
			idx = len(ramp) - 1
		}
		sb.WriteRune(ramp[idx])
	}
	return sb.String()
}
