package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension, e.g. {"technique", "SARIMAX"}.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// promEscapeLabel escapes a label value per the Prometheus text format
// spec: backslash, double-quote and newline become \\, \" and \n; every
// other byte passes through untouched (the format is otherwise raw
// UTF-8, so Go's %q — which escapes tabs, control bytes and non-ASCII —
// would produce values a Prometheus parser cannot round-trip).
func promEscapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// seriesKey renders name{k="v",…} with labels sorted and values escaped
// per the exposition format, so the same (name, labels) always maps to
// the same metric and the key doubles as a valid exposition series.
// The escape is injective (only \, " and newline are rewritten), so
// distinct label values never collide on one key.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(promEscapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta (negative deltas are ignored).
func (c *Counter) Add(delta int64) {
	if c == nil || delta <= 0 {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta (compare-and-swap loop).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histogramReservoir bounds per-histogram sample memory. 2048 samples
// give stable 3-digit quantiles for the fit-duration distributions the
// engine records while keeping a full fleet run's footprint small.
const histogramReservoir = 2048

// histogramBuckets are the fixed exemplar-bucket upper bounds (seconds
// for the duration histograms this package records); values above the
// last bound land in the implicit +Inf bucket.
var histogramBuckets = []float64{
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Exemplar ties one observed value to the trace that produced it — the
// last traced observation to land in a bucket.
type Exemplar struct {
	// LE is the bucket's upper bound ("+Inf" for the overflow bucket).
	LE string `json:"le"`
	// Value is the observed sample.
	Value float64 `json:"value"`
	// TraceID is the trace the sample belongs to.
	TraceID string `json:"trace_id"`
	// At stamps the observation.
	At time.Time `json:"at"`
}

// bucketLE renders bucket i's upper bound.
func bucketLE(i int) string {
	if i >= len(histogramBuckets) {
		return "+Inf"
	}
	return strconv.FormatFloat(histogramBuckets[i], 'g', -1, 64)
}

// Histogram records a value distribution: exact count and sum plus a
// sliding reservoir of recent samples for quantile estimation, and —
// for traced observations — one exemplar per fixed bucket linking the
// distribution back to concrete traces.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64
	max     float64
	samples []float64 // ring buffer, next points at the oldest slot
	next    int
	// buckets holds per-bucket counts and exemplars lazily allocated on
	// the first traced observation (untraced histograms stay as cheap as
	// before).
	buckets   []int64
	exemplars []Exemplar
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.ObserveTraced(v, "") }

// ObserveTraced records one sample plus the trace it belongs to. The
// sample's bucket remembers the trace as its exemplar, so /metrics and
// /api/v1/exemplars can point from a latency band straight to a trace
// ID. An empty traceID records the sample without an exemplar.
func (h *Histogram) ObserveTraced(v float64, traceID string) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if traceID != "" {
		if h.buckets == nil {
			h.buckets = make([]int64, len(histogramBuckets)+1)
			h.exemplars = make([]Exemplar, len(histogramBuckets)+1)
		}
		b := sort.SearchFloat64s(histogramBuckets, v)
		h.buckets[b]++
		h.exemplars[b] = Exemplar{LE: bucketLE(b), Value: v, TraceID: traceID, At: time.Now()}
	} else if h.buckets != nil {
		h.buckets[sort.SearchFloat64s(histogramBuckets, v)]++
	}
	if len(h.samples) < histogramReservoir {
		h.samples = append(h.samples, v)
		return
	}
	h.samples[h.next] = v
	h.next = (h.next + 1) % len(h.samples)
}

// Exemplars returns the recorded exemplars, densest buckets first left
// in bucket order; nil when the histogram never saw a traced sample.
func (h *Histogram) Exemplars() []Exemplar {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []Exemplar
	for _, e := range h.exemplars {
		if e.TraceID != "" {
			out = append(out, e)
		}
	}
	return out
}

// bucketRows snapshots cumulative bucket counts plus each bucket's
// exemplar (nil when the histogram holds no buckets).
func (h *Histogram) bucketRows() (cum []int64, ex []Exemplar) {
	if h == nil {
		return nil, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.buckets == nil {
		return nil, nil
	}
	cum = make([]int64, len(h.buckets))
	var run int64
	for i, c := range h.buckets {
		run += c
		cum[i] = run
	}
	return cum, append([]Exemplar(nil), h.exemplars...)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile estimates the q-quantile (q in [0,1]) from the reservoir.
// It returns NaN when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	h.mu.Lock()
	buf := append([]float64(nil), h.samples...)
	h.mu.Unlock()
	if len(buf) == 0 {
		return math.NaN()
	}
	sort.Float64s(buf)
	if q <= 0 {
		return buf[0]
	}
	if q >= 1 {
		return buf[len(buf)-1]
	}
	idx := int(q * float64(len(buf)-1))
	return buf[idx]
}

// snapshot returns count, sum, min, max and the standard quantiles.
func (h *Histogram) snapshot() (count int64, sum, mn, mx float64, quantiles map[string]float64) {
	quantiles = map[string]float64{}
	if h == nil {
		return 0, 0, 0, 0, quantiles
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		quantiles[fmt.Sprintf("%g", q)] = h.Quantile(q)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count, h.sum, h.min, h.max, quantiles
}

// Registry is a concurrency-safe collection of named metrics. Metric
// handles are get-or-create: concurrent callers asking for the same
// (name, labels) share one metric.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// names maps series key → bare metric name for exposition.
	names  map[string]string
	labels map[string][]Label
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		names:    map[string]string{},
		labels:   map[string][]Label{},
	}
}

func (r *Registry) remember(key, name string, labels []Label) {
	r.names[key] = name
	if len(labels) > 0 {
		r.labels[key] = append([]Label(nil), labels...)
	}
}

// Counter returns (creating if needed) the counter for name+labels.
// A nil Registry returns a nil (nop) counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	r.mu.RLock()
	c := r.counters[key]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[key]; c == nil {
		c = &Counter{}
		r.counters[key] = c
		r.remember(key, name, labels)
	}
	return c
}

// Gauge returns (creating if needed) the gauge for name+labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	r.mu.RLock()
	g := r.gauges[key]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[key]; g == nil {
		g = &Gauge{}
		r.gauges[key] = g
		r.remember(key, name, labels)
	}
	return g
}

// Histogram returns (creating if needed) the histogram for name+labels.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	r.mu.RLock()
	h := r.hists[key]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[key]; h == nil {
		h = &Histogram{}
		r.hists[key] = h
		r.remember(key, name, labels)
	}
	return h
}

// CounterValue sums every counter series sharing the bare name (all
// label combinations) — convenient for assertions and snapshots.
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	var total int64
	for key, c := range r.counters {
		if r.names[key] == name {
			total += c.Value()
		}
	}
	return total
}

// GaugeValue sums every gauge series sharing the bare name — the
// self-scrape loop reads aggregate pipeline state through this.
func (r *Registry) GaugeValue(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	var total float64
	for key, g := range r.gauges {
		if r.names[key] == name {
			total += g.Value()
		}
	}
	return total
}

// HistogramSum sums every histogram series sharing the bare name — the
// aggregate wall time a duration histogram has accumulated.
func (r *Registry) HistogramSum(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	hs := make([]*Histogram, 0, 4)
	for key, h := range r.hists {
		if r.names[key] == name {
			hs = append(hs, h)
		}
	}
	r.mu.RUnlock()
	var total float64
	for _, h := range hs {
		total += h.Sum()
	}
	return total
}

// ExemplarSeries groups one histogram series' exemplars for the
// /api/v1/exemplars endpoint.
type ExemplarSeries struct {
	// Series is the full series key (name plus labels).
	Series string `json:"series"`
	// Metric is the bare metric name.
	Metric string `json:"metric"`
	// Exemplars lists the per-bucket exemplars in bucket order.
	Exemplars []Exemplar `json:"exemplars"`
}

// Exemplars snapshots every histogram's bucket exemplars, sorted by
// series key; histograms without traced observations are omitted.
func (r *Registry) Exemplars() []ExemplarSeries {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	type entry struct {
		key  string
		name string
		h    *Histogram
	}
	entries := make([]entry, 0, len(r.hists))
	for key, h := range r.hists {
		entries = append(entries, entry{key, r.names[key], h})
	}
	r.mu.RUnlock()
	var out []ExemplarSeries
	for _, e := range entries {
		if ex := e.h.Exemplars(); len(ex) > 0 {
			out = append(out, ExemplarSeries{Series: e.key, Metric: e.name, Exemplars: ex})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Series < out[j].Series })
	return out
}

// WritePrometheus renders every metric in the Prometheus text format,
// sorted by series key. Histograms expose summary-style quantiles plus
// _sum and _count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	type row struct {
		key  string
		line string
	}
	var rows []row
	for key, c := range r.counters {
		rows = append(rows, row{key, fmt.Sprintf("%s %d\n", key, c.Value())})
	}
	for key, g := range r.gauges {
		rows = append(rows, row{key, fmt.Sprintf("%s %g\n", key, g.Value())})
	}
	for key, h := range r.hists {
		name := r.names[key]
		labels := r.labels[key]
		count, sum, _, _, quantiles := h.snapshot()
		var b strings.Builder
		qkeys := make([]string, 0, len(quantiles))
		for q := range quantiles {
			qkeys = append(qkeys, q)
		}
		sort.Strings(qkeys)
		for _, q := range qkeys {
			ql := append(append([]Label(nil), labels...), L("quantile", q))
			fmt.Fprintf(&b, "%s %g\n", seriesKey(name, ql), quantiles[q])
		}
		// Histograms that saw traced observations additionally expose
		// cumulative buckets, each annotated with its exemplar in
		// OpenMetrics form: `… # {trace_id="…"} value timestamp`.
		if cum, ex := h.bucketRows(); cum != nil {
			for i, c := range cum {
				bl := append(append([]Label(nil), labels...), L("le", bucketLE(i)))
				fmt.Fprintf(&b, "%s %d", seriesKey(name+"_bucket", bl), c)
				if e := ex[i]; e.TraceID != "" {
					fmt.Fprintf(&b, " # {trace_id=\"%s\"} %g %.3f",
						promEscapeLabel(e.TraceID), e.Value, float64(e.At.UnixMilli())/1000)
				}
				b.WriteByte('\n')
			}
		}
		fmt.Fprintf(&b, "%s %g\n", seriesKey(name+"_sum", labels), sum)
		fmt.Fprintf(&b, "%s %d\n", seriesKey(name+"_count", labels), count)
		rows = append(rows, row{key, b.String()})
	}
	r.mu.RUnlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	for _, rw := range rows {
		if _, err := io.WriteString(w, rw.line); err != nil {
			return err
		}
	}
	return nil
}

// histogramSnapshot is the JSON form of one histogram series.
type histogramSnapshot struct {
	Count     int64              `json:"count"`
	Sum       float64            `json:"sum"`
	Min       float64            `json:"min"`
	Max       float64            `json:"max"`
	Quantiles map[string]float64 `json:"quantiles"`
}

// Snapshot is a point-in-time copy of the registry, JSON-serialisable.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]histogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]histogramSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, c := range r.counters {
		counters[k] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, g := range r.gauges {
		gauges[k] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, h := range r.hists {
		hists[k] = h
	}
	r.mu.RUnlock()
	for k, c := range counters {
		snap.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		snap.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		count, sum, mn, mx, quantiles := h.snapshot()
		for q, v := range quantiles {
			if math.IsNaN(v) {
				quantiles[q] = 0
			}
		}
		snap.Histograms[k] = histogramSnapshot{Count: count, Sum: sum, Min: mn, Max: mx, Quantiles: quantiles}
	}
	return snap
}

// WriteJSON renders the Snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
