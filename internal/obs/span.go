package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Attr is one span attribute (ordered, unlike a map).
type Attr struct {
	Key   string
	Value any
}

// Span is one timed node of a pipeline trace. Spans nest: Engine.Run is
// a root whose children are the Figure 4 stages, and the fit/score
// stage holds one child per candidate model. All methods are safe on a
// nil receiver (the tracing-disabled case) and safe for concurrent use,
// so parallel fit workers can attach children to one parent.
type Span struct {
	name  string
	clock func() time.Time
	// sc is the span's trace identity; parent is the span ID this span
	// nests under (a local parent's ID, or the remote span ID a wire
	// batch carried). Both are immutable after creation.
	sc     SpanContext
	parent SpanID

	mu       sync.Mutex
	start    time.Time
	end      time.Time
	attrs    []Attr
	children []*Span
	err      error
}

func newSpan(name string, clock func() time.Time, sc SpanContext, parent SpanID) *Span {
	if clock == nil {
		clock = time.Now
	}
	return &Span{name: name, clock: clock, sc: sc, parent: parent, start: clock()}
}

// Child opens a sub-span. The child joins the parent's trace with a
// fresh span ID and a parent link. On a nil receiver it returns nil,
// keeping the whole call chain nop.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name, s.clock, SpanContext{Trace: s.sc.Trace, Span: NewSpanID()}, s.sc.Span)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Context returns the span's trace identity (zero for nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// ParentSpanID returns the span ID this span nests under (zero for a
// trace root).
func (s *Span) ParentSpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.parent
}

// Set records an attribute.
func (s *Span) Set(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Fail records an error on the span (kept alongside attributes).
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

// End closes the span. Subsequent Ends are ignored, so `defer sp.End()`
// composes with an explicit early End.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = s.clock()
	}
	s.mu.Unlock()
}

// Name returns the span name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Err returns the recorded error, if any.
func (s *Span) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Start returns the span start time.
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns end−start for a closed span, and the running
// duration for an open one.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return s.clock().Sub(s.start)
	}
	return s.end.Sub(s.start)
}

// Children returns a snapshot of the sub-spans in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Attrs returns a snapshot of the attributes in insertion order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Attr looks up the first attribute with the given key.
func (s *Span) Attr(key string) (any, bool) {
	for _, a := range s.Attrs() {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

// Find returns the first descendant span (depth-first, including s)
// with the given name, or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.name == name {
		return s
	}
	for _, c := range s.Children() {
		if hit := c.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// WriteTree renders the span and its descendants as an indented tree:
//
//	engine.run                        1.2s  series=cdbm011/cpu
//	├─ analyse                       12ms  period=24
//	└─ fit-score                      1.1s
//	   ├─ fit                        210ms  candidate=…  rmse=3.21
func (s *Span) WriteTree(w io.Writer) error {
	if s == nil {
		return nil
	}
	return s.writeTree(w, "", "")
}

func (s *Span) writeTree(w io.Writer, prefix, childPrefix string) error {
	var b strings.Builder
	b.WriteString(prefix)
	b.WriteString(s.name)
	fmt.Fprintf(&b, "  %s", fmtDuration(s.Duration()))
	for _, a := range s.Attrs() {
		fmt.Fprintf(&b, "  %s=%s", a.Key, formatValue(a.Value))
	}
	if err := s.Err(); err != nil {
		fmt.Fprintf(&b, "  error=%s", formatValue(err.Error()))
	}
	b.WriteByte('\n')
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	children := s.Children()
	for i, c := range children {
		connector, indent := "├─ ", "│  "
		if i == len(children)-1 {
			connector, indent = "└─ ", "   "
		}
		if err := c.writeTree(w, childPrefix+connector, childPrefix+indent); err != nil {
			return err
		}
	}
	return nil
}

// fmtDuration rounds a duration to a readable precision.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(100 * time.Nanosecond).String()
	}
}

// spanJSON is the wire form of a span.
type spanJSON struct {
	Name         string         `json:"name"`
	TraceID      string         `json:"trace_id,omitempty"`
	SpanID       string         `json:"span_id,omitempty"`
	ParentSpanID string         `json:"parent_span_id,omitempty"`
	Start        time.Time      `json:"start"`
	DurationMS   float64        `json:"duration_ms"`
	Attrs        map[string]any `json:"attrs,omitempty"`
	Error        string         `json:"error,omitempty"`
	Children     []*Span        `json:"children,omitempty"`
}

// MarshalJSON implements json.Marshaler for trace dumps.
func (s *Span) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	j := spanJSON{
		Name:       s.name,
		Start:      s.Start(),
		DurationMS: float64(s.Duration()) / float64(time.Millisecond),
		Children:   s.Children(),
	}
	if !s.sc.IsZero() {
		j.TraceID = s.sc.Trace.String()
		j.SpanID = s.sc.Span.String()
	}
	if !s.parent.IsZero() {
		j.ParentSpanID = s.parent.String()
	}
	if attrs := s.Attrs(); len(attrs) > 0 {
		j.Attrs = make(map[string]any, len(attrs))
		for _, a := range attrs {
			switch v := a.Value.(type) {
			case string, bool, int, int64, float64:
				j.Attrs[a.Key] = v
			default:
				j.Attrs[a.Key] = fmt.Sprint(v)
			}
		}
	}
	if err := s.Err(); err != nil {
		j.Error = err.Error()
	}
	return json.Marshal(j)
}
