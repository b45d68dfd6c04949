package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func TestTraceParentRoundTrip(t *testing.T) {
	sc := NewSpanContext()
	if sc.IsZero() {
		t.Fatal("fresh span context is zero")
	}
	tp := sc.TraceParent()
	if len(tp) != 55 || !strings.HasPrefix(tp, "00-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("traceparent %q not in W3C layout", tp)
	}
	got, err := ParseTraceParent(tp)
	if err != nil {
		t.Fatalf("parse %q: %v", tp, err)
	}
	if got != sc {
		t.Fatalf("round trip %v != %v", got, sc)
	}
}

func TestParseTraceParentRejectsMalformed(t *testing.T) {
	for _, s := range []string{
		"",
		"00-abc-def-01",
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("a", 16) + "-01", // zero trace id
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("0", 16) + "-01", // zero span id
		"00-" + strings.Repeat("g", 32) + "-" + strings.Repeat("a", 16) + "-01", // non-hex
		"00+" + strings.Repeat("a", 32) + "+" + strings.Repeat("a", 16) + "+01", // wrong separators
	} {
		if _, err := ParseTraceParent(s); err == nil {
			t.Errorf("ParseTraceParent(%q) accepted", s)
		}
	}
	// Unknown versions with the right layout parse (spec forward-compat).
	tp := "cc-" + strings.Repeat("a", 32) + "-" + strings.Repeat("b", 16) + "-00"
	if _, err := ParseTraceParent(tp); err != nil {
		t.Errorf("future-version traceparent rejected: %v", err)
	}
}

func TestIDUniqueness(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 256; i++ {
		id := NewTraceID().String()
		if seen[id] {
			t.Fatalf("duplicate trace id %s", id)
		}
		seen[id] = true
	}
}

func TestChildSpansInheritTrace(t *testing.T) {
	o := New(Config{Trace: true})
	root := o.StartSpan("root")
	child := root.Child("child")
	grand := child.Child("grandchild")
	if root.Context().IsZero() {
		t.Fatal("root span has no trace context")
	}
	if child.Context().Trace != root.Context().Trace || grand.Context().Trace != root.Context().Trace {
		t.Fatal("descendants do not share the root's trace id")
	}
	if child.ParentSpanID() != root.Context().Span {
		t.Fatal("child's parent link is not the root span id")
	}
	if child.Context().Span == root.Context().Span {
		t.Fatal("child reused the parent's span id")
	}
}

func TestStartSpanRemoteJoinsTrace(t *testing.T) {
	remote := NewSpanContext()
	o := New(Config{Trace: true})
	sp := o.StartSpanRemote("ingest.receive", remote)
	if sp.Context().Trace != remote.Trace {
		t.Fatal("remote-parented span did not join the remote trace")
	}
	if sp.ParentSpanID() != remote.Span {
		t.Fatal("remote-parented span did not link the remote span as parent")
	}
	if zero := o.StartSpanRemote("fresh", SpanContext{}); zero.Context().IsZero() {
		t.Fatal("zero parent should degrade to a fresh trace")
	}
}

func TestStartSpanFromContext(t *testing.T) {
	o := New(Config{Trace: true})

	// In-process parent wins: the new span is a child.
	parent := o.StartSpan("parent")
	ctx := ContextWithSpan(context.Background(), parent)
	child := o.StartSpanFrom(ctx, "child")
	if child.ParentSpanID() != parent.Context().Span {
		t.Fatal("ctx span did not become the parent")
	}
	if got := len(parent.Children()); got != 1 {
		t.Fatalf("parent has %d children, want 1", got)
	}

	// Remote context joins the remote trace as a new root.
	remote := NewSpanContext()
	rsp := o.StartSpanFrom(ContextWithRemote(context.Background(), remote), "joined")
	if rsp.Context().Trace != remote.Trace || rsp.ParentSpanID() != remote.Span {
		t.Fatal("remote ctx did not parent the span")
	}

	// A bare context starts a fresh root trace.
	fresh := o.StartSpanFrom(context.Background(), "fresh")
	if fresh.Context().IsZero() || !fresh.ParentSpanID().IsZero() {
		t.Fatal("bare ctx should yield a fresh root")
	}

	if got := SpanFromContext(ctx); got != parent {
		t.Fatal("SpanFromContext did not return the carried span")
	}
	if got := SpanFromContext(context.Background()); got != nil {
		t.Fatalf("SpanFromContext on bare ctx = %v, want nil", got)
	}
}

func TestSpanJSONCarriesTraceIDs(t *testing.T) {
	o := New(Config{Trace: true})
	remote := NewSpanContext()
	sp := o.StartSpanRemote("receive", remote)
	sp.Child("store").End()
	sp.End()
	buf, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	var j struct {
		TraceID      string `json:"trace_id"`
		SpanID       string `json:"span_id"`
		ParentSpanID string `json:"parent_span_id"`
		Children     []struct {
			TraceID      string `json:"trace_id"`
			ParentSpanID string `json:"parent_span_id"`
		} `json:"children"`
	}
	if err := json.Unmarshal(buf, &j); err != nil {
		t.Fatal(err)
	}
	if j.TraceID != remote.Trace.String() {
		t.Fatalf("trace_id = %q, want %q", j.TraceID, remote.Trace.String())
	}
	if j.ParentSpanID != remote.Span.String() {
		t.Fatalf("parent_span_id = %q, want %q", j.ParentSpanID, remote.Span.String())
	}
	if len(j.Children) != 1 || j.Children[0].TraceID != j.TraceID || j.Children[0].ParentSpanID != j.SpanID {
		t.Fatalf("child lineage wrong: %s", buf)
	}
}

func TestSpanRingBufferBoundsRetention(t *testing.T) {
	o := New(Config{Trace: true, Metrics: true, MaxSpans: 4})
	for i := 0; i < 10; i++ {
		o.StartSpan(spanName(i)).End()
	}
	spans := o.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	// Oldest-first order: the survivors are 6..9.
	for i, sp := range spans {
		if want := spanName(6 + i); sp.Name() != want {
			t.Errorf("span[%d] = %s, want %s", i, sp.Name(), want)
		}
	}
	if got := o.DroppedSpans(); got != 6 {
		t.Errorf("DroppedSpans = %d, want 6", got)
	}
	if got := o.Registry().CounterValue("trace_spans_dropped_total"); got != 6 {
		t.Errorf("trace_spans_dropped_total = %d, want 6", got)
	}
	// TakeSpans drains and resets the ring.
	if got := len(o.TakeSpans()); got != 4 {
		t.Fatalf("TakeSpans returned %d, want 4", got)
	}
	if got := len(o.Spans()); got != 0 {
		t.Fatalf("spans after drain = %d, want 0", got)
	}
	o.StartSpan("fresh")
	if got := o.Spans(); len(got) != 1 || got[0].Name() != "fresh" {
		t.Fatalf("ring unusable after drain: %v", got)
	}
}

func spanName(i int) string { return "span-" + string(rune('a'+i)) }
