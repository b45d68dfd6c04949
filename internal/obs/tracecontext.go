package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"
)

// This file implements a W3C-traceparent-style trace context so a
// pipeline trace can cross process boundaries: a `capplan push` batch is
// stamped with a trace ID, the ingest collector extracts it, and every
// downstream span (store put, monitor observation, triggered refit)
// joins the same trace. IDs follow the W3C Trace Context sizes — a
// 16-byte trace ID and an 8-byte span ID — and travel as the standard
// `00-<trace>-<span>-01` traceparent string.

// TraceID identifies one end-to-end trace (16 bytes, hex-encoded).
type TraceID [16]byte

// IsZero reports whether the ID is unset (the invalid all-zero ID).
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID identifies one span within a trace (8 bytes, hex-encoded).
type SpanID [8]byte

// IsZero reports whether the ID is unset.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext is the propagated half of a span: enough to parent remote
// children onto it without sharing the *Span itself.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// IsZero reports whether the context carries no trace.
func (c SpanContext) IsZero() bool { return c.Trace.IsZero() }

// TraceParent renders the context in W3C traceparent form:
// version "00", sampled flag set.
func (c SpanContext) TraceParent() string {
	return fmt.Sprintf("00-%s-%s-01", c.Trace, c.Span)
}

// ParseTraceParent parses a W3C traceparent string. Unknown versions are
// accepted as long as the field layout matches (per the spec's
// forward-compatibility rule); all-zero trace or span IDs are rejected.
func ParseTraceParent(s string) (SpanContext, error) {
	// Layout: 2 (version) + 1 + 32 (trace) + 1 + 16 (span) + 1 + 2 (flags).
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, fmt.Errorf("obs: malformed traceparent %q", s)
	}
	var c SpanContext
	if _, err := hex.Decode(c.Trace[:], []byte(s[3:35])); err != nil {
		return SpanContext{}, fmt.Errorf("obs: traceparent trace id: %w", err)
	}
	if _, err := hex.Decode(c.Span[:], []byte(s[36:52])); err != nil {
		return SpanContext{}, fmt.Errorf("obs: traceparent span id: %w", err)
	}
	if c.Trace.IsZero() || c.Span.IsZero() {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q carries a zero id", s)
	}
	return c, nil
}

// idFallback seeds deterministic-but-unique IDs when crypto/rand is
// unavailable (it never is in practice, but ID generation must not fail).
var idFallback atomic.Uint64

func randomBytes(b []byte) {
	if _, err := crand.Read(b); err == nil {
		return
	}
	// Mix a counter with the clock so even the fallback never repeats.
	n := idFallback.Add(1)
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(time.Now().UnixNano()))
	binary.LittleEndian.PutUint64(buf[8:], n*0x9e3779b97f4a7c15)
	copy(b, buf[:])
}

// NewTraceID returns a fresh random trace ID.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		randomBytes(t[:])
	}
	return t
}

// NewSpanID returns a fresh random span ID.
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		randomBytes(s[:])
	}
	return s
}

// NewSpanContext returns a fresh root context (new trace, new span).
// Producers that stamp wire batches use this even when local span
// recording is off, so downstream processes can still join the trace.
func NewSpanContext() SpanContext {
	return SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
}

// Context carriage. Two keys: an in-process *Span (child spans attach
// directly) and a remote SpanContext (a trace that crossed the wire and
// has no local *Span to parent under).

type spanCtxKey struct{}
type remoteCtxKey struct{}

// ContextWithSpan returns a context carrying sp; SpanFromContext
// retrieves it. A nil span stores nothing.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// ContextWithRemote returns a context carrying a remote trace context —
// the parent for spans continuing a trace that arrived over the wire.
// A zero context stores nothing.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if sc.IsZero() {
		return ctx
	}
	return context.WithValue(ctx, remoteCtxKey{}, sc)
}

// RemoteFromContext returns the remote trace context carried by ctx.
func RemoteFromContext(ctx context.Context) (SpanContext, bool) {
	if ctx == nil {
		return SpanContext{}, false
	}
	sc, ok := ctx.Value(remoteCtxKey{}).(SpanContext)
	return sc, ok
}
