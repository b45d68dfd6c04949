// Package ingest is the networked remote-write path of the paper's §5.1
// architecture: agents on database hosts ship metric samples over HTTP
// to the central repository instead of calling it in-process. The
// package has two halves — a collector (an http.Handler that decodes,
// validates and batch-appends samples into a metricstore under
// backpressure) and a Shipper (a metricstore-compatible sink that
// buffers samples into a bounded queue and flushes gzip-compressed
// batches with exponential-backoff retries). Delivery is at-least-once;
// the repository's (key, timestamp) overwrite semantics make redelivery
// idempotent.
package ingest

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/metricstore"
)

// WireVersion is the current batch envelope version. Version 2 adds an
// optional traceparent field carrying the shipper's trace context; the
// decoder still accepts version 1 (which simply has no trace), so a
// fleet upgrades collector-first without a flag day. Decoders reject
// versions they do not understand.
const WireVersion = 2

// minWireVersion is the oldest envelope the decoder accepts.
const minWireVersion = 1

// Path is the collector's HTTP route on the shared observability mux.
const Path = "/api/v1/ingest"

// TraceparentHeader is the HTTP request header carrying the shipper's
// W3C trace context. The same value also travels inside the v2
// envelope, so the trace survives intermediaries that strip headers.
const TraceparentHeader = "Traceparent"

// wireSample is the on-the-wire form of one metricstore.Sample.
// Timestamps travel as Unix milliseconds so the format is independent
// of Go's time encoding.
type wireSample struct {
	Target string  `json:"target"`
	Metric string  `json:"metric"`
	AtMs   int64   `json:"at_ms"`
	Value  float64 `json:"value"`
}

// wireBatch is the versioned envelope: a JSON document, gzip-compressed
// on the wire.
type wireBatch struct {
	Version     int          `json:"version"`
	Traceparent string       `json:"traceparent,omitempty"`
	Samples     []wireSample `json:"samples"`
}

// BatchMeta is the envelope metadata a decoded batch carried alongside
// its samples.
type BatchMeta struct {
	// Version is the envelope version the sender wrote (1 or 2).
	Version int
	// Traceparent is the sender's W3C trace context, "" when absent
	// (v1 envelopes, or a v2 sender with tracing off).
	Traceparent string
}

// ValidateSample checks one sample against the collector's admission
// rules: non-empty target and metric, a set timestamp, and a finite
// value (JSON cannot carry NaN/Inf, and the aggregation layer must
// never see them).
func ValidateSample(s metricstore.Sample) error {
	if s.Target == "" {
		return fmt.Errorf("ingest: sample with empty target")
	}
	if s.Metric == "" {
		return fmt.Errorf("ingest: sample with empty metric")
	}
	if s.At.IsZero() {
		return fmt.Errorf("ingest: sample %s/%s with zero timestamp", s.Target, s.Metric)
	}
	if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
		return fmt.Errorf("ingest: sample %s/%s with non-finite value", s.Target, s.Metric)
	}
	return nil
}

// EncodeBatch writes samples to w as a gzip-compressed current-version
// envelope with no trace context. Every sample must pass ValidateSample.
func EncodeBatch(w io.Writer, samples []metricstore.Sample) error {
	return EncodeBatchTraced(w, samples, "")
}

// EncodeBatchTraced is EncodeBatch with the sender's traceparent
// stamped into the envelope, so the collector can continue the trace
// that produced the batch.
func EncodeBatchTraced(w io.Writer, samples []metricstore.Sample, traceparent string) error {
	batch := wireBatch{
		Version:     WireVersion,
		Traceparent: traceparent,
		Samples:     make([]wireSample, len(samples)),
	}
	for i, s := range samples {
		if err := ValidateSample(s); err != nil {
			return err
		}
		batch.Samples[i] = wireSample{
			Target: s.Target,
			Metric: s.Metric,
			AtMs:   s.At.UnixMilli(),
			Value:  s.Value,
		}
	}
	zw := gzip.NewWriter(w)
	if err := json.NewEncoder(zw).Encode(batch); err != nil {
		zw.Close()
		return fmt.Errorf("ingest: encode batch: %w", err)
	}
	return zw.Close()
}

// DecodeBatchMeta reads one gzip-compressed envelope from r, checks the
// version, enforces maxSamples (0 = unlimited) and validates every
// sample; decoded timestamps are UTC. It also returns the envelope
// metadata (wire version and the sender's traceparent, when present).
func DecodeBatchMeta(r io.Reader, maxSamples int) ([]metricstore.Sample, BatchMeta, error) {
	var meta BatchMeta
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, meta, fmt.Errorf("ingest: not a gzip stream: %w", err)
	}
	defer zr.Close()
	var batch wireBatch
	dec := json.NewDecoder(zr)
	if err := dec.Decode(&batch); err != nil {
		return nil, meta, fmt.Errorf("ingest: decode batch: %w", err)
	}
	if batch.Version < minWireVersion || batch.Version > WireVersion {
		return nil, meta, fmt.Errorf("ingest: unsupported wire version %d (want %d..%d)",
			batch.Version, minWireVersion, WireVersion)
	}
	if maxSamples > 0 && len(batch.Samples) > maxSamples {
		return nil, meta, fmt.Errorf("ingest: batch of %d samples exceeds limit %d", len(batch.Samples), maxSamples)
	}
	meta = BatchMeta{Version: batch.Version, Traceparent: batch.Traceparent}
	out := make([]metricstore.Sample, len(batch.Samples))
	for i, ws := range batch.Samples {
		out[i] = metricstore.Sample{
			Target: ws.Target,
			Metric: ws.Metric,
			At:     time.UnixMilli(ws.AtMs).UTC(),
			Value:  ws.Value,
		}
		if err := ValidateSample(out[i]); err != nil {
			return nil, meta, err
		}
	}
	return out, meta, nil
}
