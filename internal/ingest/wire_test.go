package ingest

import (
	"bytes"
	"compress/gzip"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/metricstore"
)

var w0 = time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC)

func wireSamples(n int) []metricstore.Sample {
	out := make([]metricstore.Sample, n)
	for i := range out {
		out[i] = metricstore.Sample{
			Target: "cdbm011", Metric: "cpu",
			At:    w0.Add(time.Duration(i) * 15 * time.Minute),
			Value: float64(i) * 1.5,
		}
	}
	return out
}

func TestWireRoundTrip(t *testing.T) {
	in := wireSamples(7)
	in[3].Target, in[3].Metric = "cdbm012", "logical_iops"
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, _, err := DecodeBatchMeta(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Target != in[i].Target || out[i].Metric != in[i].Metric ||
			!out[i].At.Equal(in[i].At) || out[i].Value != in[i].Value {
			t.Fatalf("sample %d: %+v vs %+v", i, out[i], in[i])
		}
		if out[i].At.Location() != time.UTC {
			t.Fatalf("sample %d not UTC: %v", i, out[i].At)
		}
	}
}

func TestWireRoundTripEmptyBatch(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, nil); err != nil {
		t.Fatal(err)
	}
	out, _, err := DecodeBatchMeta(&buf, 10)
	if err != nil || len(out) != 0 {
		t.Fatalf("out = %v, err = %v", out, err)
	}
}

func TestEncodeRejectsInvalidSamples(t *testing.T) {
	for name, smp := range map[string]metricstore.Sample{
		"empty target": {Metric: "cpu", At: w0, Value: 1},
		"empty metric": {Target: "d", At: w0, Value: 1},
		"zero time":    {Target: "d", Metric: "cpu", Value: 1},
		"nan":          {Target: "d", Metric: "cpu", At: w0, Value: math.NaN()},
		"inf":          {Target: "d", Metric: "cpu", At: w0, Value: math.Inf(1)},
	} {
		var buf bytes.Buffer
		if err := EncodeBatch(&buf, []metricstore.Sample{smp}); err == nil {
			t.Errorf("%s: encode accepted %+v", name, smp)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, _, err := DecodeBatchMeta(strings.NewReader("not gzip"), 0); err == nil {
		t.Fatal("plain text accepted")
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, wireSamples(1)); err != nil {
		t.Fatal(err)
	}
	// Re-encode with a bumped version by rewriting the envelope.
	payload := bytes.Replace(gunzip(t, buf.Bytes()), []byte(`"version":2`), []byte(`"version":99`), 1)
	if !bytes.Contains(payload, []byte(`"version":99`)) {
		t.Fatal("version rewrite missed — envelope layout changed?")
	}
	if _, _, err := DecodeBatchMeta(regzip(t, payload), 0); err == nil ||
		!strings.Contains(err.Error(), "unsupported wire version") {
		t.Fatalf("err = %v", err)
	}
}

func TestDecodeAcceptsVersion1(t *testing.T) {
	// A v1 sender predates the traceparent field entirely; the collector
	// must keep accepting its envelopes during a rolling upgrade.
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, wireSamples(3)); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Replace(gunzip(t, buf.Bytes()), []byte(`"version":2`), []byte(`"version":1`), 1)
	samples, meta, err := DecodeBatchMeta(regzip(t, payload), 0)
	if err != nil {
		t.Fatalf("v1 envelope rejected: %v", err)
	}
	if len(samples) != 3 {
		t.Fatalf("decoded %d samples, want 3", len(samples))
	}
	if meta.Version != 1 || meta.Traceparent != "" {
		t.Fatalf("meta = %+v, want version 1 with no trace", meta)
	}
}

func TestTraceparentRoundTripsThroughEnvelope(t *testing.T) {
	const tp = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	var buf bytes.Buffer
	if err := EncodeBatchTraced(&buf, wireSamples(2), tp); err != nil {
		t.Fatal(err)
	}
	samples, meta, err := DecodeBatchMeta(bytes.NewReader(buf.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("decoded %d samples, want 2", len(samples))
	}
	if meta.Version != WireVersion || meta.Traceparent != tp {
		t.Fatalf("meta = %+v, want version %d traceparent %s", meta, WireVersion, tp)
	}
	// Untraced batches stay lean: no traceparent key in the envelope.
	buf.Reset()
	if err := EncodeBatch(&buf, wireSamples(1)); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(gunzip(t, buf.Bytes()), []byte("traceparent")) {
		t.Fatal("untraced envelope carries a traceparent key")
	}
}

func TestDecodeEnforcesBatchLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, wireSamples(5)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeBatchMeta(bytes.NewReader(buf.Bytes()), 4); err == nil {
		t.Fatal("over-limit batch accepted")
	}
	if _, _, err := DecodeBatchMeta(bytes.NewReader(buf.Bytes()), 5); err != nil {
		t.Fatalf("at-limit batch rejected: %v", err)
	}
}

func TestDecodeValidatesSamples(t *testing.T) {
	payload := []byte(`{"version":1,"samples":[{"target":"","metric":"cpu","at_ms":1,"value":2}]}`)
	if _, _, err := DecodeBatchMeta(regzip(t, payload), 0); err == nil {
		t.Fatal("empty target accepted")
	}
}

// gunzip decompresses a wire payload for tampering.
func gunzip(t *testing.T, b []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer zr.Close()
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// regzip recompresses a tampered payload into a decodable reader.
func regzip(t *testing.T, b []byte) io.Reader {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf
}
