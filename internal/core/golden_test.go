package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/timeseries"
	"repro/internal/workload"
)

// goldenRunDigests pins every engine output a refactor of the fit path
// could disturb, per run: champion label, each candidate's RMSE and AIC,
// the full Analysis, the hold-out forecast, the production forecast
// (mean, lower, upper) and the champion's residual diagnostics. A moved
// digest is a behaviour change, not a refactor: update one only in the
// change that means to move it, and say why there.
var goldenRunDigests = map[string]string{
	"ARIMA/cold/golden-flat":       "7a82406154a3f370b327a100b9535aa7b01b5796aacd68624687e9f5b5df7c9e",
	"ARIMA/cold/golden-trending":   "e475182a460b0bce70ef28d8c239aaa36b9490fd93bb78d2f9b6889c0140bfbc",
	"ARIMA/warm/golden-trending":   "3260a8462e1095a98ecab0ca731767826f8471dc926a03892c3b004cf621a471",
	"HES/cold/golden-flat":         "8bffd64146d16387111eb8a55e28c092866e51119e24e90ad57ef06ca600a781",
	"HES/cold/golden-trending":     "863763488348336c9cd5f6bc0d55466f5c95634307bef747f629d5da5d8507c8",
	"HES/warm/golden-trending":     "df1c8a5332350bc0cf173694e4ecaf20938580f2f0f50527a20690a5e55d3ac9",
	"SARIMAX/cold/golden-flat":     "41c9842dd910bda12c7b9e3e9e271317e681e4b9037ee7a68dbd23e93cf02bd5",
	"SARIMAX/cold/golden-trending": "9679d7d6ba110ee0b9d2242bba4fda572c8cb481dc4073137fa64c4e2cd22f10",
	"SARIMAX/warm/golden-trending": "9fe3060ee36652f1daa08da73374ae96438fd3d3b32ad68aa0fcdf0e29d28960",
	"TBATS/cold/golden-flat":       "f9ea92b2df1438d6ed0b411775fe90c4a35d4dd1f916bc4e7ff558ea71f8d692",
	"TBATS/cold/golden-trending":   "e6225f222c15b867c02206344a53818572c40a6688a31d73f85817827a337d75",
	"TBATS/warm/golden-trending":   "1dd2c0b3e45c5228f2ee28104c44ca43edaf1b0abbcf3d8caaa619f71c5a2bfc",
}

// goldenTrending is a 14-day hourly series with a daily season and a
// stochastic trend (integrated noise), so Analyze chooses d=1.
func goldenTrending() *timeseries.Series {
	y := workload.DailySeasonal(336, 60, 8, 0.03, 1, 21)
	steps := workload.Synthetic(workload.SyntheticOpts{N: 336, Noise: 0.8, Seed: 22})
	acc := 0.0
	for i := range y {
		acc += steps[i]
		y[i] += acc
	}
	return timeseries.New("golden-trending", t0, timeseries.Hourly, y)
}

// goldenFlat is a 14-day hourly series with a daily season and no trend,
// so Analyze chooses d=0.
func goldenFlat() *timeseries.Series {
	y := workload.DailySeasonal(336, 40, 6, 0, 1, 23)
	return timeseries.New("golden-flat", t0, timeseries.Hourly, y)
}

// TestEngineGoldenDigests runs the engine cold on a d=1 and a d=0 series
// and warm once per technique, and compares a bit-level digest of each
// result against the recorded one. FMA fusion on other architectures can
// move the last bit of a float, so the digests are amd64-only.
func TestEngineGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64; GOARCH=%s", runtime.GOARCH)
	}
	techniques := []Technique{TechniqueSARIMAX, TechniqueHES, TechniqueARIMA, TechniqueTBATS}
	series := []struct {
		ser   *timeseries.Series
		wantD int
	}{{goldenTrending(), 1}, {goldenFlat(), 0}}
	got := map[string]string{}
	for _, tech := range techniques {
		for i, s := range series {
			res, err := mustEngine(t, Options{Technique: tech, MaxCandidates: 4, Workers: 2}).Run(context.Background(), s.ser)
			if err != nil {
				t.Fatalf("%s cold on %s: %v", tech, s.ser.Name, err)
			}
			if res.Analysis.D != s.wantD {
				t.Fatalf("%s: d = %d, want %d", s.ser.Name, res.Analysis.D, s.wantD)
			}
			got[tech.String()+"/cold/"+s.ser.Name] = resultDigest(res)
			if i != 0 {
				continue
			}
			warm, err := mustEngine(t, Options{Technique: tech, MaxCandidates: 4, Workers: 2, Warm: WarmFromResult(res)}).Run(context.Background(), s.ser)
			if err != nil {
				t.Fatalf("%s warm on %s: %v", tech, s.ser.Name, err)
			}
			got[tech.String()+"/warm/"+s.ser.Name] = resultDigest(warm)
		}
	}
	for name, d := range got {
		if want := goldenRunDigests[name]; d != want {
			t.Errorf("%s: digest %s, want %s", name, d, want)
		}
	}
	if len(got) != len(goldenRunDigests) {
		t.Errorf("ran %d golden runs, %d recorded", len(got), len(goldenRunDigests))
	}
}

// resultDigest hashes the outputs TestEngineGoldenDigests pins.
func resultDigest(r *Result) string {
	h := sha256.New()
	h.Write([]byte(r.Champion.Label))
	for _, c := range r.Candidates {
		h.Write([]byte(c.Label))
		hashValue(h, reflect.ValueOf(c.Score.RMSE))
		hashValue(h, reflect.ValueOf(c.AIC))
	}
	hashValue(h, reflect.ValueOf(r.Analysis))
	hashValue(h, reflect.ValueOf(r.TestForecast))
	hashValue(h, reflect.ValueOf(r.Forecast.Mean))
	hashValue(h, reflect.ValueOf(r.Forecast.Lower))
	hashValue(h, reflect.ValueOf(r.Forecast.Upper))
	hashValue(h, reflect.ValueOf(r.Diagnose()))
	return hex.EncodeToString(h.Sum(nil))
}

// hashValue feeds v into h field by field: floats by math.Float64bits,
// integers and bools by value, strings by bytes; slices carry their
// length and nil pointers a marker, so shape changes move the digest.
func hashValue(h hash.Hash, v reflect.Value) {
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	switch v.Kind() {
	case reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Int:
		put(uint64(v.Int()))
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.String:
		h.Write([]byte(v.String()))
	case reflect.Slice:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			put(math.MaxUint64)
			return
		}
		hashValue(h, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashValue(h, v.Field(i))
		}
	default:
		panic("hashValue: unsupported kind " + v.Kind().String())
	}
}
