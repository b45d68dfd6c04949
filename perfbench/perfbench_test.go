package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json the program must honour.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	js, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(js, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWorkloadsSmall runs every workload at reduced size — the gated ones
// and serve-steady — untraced and traced, and checks that it passes its
// correctness checks and prints every metric BENCHMARK.json names, with
// its unit, as the last line.
func TestWorkloadsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("trains SARIMAX fleets")
	}
	c := loadContract(t)
	names := []string{"serve-steady"}
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	for _, name := range names {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": c.EndToEnd, "1": c.PerLayer} {
			name, trace, want := name, trace, want
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				err := run([]string{"--workload", name, "--seed", "3", "--seconds", "0", "--trace", trace,
					"--small", "--work", t.TempDir()}, &out)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("last line is not the report: %v", err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("report correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					if trace == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if trace == "1" && name == "backfill" {
					for metric, m := range rep.Metrics {
						if strings.Contains(metric, "core.") && m.Value != 0 {
							t.Errorf("backfill did core work: %s = %v", metric, m.Value)
						}
					}
				}
			})
		}
	}
}

// TestServeDeterministic replays the small shifted fleet twice and
// requires the same refits by reason and mode, advances and live MAPE.
func TestServeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("trains SARIMAX fleets")
	}
	in, err := generate(workloads["serve-shift"].small, 5)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var sigs []string
	for i := 0; i < 2; i++ {
		st, err := servePass(context.Background(), in, passOpts{dir: filepath.Join(dir, fmt.Sprint(i))})
		if err != nil {
			t.Fatal(err)
		}
		if len(st.failedChecks) > 0 {
			t.Fatalf("checks failed: %v", st.failedChecks)
		}
		if st.refits() == 0 {
			t.Fatalf("replay made no refit: %s", st.signature())
		}
		sigs = append(sigs, st.signature())
	}
	if sigs[0] != sigs[1] {
		t.Fatalf("outcomes differ:\n%s\n%s", sigs[0], sigs[1])
	}
}
