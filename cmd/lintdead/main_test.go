package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out files (slash-separated path → source) under a
// fresh temporary root and returns it.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const libSrc = `package p

// Used is called from a command.
func Used() {}

// Dead is called only from its own test.
func Dead() {}

// Kept is an ablation nothing in production runs.
//
// capplan:keep ablation: measured by a benchmark.
func Kept() {}

// Unreasoned claims the exemption without saying why.
//
// capplan:keep
func Unreasoned() {}

func unexported() {}

type T struct{}

// Dead on a method does not count as a use of the function Dead.
func (T) Dead() {}
`

const cmdSrc = `package main

import "example/internal/p"

func main() { p.Used() }
`

const testSrc = `package p

import "testing"

func TestDead(t *testing.T) { Dead(); Unreasoned(); unexported() }
`

func TestLintFlagsFunctionsOnlyTestsCall(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/p/p.go":      libSrc,
		"internal/p/p_test.go": testSrc,
		"cmd/c/main.go":        cmdSrc,
	})
	var out strings.Builder
	bad, err := lint(root, &out)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 2 || !strings.Contains(out.String(), " Dead has no caller") ||
		!strings.Contains(out.String(), " Unreasoned has no caller") {
		t.Fatalf("lint found %d, want Dead and Unreasoned:\n%s", bad, out.String())
	}
}

func TestLintPassesWhenEveryExportHasACaller(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/p/p.go":      strings.Replace(libSrc, "// capplan:keep\n", "// capplan:keep fixture for the p tests.\n", 1),
		"internal/p/p_test.go": testSrc,
		"cmd/c/main.go":        cmdSrc,
		// A caller in the nested benchmark module counts.
		"perfbench/main.go": "package main\n\nimport \"example/internal/p\"\n\nfunc main() { p.Dead() }\n",
	})
	bad, err := lint(root, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("lint found %d violations, want 0", bad)
	}
}
