package obs

import (
	"strings"
	"testing"
)

// promUnescapeLabel is the spec-side inverse of promEscapeLabel: a
// Prometheus text-format parser recognises exactly \\, \" and \n inside
// a quoted label value and takes every other byte verbatim.
func promUnescapeLabel(t *testing.T, v string) string {
	t.Helper()
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		if v[i] != '\\' {
			b.WriteByte(v[i])
			continue
		}
		i++
		if i >= len(v) {
			t.Fatalf("dangling backslash in %q", v)
		}
		switch v[i] {
		case '\\':
			b.WriteByte('\\')
		case '"':
			b.WriteByte('"')
		case 'n':
			b.WriteByte('\n')
		default:
			t.Fatalf("escape sequence \\%c in %q is not in the exposition spec", v[i], v)
		}
	}
	return b.String()
}

var trickyLabelValues = []string{
	"plain",
	"",
	`with "quotes"`,
	`back\slash`,
	"line\nbreak",
	`\"already escaped-looking\"`,
	"tab\tand bell\a",  // control bytes other than \n pass through raw
	"unicode 主机 και ω", // UTF-8 passes through raw
	"trailing backslash \\",
	"\n\"\\",
}

func TestPromEscapeLabelRoundTrip(t *testing.T) {
	for _, v := range trickyLabelValues {
		esc := promEscapeLabel(v)
		if strings.ContainsAny(esc, "\n\"") && !strings.Contains(esc, `\"`) {
			t.Errorf("escaped form %q still contains raw quote/newline", esc)
		}
		if got := promUnescapeLabel(t, esc); got != v {
			t.Errorf("round trip %q -> %q -> %q", v, esc, got)
		}
	}
}

// TestWritePrometheusEscapedExposition drives the full path: record a
// series whose label value needs every escape, then recover the value
// from the exposition text exactly as a Prometheus scraper would.
func TestWritePrometheusEscapedExposition(t *testing.T) {
	for _, v := range trickyLabelValues {
		r := NewRegistry()
		r.Counter("scrapes_total", L("target", v)).Add(1)
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		var line string
		for _, l := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(l, "scrapes_total{") {
				line = l
				break
			}
		}
		if line == "" {
			t.Fatalf("series missing from exposition:\n%s", b.String())
		}
		// The value must sit on one line between unescaped quotes.
		open := strings.Index(line, `target="`) + len(`target="`)
		close := open
		for close < len(line) && (line[close] != '"' || line[close-1] == '\\' && !escapedBackslashBefore(line, close)) {
			close++
		}
		if close >= len(line) {
			t.Fatalf("unterminated label value in %q", line)
		}
		if got := promUnescapeLabel(t, line[open:close]); got != v {
			t.Errorf("exposition round trip: wrote %q, scraped %q from line %q", v, got, line)
		}
	}
}

// escapedBackslashBefore reports whether the backslash at i-1 is itself
// escaped (an even run of backslashes ends at i-1), meaning the quote at
// i really terminates the value.
func escapedBackslashBefore(s string, i int) bool {
	n := 0
	for j := i - 1; j >= 0 && s[j] == '\\'; j-- {
		n++
	}
	return n%2 == 0
}
