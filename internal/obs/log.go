package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level grades log severity.
type Level int

const (
	// LevelDebug is per-candidate / per-poll detail.
	LevelDebug Level = iota - 1
	// LevelInfo is per-stage and per-workload progress (the default).
	LevelInfo
	// LevelWarn flags recoverable anomalies (failed fits, stale models).
	LevelWarn
	// LevelError flags failures that abort a unit of work.
	LevelError
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "DEBUG"
	case LevelInfo:
		return "INFO"
	case LevelWarn:
		return "WARN"
	case LevelError:
		return "ERROR"
	default:
		return fmt.Sprintf("LEVEL(%d)", int(l))
	}
}

// Logger writes leveled key=value lines to a single io.Writer. It is
// safe for concurrent use; a nil *Logger discards everything.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	min   Level
	clock func() time.Time
}

// NewLogger returns a Logger emitting records at or above min to w.
func NewLogger(w io.Writer, min Level) *Logger {
	return &Logger{w: w, min: min, clock: time.Now}
}

// Enabled reports whether records at level would be written.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && l.w != nil && level >= l.min
}

// Log writes one record: `ts LEVEL msg k=v k=v …`. keyvals alternate
// key, value; a trailing odd key gets the value "(MISSING)".
func (l *Logger) Log(level Level, msg string, keyvals ...any) {
	if !l.Enabled(level) {
		return
	}
	var b strings.Builder
	b.WriteString(l.clock().UTC().Format("2006-01-02T15:04:05.000Z"))
	b.WriteByte(' ')
	b.WriteString(level.String())
	b.WriteByte(' ')
	b.WriteString(msg)
	for i := 0; i < len(keyvals); i += 2 {
		key := fmt.Sprint(keyvals[i])
		var val string
		if i+1 < len(keyvals) {
			val = formatValue(keyvals[i+1])
		} else {
			val = "(MISSING)"
		}
		b.WriteByte(' ')
		b.WriteString(key)
		b.WriteByte('=')
		b.WriteString(val)
	}
	b.WriteByte('\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	io.WriteString(l.w, b.String())
}
