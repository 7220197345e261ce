package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// LogLevel orders log severities.
type LogLevel int32

const (
	LevelDebug LogLevel = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String renders the level the way it appears on the wire.
func (l LogLevel) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "info"
	}
}

// ParseLogLevel maps a level name to its LogLevel (default info).
func ParseLogLevel(s string) LogLevel {
	switch s {
	case "debug":
		return LevelDebug
	case "warn", "warning":
		return LevelWarn
	case "error":
		return LevelError
	default:
		return LevelInfo
	}
}

// Field is one structured key/value on a log entry. The conventional
// trace-correlation keys — trace_id, span_id, worker_id, task_id, job_id
// — have constructors below so call sites stay greppable and typo-free.
type Field struct {
	Key   string
	Value any
}

// F builds an arbitrary field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// TraceID tags an entry with the distributed trace it belongs to.
func TraceID(id string) Field { return Field{Key: "trace_id", Value: id} }

// WorkerID tags an entry with a worker.
func WorkerID(id string) Field { return Field{Key: "worker_id", Value: id} }

// TaskID tags an entry with a task.
func TaskID(id string) Field { return Field{Key: "task_id", Value: id} }

// JobID tags an entry with a TD job.
func JobID(id string) Field { return Field{Key: "job_id", Value: id} }

// Err tags an entry with an error's message (skipped for nil errors).
func Err(err error) Field {
	if err == nil {
		return Field{}
	}
	return Field{Key: "error", Value: err.Error()}
}

// LogEntry is one recorded log event. Fields are flattened next to the
// fixed keys when the entry is encoded as a JSON line.
type LogEntry struct {
	Time   time.Time      `json:"time"`
	Level  string         `json:"level"`
	Msg    string         `json:"msg"`
	Fields map[string]any `json:"fields,omitempty"`
}

// MarshalJSON flattens Fields into the top-level object so a line reads
// {"time":...,"level":"info","msg":"...","worker_id":"w-1",...}. Fixed
// keys win on collision.
func (e LogEntry) MarshalJSON() ([]byte, error) {
	flat := make(map[string]any, len(e.Fields)+3)
	for k, v := range e.Fields {
		flat[k] = v
	}
	flat["time"] = e.Time
	flat["level"] = e.Level
	flat["msg"] = e.Msg
	return json.Marshal(flat)
}

// logCore is the sink shared by a Logger and all its With-children: an
// optional JSON-lines writer plus a fixed-capacity ring of recent
// entries backing the /logs endpoint.
type logCore struct {
	min LogLevel // fixed at construction, read without the mutex

	mu   sync.Mutex
	w    io.Writer
	ring Ring[LogEntry]
}

// Logger is a leveled, structured, zero-dependency logger. Entries go to
// an optional io.Writer as JSON lines and always into a ring buffer of
// recent entries (served by the telemetry /logs endpoint). A nil *Logger
// is valid and discards everything, so library code can log
// unconditionally — the repo-wide pay-for-use telemetry idiom.
type Logger struct {
	core *logCore
	// base fields are attached to every entry (see With).
	base []Field
}

// NewLogger creates a logger writing JSON lines to w (nil = ring only)
// at the given minimum level, keeping the most recent capacity entries
// (default 1024 when capacity <= 0).
func NewLogger(w io.Writer, min LogLevel, capacity int) *Logger {
	if capacity <= 0 {
		capacity = 1024
	}
	c := &logCore{min: min, w: w, ring: NewRing[LogEntry](capacity)}
	return &Logger{core: c}
}

// With returns a logger that attaches fields to every entry, sharing the
// parent's sink, ring and level. Nil-safe (returns nil).
func (l *Logger) With(fields ...Field) *Logger {
	if l == nil {
		return nil
	}
	base := make([]Field, 0, len(l.base)+len(fields))
	base = append(base, l.base...)
	base = append(base, fields...)
	return &Logger{core: l.core, base: base}
}

// Debug logs at debug level. Nil-safe, like every level method.
func (l *Logger) Debug(msg string, fields ...Field) { l.log(LevelDebug, msg, fields) }

// Info logs at info level.
func (l *Logger) Info(msg string, fields ...Field) { l.log(LevelInfo, msg, fields) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, fields ...Field) { l.log(LevelWarn, msg, fields) }

// Error logs at error level.
func (l *Logger) Error(msg string, fields ...Field) { l.log(LevelError, msg, fields) }

func (l *Logger) log(level LogLevel, msg string, fields []Field) {
	// The level first: a filtered call reads no clock and builds no map.
	if l == nil || level < l.core.min {
		return
	}
	e := LogEntry{Time: time.Now(), Level: level.String(), Msg: msg}
	if n := len(l.base) + len(fields); n > 0 {
		e.Fields = make(map[string]any, n)
		for _, f := range l.base {
			if f.Key != "" {
				e.Fields[f.Key] = f.Value
			}
		}
		for _, f := range fields {
			if f.Key != "" {
				e.Fields[f.Key] = f.Value
			}
		}
		if len(e.Fields) == 0 {
			e.Fields = nil
		}
	}
	c := l.core
	c.mu.Lock()
	c.ring.Push(e)
	w := c.w
	var line []byte
	if w != nil {
		// Encode inside the lock so concurrent writers cannot interleave
		// lines; the encode itself is small.
		var err error
		line, err = json.Marshal(e)
		if err != nil {
			line = nil
		}
	}
	if line != nil {
		_, _ = w.Write(append(line, '\n'))
	}
	c.mu.Unlock()
}

// Entries returns the buffered entries, oldest first. Safe on nil.
func (l *Logger) Entries() []LogEntry {
	if l == nil {
		return nil
	}
	c := l.core
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Ordered()
}

// EntriesFiltered returns buffered entries newer than since (zero time =
// all), at or above min severity, keeping only the newest limit entries
// (limit <= 0 = no cap). Oldest first. Safe on nil.
func (l *Logger) EntriesFiltered(since time.Time, min LogLevel, limit int) []LogEntry {
	all := l.Entries()
	out := all[:0:len(all)]
	for _, e := range all {
		if !since.IsZero() && e.Time.Before(since) {
			continue
		}
		if ParseLogLevel(e.Level) < min {
			continue
		}
		out = append(out, e)
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// WriteJSONFiltered dumps the entries EntriesFiltered returns as a JSON
// array (the /logs payload).
func (l *Logger) WriteJSONFiltered(w io.Writer, since time.Time, min LogLevel, limit int) error {
	entries := l.EntriesFiltered(since, min, limit)
	if entries == nil {
		entries = []LogEntry{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(entries)
}
