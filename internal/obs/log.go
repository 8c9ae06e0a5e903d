package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Level classifies log records. The zero value is LevelInfo, so a
// zero-configured logger logs info and above.
type Level int8

// Levels, in increasing severity.
const (
	LevelDebug Level = iota - 1
	LevelInfo
	LevelWarn
	LevelError
)

// String names the level.
func (l Level) String() string {
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
		return fmt.Sprintf("level(%d)", int8(l))
	}
}

// ParseLevel maps a level name ("debug", "info", "warn", "error") to
// its Level; unknown names select LevelInfo.
func ParseLevel(s string) Level {
	switch strings.ToLower(strings.TrimSpace(s)) {
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

// Logger is a leveled, structured logger: records are a message plus
// key=value fields, rendered either as logfmt-style text or as one JSON
// object per line. It is zero-dependency (stdlib only) so every layer
// can log through it, and nil-safe — a nil *Logger discards everything
// at the cost of one nil check, mirroring the trace API.
//
// Loggers derived with With share the parent's writer and mutex, so a
// process logs through one serialized stream no matter how many
// per-session children exist.
type Logger struct {
	mu     *sync.Mutex
	w      io.Writer
	level  Level
	json   bool
	fields []Attr
}

// NewLogger returns a text-format logger at LevelInfo writing to w.
func NewLogger(w io.Writer) *Logger {
	return &Logger{mu: &sync.Mutex{}, w: w}
}

// NewJSONLogger returns a JSON-lines logger at LevelInfo writing to w.
func NewJSONLogger(w io.Writer) *Logger {
	return &Logger{mu: &sync.Mutex{}, w: w, json: true}
}

// SetLevel sets the minimum level that is written.
func (l *Logger) SetLevel(lv Level) *Logger {
	if l != nil {
		l.level = lv
	}
	return l
}

// Level returns the minimum written level.
func (l *Logger) Level() Level {
	if l == nil {
		return LevelInfo
	}
	return l.level
}

// Enabled reports whether records at lv are written.
func (l *Logger) Enabled(lv Level) bool {
	return l != nil && lv >= l.level
}

// With returns a child logger whose records carry the given key/value
// pairs in addition to the parent's. The child shares the parent's
// writer, level and format. Pairs are (string key, value); a trailing
// odd value is recorded under the key "!extra".
func (l *Logger) With(kv ...any) *Logger {
	if l == nil || len(kv) == 0 {
		return l
	}
	child := *l
	child.fields = append(append([]Attr(nil), l.fields...), attrs(kv)...)
	return &child
}

// Debug writes a debug-level record.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info writes an info-level record.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn writes a warn-level record.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error writes an error-level record.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

// attrs converts alternating key/value arguments into Attr fields,
// collapsing everything non-string/non-integer through fmt.
func attrs(kv []any) []Attr {
	out := make([]Attr, 0, (len(kv)+1)/2)
	for i := 0; i < len(kv); i += 2 {
		if i+1 >= len(kv) {
			out = append(out, Attr{Key: "!extra", Str: fmt.Sprint(kv[i]), IsStr: true})
			break
		}
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		switch v := kv[i+1].(type) {
		case int:
			out = append(out, Attr{Key: key, Int: int64(v)})
		case int64:
			out = append(out, Attr{Key: key, Int: v})
		case uint64:
			out = append(out, Attr{Key: key, Int: int64(v)})
		case string:
			out = append(out, Attr{Key: key, Str: v, IsStr: true})
		case time.Duration:
			out = append(out, Attr{Key: key, Str: v.String(), IsStr: true})
		case error:
			out = append(out, Attr{Key: key, Str: v.Error(), IsStr: true})
		case bool:
			out = append(out, Attr{Key: key, Str: strconv.FormatBool(v), IsStr: true})
		case fmt.Stringer:
			out = append(out, Attr{Key: key, Str: v.String(), IsStr: true})
		default:
			out = append(out, Attr{Key: key, Str: fmt.Sprint(v), IsStr: true})
		}
	}
	return out
}

func (l *Logger) log(lv Level, msg string, kv []any) {
	if l == nil || lv < l.level {
		return
	}
	now := time.Now()
	var line []byte
	if l.json {
		line = l.renderJSON(now, lv, msg, kv)
	} else {
		line = l.renderText(now, lv, msg, kv)
	}
	l.mu.Lock()
	l.w.Write(line)
	l.mu.Unlock()
}

func (l *Logger) renderText(now time.Time, lv Level, msg string, kv []any) []byte {
	var b strings.Builder
	b.WriteString(now.UTC().Format("2006-01-02T15:04:05.000Z"))
	b.WriteByte(' ')
	b.WriteString(strings.ToUpper(lv.String()))
	b.WriteByte(' ')
	b.WriteString(msg)
	for _, a := range append(append([]Attr(nil), l.fields...), attrs(kv)...) {
		b.WriteByte(' ')
		b.WriteString(a.Key)
		b.WriteByte('=')
		v := a.Value()
		if a.IsStr && strings.ContainsAny(v, " \t\"=") {
			b.WriteString(strconv.Quote(v))
		} else {
			b.WriteString(v)
		}
	}
	b.WriteByte('\n')
	return []byte(b.String())
}

func (l *Logger) renderJSON(now time.Time, lv Level, msg string, kv []any) []byte {
	var b strings.Builder
	b.WriteString(`{"ts":`)
	b.WriteString(strconv.Quote(now.UTC().Format(time.RFC3339Nano)))
	b.WriteString(`,"level":`)
	b.WriteString(strconv.Quote(lv.String()))
	b.WriteString(`,"msg":`)
	b.WriteString(mustJSON(msg))
	for _, a := range append(append([]Attr(nil), l.fields...), attrs(kv)...) {
		b.WriteByte(',')
		b.WriteString(mustJSON(a.Key))
		b.WriteByte(':')
		if a.IsStr {
			b.WriteString(mustJSON(a.Str))
		} else {
			b.WriteString(strconv.FormatInt(a.Int, 10))
		}
	}
	b.WriteString("}\n")
	return []byte(b.String())
}

// mustJSON renders a string as a JSON value (json.Marshal on a string
// cannot fail).
func mustJSON(s string) string {
	out, _ := json.Marshal(s)
	return string(out)
}
