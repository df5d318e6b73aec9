package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"sync"
)

// Journal is a buffered JSONL sink with a versioned schema. Each record is
// one JSON object per line; the first line is the header
// {"k":"journal","schema":N}. Encoding is hand-rolled over a reused scratch
// buffer so that field order, float formatting, and therefore the journal
// bytes are a pure function of the emitted records — the property the
// golden-journal test pins.
type Journal struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	closer io.Closer
	buf    []byte
	err    error
}

// NewJournal wraps w and writes the schema header immediately.
func NewJournal(w io.Writer) *Journal {
	j := &Journal{bw: bufio.NewWriterSize(w, 64<<10)}
	fmt.Fprintf(j.bw, "{\"k\":\"journal\",\"schema\":%d}\n", SchemaVersion)
	return j
}

// OpenJournal creates (truncating) a journal file at path.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: open journal: %w", err)
	}
	j := NewJournal(f)
	j.closer = f
	return j, nil
}

// Emit encodes one record as a JSON line.
func (j *Journal) Emit(r *Record) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	b := j.buf[:0]
	b = append(b, `{"k":`...)
	b = appendJSONString(b, r.Kind)
	if r.Span != "" {
		b = append(b, `,"sp":`...)
		b = appendJSONString(b, r.Span)
	}
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, r.Tick, 10)
	for i := range r.Attrs {
		a := &r.Attrs[i]
		b = append(b, ',')
		b = appendJSONString(b, a.Key)
		b = append(b, ':')
		switch a.Kind {
		case AttrInt:
			b = strconv.AppendInt(b, a.Int, 10)
		case AttrString:
			b = appendJSONString(b, a.Str)
		default:
			b = appendJSONFloat(b, a.Num)
		}
	}
	b = append(b, '}', '\n')
	j.buf = b
	if _, err := j.bw.Write(b); err != nil {
		j.err = err
	}
}

// Flush drains the write buffer, reporting the first write error.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.bw.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	return j.err
}

// Close flushes and closes the underlying file, when Journal owns one.
func (j *Journal) Close() error {
	err := j.Flush()
	if j.closer != nil {
		if cerr := j.closer.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// appendJSONString appends s as a JSON string literal. Only the escapes
// JSON requires: backslash, double quote, and control characters.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '\\' || c == '"':
			b = append(b, '\\', c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\t':
			b = append(b, '\\', 't')
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', hexDigit(c>>4), hexDigit(c&0xf))
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

func hexDigit(n byte) byte {
	if n < 10 {
		return '0' + n
	}
	return 'a' + n - 10
}

// appendJSONFloat appends v in shortest round-trip form. NaN and ±Inf are
// not representable in JSON numbers; they are stored as strings so the
// journal stays parseable even when a loss diverges.
func appendJSONFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) {
		return append(b, `"NaN"`...)
	}
	if math.IsInf(v, 1) {
		return append(b, `"+Inf"`...)
	}
	if math.IsInf(v, -1) {
		return append(b, `"-Inf"`...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// JournalRecord is one parsed journal line.
type JournalRecord struct {
	Kind   string
	Span   string
	Tick   int64
	Fields map[string]any // the full decoded object, including k/sp/t
}

// Float returns a numeric field (accepting the string forms of NaN/±Inf);
// 0 when absent.
func (r *JournalRecord) Float(key string) float64 {
	switch v := r.Fields[key].(type) {
	case float64:
		return v
	case string:
		switch v {
		case "NaN":
			return math.NaN()
		case "+Inf":
			return math.Inf(1)
		case "-Inf":
			return math.Inf(-1)
		}
	}
	return 0
}

// Int returns a numeric field truncated to int64; 0 when absent.
func (r *JournalRecord) Int(key string) int64 {
	if v, ok := r.Fields[key].(float64); ok {
		return int64(v)
	}
	return 0
}

// Str returns a string field; "" when absent.
func (r *JournalRecord) Str(key string) string {
	v, _ := r.Fields[key].(string)
	return v
}

// ReadJournal reads a JSONL journal through ScanJSONL. The header is
// fatal: empty input, or a first line that is not a journal record at the
// current schema version, fails the read with no records. After it, a line
// that is not a JSON object with a known kind and a tick, or is a second
// header, is skipped and counted like a torn final line; the intact
// records then come back with a *SkippedLinesError. The header record is
// not returned.
func ReadJournal(r io.Reader) ([]JournalRecord, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("obs: reading journal: %w", err)
	}
	if len(data) == 0 {
		return nil, errors.New("obs: empty journal (no header)")
	}
	var out []JournalRecord
	var header bool
	_, skipped := ScanJSONL(data, func(line int, text []byte) error {
		if line > 1 && !header {
			return nil // the read fails on its header below
		}
		var fields map[string]any
		if err := json.Unmarshal(text, &fields); err != nil {
			return err
		}
		kind, _ := fields["k"].(string)
		tick, hasTick := fields["t"].(float64)
		switch schema, _ := fields["schema"].(float64); {
		case line == 1 && (kind != "journal" || schema != SchemaVersion):
			return fmt.Errorf("want header record at schema %d, got kind %q schema %v", SchemaVersion, kind, fields["schema"])
		case line == 1:
			header = true
			return nil
		case kind == "":
			return errors.New("missing record kind")
		case kind == "journal":
			return errors.New("duplicate header")
		case !knownKinds[kind]:
			return fmt.Errorf("unknown record kind %q", kind)
		case !hasTick:
			return errors.New("missing tick")
		}
		span, _ := fields["sp"].(string)
		out = append(out, JournalRecord{Kind: kind, Span: span, Tick: int64(tick), Fields: fields})
		return nil
	})
	switch {
	case !header && skipped != nil && skipped.Lines[0] == 1:
		return nil, fmt.Errorf("obs: journal line 1: %w", skipped.First)
	case !header:
		return nil, errors.New("obs: journal line 1: missing header")
	case skipped != nil:
		return out, skipped
	}
	return out, nil
}
