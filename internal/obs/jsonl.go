package obs

import (
	"bytes"
	"errors"
	"fmt"
)

// errTornLine is the skip reason for an unterminated final line.
var errTornLine = errors.New("torn trailing line (no newline)")

// SkippedLinesError reports the lines a JSONL read skipped. It is not a
// read failure: the records returned beside it are every other line,
// intact. Callers that tolerate damage take it with errors.As and warn.
type SkippedLinesError struct {
	Lines []int // 1-based line numbers, ascending
	First error // why Lines[0] was skipped
}

// Count reports how many lines were skipped.
func (e *SkippedLinesError) Count() int { return len(e.Lines) }

func (e *SkippedLinesError) Error() string {
	return fmt.Sprintf("skipped %d torn or undecodable line(s); first, line %d: %v", len(e.Lines), e.Lines[0], e.First)
}

// ScanJSONL is the one JSONL line scanner, behind ReadJournal and
// fabric.OpenWAL alike. It hands each newline-terminated, non-blank line
// of data to decode, trimmed, with its 1-based number. Damage has one
// policy, wherever it sits: a line decode rejects is skipped and counted,
// and so is an unterminated final line — what a writer killed mid-append
// leaves — without being decoded. complete is the length of data up to
// and including its last newline; skipped is nil when nothing was.
func ScanJSONL(data []byte, decode func(line int, text []byte) error) (complete int, skipped *SkippedLinesError) {
	skip := func(line int, err error) {
		if skipped == nil {
			skipped = &SkippedLinesError{First: err}
		}
		skipped.Lines = append(skipped.Lines, line)
	}
	for line := 1; complete < len(data); line++ {
		n := bytes.IndexByte(data[complete:], '\n')
		if n < 0 {
			skip(line, errTornLine)
			break
		}
		if text := bytes.TrimSpace(data[complete : complete+n]); len(text) > 0 {
			if err := decode(line, text); err != nil {
				skip(line, err)
			}
		}
		complete += n + 1
	}
	return complete, skipped
}
