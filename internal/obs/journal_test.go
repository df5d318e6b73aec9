package obs

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// emitFixture drives one representative record sequence into a trace.
func emitFixture(tr *Trace) {
	root := tr.Span("train", S("method", "ours"), I("iters", 5))
	root.Iter(IterStats{
		Method: "ours", It: 0, Seg: 0,
		Attack: 12.5, Alpha: 10, Weighted: 125, GanG: 0.7, GanD: 1.386,
		Total: 125.7, PTarget: 0.01, GradNorm: 3.25, LR: 0.002,
		InkMean: 0.5, InkFrac: 0.5, Best: -1,
	})
	root.EOT(EOTDraw{It: 0, Frame: 1, Resize: 1.05, Rotation: -0.02, Bright: 1, Gamma: 1, Persp: 2.5})
	root.Verify(VerifyStats{It: 0, Score: 0.25, Best: 0.25, Kept: true})
	root.End()
	ev := tr.Span("eval")
	ev.EvalRun(EvalRunStats{Run: 0, PWC: 0.8, CWC: true, Frames: 24, WrongRun: 1, DetectRate: 0.96})
	ev.EvalScore(EvalScoreStats{PWC: 0.8, CWC: true, Frames: 24, WrongRun: 1, DetectRate: 0.96, Runs: 1})
	ev.End()
	_ = tr.Flush()
}

func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewJournal(&buf), NewLogicalClock())
	emitFixture(tr)

	if !strings.HasPrefix(buf.String(), fmt.Sprintf("{\"k\":\"journal\",\"schema\":%d}\n", SchemaVersion)) {
		t.Fatalf("missing or malformed header:\n%s", buf.String())
	}
	recs, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	kinds := make([]string, len(recs))
	for i := range recs {
		kinds[i] = recs[i].Kind
	}
	want := []string{"span_start", "iter", "eot", "verify", "span_end", "span_start", "eval_run", "eval_score", "span_end"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	iter := recs[1]
	if iter.Span != "train#0" {
		t.Fatalf("iter span = %q", iter.Span)
	}
	if iter.Float("attack") != 12.5 || iter.Int("it") != 0 || iter.Str("method") != "ours" {
		t.Fatalf("iter fields wrong: %+v", iter.Fields)
	}
	if iter.Float("best") != -1 {
		t.Fatalf("best = %v, want -1", iter.Float("best"))
	}
	score := recs[7]
	if score.Float("pwc") != 0.8 || score.Int("cwc") != 1 || score.Int("runs") != 1 {
		t.Fatalf("eval_score fields wrong: %+v", score.Fields)
	}
}

func TestJournalByteStable(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		tr := New(NewJournal(&buf), NewLogicalClock())
		emitFixture(tr)
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical record sequences produced different journal bytes:\n%s\n---\n%s", a, b)
	}
}

func TestJournalNonFiniteFloats(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewJournal(&buf), NewLogicalClock())
	sp := tr.Span("train")
	sp.Iter(IterStats{Method: "direct", Attack: math.NaN(), GradNorm: math.Inf(1), Total: math.Inf(-1)})
	sp.End()
	_ = tr.Flush()

	recs, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("journal with non-finite floats failed to parse: %v", err)
	}
	iter := recs[1]
	if !math.IsNaN(iter.Float("attack")) {
		t.Fatalf("attack = %v, want NaN", iter.Float("attack"))
	}
	if !math.IsInf(iter.Float("grad_norm"), 1) || !math.IsInf(iter.Float("total"), -1) {
		t.Fatalf("inf fields wrong: %v %v", iter.Float("grad_norm"), iter.Float("total"))
	}
}

func TestJournalStringEscaping(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewJournal(&buf), NewLogicalClock())
	sp := tr.Span("odd", S("note", "has\"quote\\back\nnew\ttab\x01ctl"))
	sp.End()
	_ = tr.Flush()
	recs, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("escaped journal failed to parse: %v", err)
	}
	if !strings.Contains(buf.String(), "\\u0001") {
		t.Fatalf("control byte not escaped:\n%s", buf.String())
	}
	if got := recs[0].Str("note"); got != "has\"quote\\back\nnew\ttab\x01ctl" {
		t.Fatalf("string did not round-trip: %q", got)
	}
}

// TestReadJournalRejections: a damaged header fails the read with no
// records; a damaged later line is skipped and counted with its line
// number and reason, and the record after it is kept.
func TestReadJournalRejections(t *testing.T) {
	const hdr = "{\"k\":\"journal\",\"schema\":1}\n"
	const next = "{\"k\":\"iter\",\"t\":7}\n"
	cases := []struct {
		name, in, wantErr string
		fatal             bool
	}{
		{"empty", "", "empty journal", true},
		{"no header", `{"k":"iter","t":1}` + "\n", "want header", true},
		{"wrong schema", `{"k":"journal","schema":999}` + "\n", "schema", true},
		{"bad header json", "not json\n" + next, "line 1: invalid character", true},
		{"blank first line", "\n" + hdr + next, "line 1: missing header", true},
		{"torn header", `{"k":"journal","schema":1}`, "line 1: torn trailing line", true},
		{"bad json", hdr + "not json\n" + next, "invalid character", false},
		{"unknown kind", hdr + "{\"k\":\"mystery\",\"t\":1}\n" + next, "unknown record kind \"mystery\"", false},
		{"missing kind", hdr + "{\"t\":1}\n" + next, "missing record kind", false},
		{"missing tick", hdr + "{\"k\":\"iter\"}\n" + next, "missing tick", false},
		{"dup header", hdr + hdr + next, "duplicate header", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs, err := ReadJournal(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("ReadJournal accepted %q", tc.in)
			}
			var skipped *SkippedLinesError
			if tc.fatal {
				if errors.As(err, &skipped) || recs != nil {
					t.Fatalf("damaged header: got %d records and %v, want a fatal error", len(recs), err)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not mention %q", err, tc.wantErr)
				}
				return
			}
			if !errors.As(err, &skipped) {
				t.Fatalf("error %v is not a *SkippedLinesError", err)
			}
			if fmt.Sprint(skipped.Lines) != "[2]" || skipped.Count() != 1 {
				t.Fatalf("skipped lines %v, want [2]", skipped.Lines)
			}
			if !strings.Contains(skipped.First.Error(), tc.wantErr) {
				t.Fatalf("reason %q does not mention %q", skipped.First, tc.wantErr)
			}
			if len(recs) != 1 || recs[0].Kind != "iter" || recs[0].Tick != 7 {
				t.Fatalf("records %+v, want the line-3 iter alone", recs)
			}
		})
	}
}

// TestReadJournalTornTail: a final line with no newline — a writer killed
// mid-record — is skipped and counted like any other bad line, even when
// the bytes before the missing newline are a whole record.
func TestReadJournalTornTail(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewJournal(&buf), NewLogicalClock())
	emitFixture(tr)
	whole := buf.Bytes()
	intact, err := ReadJournal(bytes.NewReader(whole))
	if err != nil {
		t.Fatalf("intact journal: %v", err)
	}
	lastLine := bytes.Count(whole, []byte("\n"))
	cut := bytes.LastIndexByte(whole[:len(whole)-1], '\n') + 1

	for name, torn := range map[string][]byte{
		"half a record":      whole[:cut+5],
		"record, no newline": whole[:len(whole)-1],
	} {
		recs, err := ReadJournal(bytes.NewReader(torn))
		var skipped *SkippedLinesError
		if !errors.As(err, &skipped) {
			t.Fatalf("%s: error %v, want *SkippedLinesError", name, err)
		}
		if fmt.Sprint(skipped.Lines) != fmt.Sprint([]int{lastLine}) || skipped.First != errTornLine {
			t.Fatalf("%s: skipped %v (%v), want line %d torn", name, skipped.Lines, skipped.First, lastLine)
		}
		if !strings.Contains(err.Error(), "torn trailing line") {
			t.Fatalf("%s: error %q does not name the torn line", name, err)
		}
		if len(recs) != len(intact)-1 {
			t.Fatalf("%s: kept %d records, want %d", name, len(recs), len(intact)-1)
		}
	}
}

// TestReadJournalSkipsMidFileCorruption: a bad line with good lines after
// it is skipped and counted, not fatal; every damaged line is listed and
// the first one's reason is kept.
func TestReadJournalSkipsMidFileCorruption(t *testing.T) {
	in := "{\"k\":\"journal\",\"schema\":1}\nnot json\n{\"k\":\"iter\",\"t\":1}\n\n{\"k\":\"iter\"}\n{\"k\":\"iter\",\"t\":2}\n"
	recs, err := ReadJournal(strings.NewReader(in))
	var skipped *SkippedLinesError
	if !errors.As(err, &skipped) {
		t.Fatalf("error %v, want *SkippedLinesError", err)
	}
	if skipped.Count() != 2 || fmt.Sprint(skipped.Lines) != "[2 5]" {
		t.Fatalf("skipped %v, want lines [2 5]", skipped.Lines)
	}
	if want := "skipped 2 torn or undecodable line(s); first, line 2: invalid character"; !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("error %q, want prefix %q", err, want)
	}
	if len(recs) != 2 || recs[0].Tick != 1 || recs[1].Tick != 2 {
		t.Fatalf("records %+v, want ticks 1 and 2", recs)
	}
}

// TestScanJSONLReadsLongLines: the scanner has no line-length cap. A line
// far past the old 1 MiB scanner limit arrives whole, between its
// neighbours.
func TestScanJSONLReadsLongLines(t *testing.T) {
	long := `{"k":"iter","t":2,"pad":"` + strings.Repeat("x", 3<<20) + `"}`
	in := "{\"k\":\"journal\",\"schema\":1}\n" + long + "\n{\"k\":\"iter\",\"t\":3}\n"
	recs, err := ReadJournal(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || len(recs[0].Str("pad")) != 3<<20 || recs[1].Tick != 3 {
		t.Fatalf("long line not read whole: %d records", len(recs))
	}
}

func TestJournalFileLifecycle(t *testing.T) {
	path := t.TempDir() + "/run.jsonl"
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(j, NewLogicalClock())
	emitFixture(tr)
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadJournal(f)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if len(recs) != 9 {
		t.Fatalf("got %d records, want 9", len(recs))
	}
}

// FuzzReadJournal pins the one JSONL policy on the run journal, the way
// FuzzWALReplay pins it on the WAL: emit a journal, then either truncate
// it at any offset (flip == 0) or flip one bit anywhere. Damage to the
// header line or its newline fails the read with no records. Otherwise
// the only error is a *SkippedLinesError, every record whose line and
// newline the damage missed comes back in order, and every non-empty line
// after the header is either returned or counted as skipped.
func FuzzReadJournal(f *testing.F) {
	for _, off := range []uint16{0, 1, 26, 27, 28, 60, 200, 500, 1000, 65535} {
		for _, flip := range []uint8{0, 1, 4, 8} {
			f.Add(off, flip)
		}
	}
	var buf bytes.Buffer
	emitFixture(New(NewJournal(&buf), NewLogicalClock()))
	clean := buf.Bytes()
	want, err := ReadJournal(bytes.NewReader(clean))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, offset uint16, flip uint8) {
		data := append([]byte(nil), clean...)
		// touched reports whether the damage reaches the line spanning
		// [start,end), its newline included; a flipped newline before the
		// line merges it into its predecessor.
		var touched func(start, end int) bool
		if flip == 0 {
			cut := int(offset) % (len(data) + 1)
			data = data[:cut]
			touched = func(_, end int) bool { return end > cut }
		} else {
			p := int(offset) % len(data)
			data[p] ^= 1 << ((flip - 1) % 8)
			touched = func(start, end int) bool { return start-1 <= p && p < end }
		}
		lines := bytes.SplitAfter(clean, []byte("\n"))[:len(want)+1]
		var intact []string
		start := len(lines[0])
		for i, rec := range want {
			end := start + len(lines[i+1])
			if !touched(start, end) {
				intact = append(intact, recordString(rec))
			}
			start = end
		}

		recs, err := ReadJournal(bytes.NewReader(data))
		if touched(0, len(lines[0])) {
			if err == nil || recs != nil {
				t.Fatalf("damaged header: got %d records, err %v", len(recs), err)
			}
			return
		}
		skipped := 0
		var sk *SkippedLinesError
		if errors.As(err, &sk) {
			skipped = sk.Count()
		} else if err != nil {
			t.Fatalf("intact header, read failed: %v", err)
		}
		got := make([]string, len(recs))
		for i, rec := range recs {
			got[i] = recordString(rec)
		}
		if !isSubsequence(intact, got) {
			t.Fatalf("read lost intact records:\n got %q\nwant %q in order", got, intact)
		}
		// Count the damaged file's lines after the header the way the
		// scanner sees them: a terminated line unless blank, and any
		// bytes after the last newline.
		after := bytes.Split(data, []byte("\n"))[1:]
		nonEmpty := 0
		for i, line := range after {
			if (i == len(after)-1 && len(line) > 0) || len(bytes.TrimSpace(line)) > 0 {
				nonEmpty++
			}
		}
		if len(recs)+skipped != nonEmpty {
			t.Fatalf("%d records + %d skipped != %d non-empty lines after the header", len(recs), skipped, nonEmpty)
		}
	})
}

func recordString(r JournalRecord) string { return fmt.Sprint(r.Fields) }

// isSubsequence reports whether want appears in got in order.
func isSubsequence(want, got []string) bool {
	i := 0
	for _, g := range got {
		if i < len(want) && g == want[i] {
			i++
		}
	}
	return i == len(want)
}
