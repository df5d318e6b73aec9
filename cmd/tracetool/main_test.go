package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"roadtrojan/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the testdata fixture journals and golden output")

// writeFixtures builds the committed three-process fixture: a gateway
// journal with one request (a failed attempt, then a winning one) and two
// node journals, one joining the trace under the winning attempt and one
// recording an unrelated local job. Everything runs on logical clocks, so
// the bytes are a pure function of this code.
func writeFixtures(t *testing.T, dir string) {
	t.Helper()
	journal := func(name string, fn func(tr *obs.Trace)) {
		f, err := os.Create(filepath.Join(dir, name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		j := obs.NewJournal(f)
		tr := obs.New(j, obs.NewLogicalClock())
		tr.SetProcess(name)
		fn(tr)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}

	var winCtx obs.SpanContext
	journal("gw", func(tr *obs.Trace) {
		req := tr.SpanInContext(obs.SpanContext{}, "gateway_request",
			obs.S("endpoint", "evaluate"), obs.S("method", "POST"))
		dsp := req.Child("dispatch", obs.S("key", "a1b2c3"))
		lost := dsp.Child("attempt", obs.S("node", "n1"), obs.I("pass", 0))
		_ = lost.Context() // the context travelled, but the node never answered
		lost.End(obs.S("outcome", "attempt_timeout"))
		win := dsp.Child("attempt", obs.S("node", "n2"), obs.I("pass", 0))
		winCtx = win.Context()
		win.End(obs.S("outcome", "ok"))
		dsp.End(obs.S("outcome", "ok"))
		req.End(obs.I("code", 200))
	})
	journal("n2", func(tr *obs.Trace) {
		job := tr.SpanInContext(winCtx, "fabric_job", obs.S("node", "n2"), obs.I64("job", 1))
		ev := job.Child("eval")
		run := ev.Child("run", obs.I("run", 0), obs.I("frames", 2))
		for frame := 0; frame < 2; frame++ {
			f := run.Child("forward", obs.I("frame", frame))
			f.End()
			d := run.Child("decode", obs.I("frame", frame))
			d.End()
		}
		run.End()
		ev.End()
		job.End(obs.S("code", "ok"))
	})
	journal("n1", func(tr *obs.Trace) {
		// A local root: this node did work outside any gateway trace.
		sp := tr.Span("fabric_job", obs.S("node", "n1"), obs.I64("job", 7))
		sp.End(obs.S("code", "ok"))
	})
}

func fixtureArgs(dir string) []string {
	return []string{
		"gw=" + filepath.Join(dir, "gw.jsonl"),
		"n1=" + filepath.Join(dir, "n1.jsonl"),
		"n2=" + filepath.Join(dir, "n2.jsonl"),
	}
}

func TestTracetoolGolden(t *testing.T) {
	dir := "testdata"
	golden := filepath.Join(dir, "merged.golden")
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		writeFixtures(t, dir)
	}

	var out, errw bytes.Buffer
	if err := run(fixtureArgs(dir), &out, &errw); err != nil {
		t.Fatal(err)
	}
	if errw.Len() != 0 {
		t.Fatalf("unexpected warnings: %s", errw.String())
	}

	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./cmd/tracetool -run Golden -update)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("merged output drifted from golden (regenerate with -update if intended):\n--- got\n%s\n--- want\n%s", out.Bytes(), want)
	}

	// The golden output must show one cross-process tree (gw root carrying
	// n2's subtree), the unrelated n1 root, and the analysis sections.
	for _, wantStr := range []string{
		"merged trace: 3 process(es), 2 root span(s)",
		"== causal tree",
		"== stage breakdown",
		"== critical path",
		"forward",
		"decode",
	} {
		if !strings.Contains(out.String(), wantStr) {
			t.Fatalf("golden output missing %q:\n%s", wantStr, out.String())
		}
	}
}

func TestTracetoolByteIdenticalReruns(t *testing.T) {
	render := func() string {
		var out, errw bytes.Buffer
		if err := run(fixtureArgs("testdata"), &out, &errw); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("tracetool output not byte-identical across runs:\n%s\n---\n%s", a, b)
	}
}

func TestTracetoolTornJournalWarnsAndMerges(t *testing.T) {
	// Copy the fixture, tear the last line of one journal, and merge: the
	// tool must warn on stderr and still produce a report.
	tmp := t.TempDir()
	for _, name := range []string{"gw.jsonl", "n1.jsonl", "n2.jsonl"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "n1.jsonl" {
			cut := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
			data = data[:cut+4] // half a record
		}
		if err := os.WriteFile(filepath.Join(tmp, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out, errw bytes.Buffer
	args := []string{
		"gw=" + filepath.Join(tmp, "gw.jsonl"),
		"n1=" + filepath.Join(tmp, "n1.jsonl"),
		"n2=" + filepath.Join(tmp, "n2.jsonl"),
	}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errw.String(), "torn trailing line") {
		t.Fatalf("no torn-line warning, stderr: %q", errw.String())
	}
	if !strings.Contains(out.String(), "== causal tree") {
		t.Fatalf("merge failed after torn line:\n%s", out.String())
	}
}

// TestTracetoolMidFileCorruptionWarnsAndMerges: a bit flip in the middle
// of one journal skips that line with one counted warning, and the merge
// still renders both roots.
func TestTracetoolMidFileCorruptionWarnsAndMerges(t *testing.T) {
	tmp := t.TempDir()
	args := make([]string, 0, 3)
	for _, proc := range []string{"gw", "n1", "n2"} {
		data, err := os.ReadFile(filepath.Join("testdata", proc+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if proc == "n2" {
			lines := bytes.SplitAfter(data, []byte("\n"))
			lines[9][0] ^= 1 // line 10 no longer opens a JSON object
			data = bytes.Join(lines, nil)
		}
		path := filepath.Join(tmp, proc+".jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		args = append(args, proc+"="+path)
	}
	var out, errw bytes.Buffer
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	want := "tracetool: " + filepath.Join(tmp, "n2.jsonl") + ": skipped 1 torn or undecodable line(s); first, line 10:"
	if !strings.HasPrefix(errw.String(), want) || strings.Count(errw.String(), "\n") != 1 {
		t.Fatalf("stderr %q, want one warning starting %q", errw.String(), want)
	}
	if !strings.Contains(out.String(), "merged trace: 3 process(es), 2 root span(s)") {
		t.Fatalf("merge failed after mid-file corruption:\n%s", out.String())
	}
}

func TestTracetoolBarePathDefaultsProcName(t *testing.T) {
	// A bare path (no proc= prefix) names the process after the file.
	tmp := t.TempDir()
	data, err := os.ReadFile(filepath.Join("testdata", "n1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(tmp, "solo.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if err := run([]string{path}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "solo") {
		t.Fatalf("default process name not derived from filename:\n%s", out.String())
	}
}
