package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden pair lives with the obs package; runreport is a thin shell
// over obs.ReadJournal + BuildReport + Render, so the same fixture pins the
// end-to-end CLI path.
const sampleDir = "../../internal/obs/testdata"

func TestRunRendersGoldenReport(t *testing.T) {
	var buf, errw bytes.Buffer
	if err := run([]string{filepath.Join(sampleDir, "sample.jsonl")}, &buf, &errw); err != nil {
		t.Fatal(err)
	}
	if errw.Len() != 0 {
		t.Fatalf("unexpected warnings: %s", errw.String())
	}
	want, err := os.ReadFile(filepath.Join(sampleDir, "sample.report.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("report drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestRunRejectsMissingArgs(t *testing.T) {
	if err := run(nil, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Fatal("want usage error for empty args")
	}
}

func TestRunRejectsBadJournal(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Fatal("want error for malformed journal")
	}
}

func TestRunMultipleJournalsAreHeadered(t *testing.T) {
	p := filepath.Join(sampleDir, "sample.jsonl")
	var buf bytes.Buffer
	if err := run([]string{p, p}, &buf, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(buf.Bytes(), []byte("== ")); got != 2 {
		t.Fatalf("want 2 per-file headers, got %d:\n%s", got, buf.Bytes())
	}
}

// TestRunWarnsOnMidFileCorruption: a damaged line in the middle of a
// journal is skipped and counted in one warning, and the report still
// renders from the records around it.
func TestRunWarnsOnMidFileCorruption(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(sampleDir, "sample.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines[3] = []byte("{\"k\":\"iter\",\"t\":\n") // line 4: cut mid-record
	path := filepath.Join(t.TempDir(), "damaged.jsonl")
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if err := run([]string{path}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if want := "runreport: " + path + ": skipped 1 torn or undecodable line(s); first, line 4:"; !strings.HasPrefix(errw.String(), want) {
		t.Fatalf("warning %q, want prefix %q", errw.String(), want)
	}
	if n := strings.Count(errw.String(), "\n"); n != 1 {
		t.Fatalf("%d warning lines, want 1:\n%s", n, errw.String())
	}
	for _, want := range []string{"journal: schema 1, 14 records", "restart segments", "evaluation: PWC 0.825"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, out.String())
		}
	}
}
