package fabric

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tearWAL appends a partial record with no trailing newline: the bytes a
// crash mid-append leaves behind.
func tearWAL(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"resu`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func appendWAL(t *testing.T, w *WAL, ids ...string) {
	t.Helper()
	for _, id := range ids {
		if err := w.Append(WALRecord{T: walSubmit, ID: id}); err != nil {
			t.Fatal(err)
		}
	}
}

func walIDs(w *WAL) []string {
	var ids []string
	for _, r := range w.Records() {
		ids = append(ids, r.ID)
	}
	return ids
}

// TestWALSurvivesRepeatedCrashes: every complete record must replay after
// any number of crash-and-restart cycles, each leaving a torn tail. The
// first append after a restart must not merge into the torn line.
func TestWALSurvivesRepeatedCrashes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gw.wal")
	var want []string
	for life := 0; life < 3; life++ {
		w, err := OpenWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := walIDs(w); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("life %d replayed %v, want %v", life, got, want)
		}
		if life > 0 && w.Skipped() != 1 {
			t.Fatalf("life %d: Skipped() = %d, want 1 (the torn tail)", life, w.Skipped())
		}
		ids := []string{fmt.Sprintf("j%d-a", life), fmt.Sprintf("j%d-b", life)}
		appendWAL(t, w, ids...)
		want = append(want, ids...)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		tearWAL(t, path)
	}
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := walIDs(w); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("final replay %v, want %v", got, want)
	}
}

// TestWALSkipsCorruptLine: a bad line in the middle of the journal is
// counted and skipped; the records after it still replay, and a gateway
// opened on the journal reports the skipped line on /metrics.
func TestWALSkipsCorruptLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gw.wal")
	data := `{"t":"submit","id":"a"}` + "\n" + `{"t":` + "\n" + `{"t":"submit","id":"b"}` + "\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(walIDs(w)); got != "[a b]" {
		t.Fatalf("replayed %s, want [a b]", got)
	}
	if w.Skipped() != 1 {
		t.Fatalf("Skipped() = %d, want 1", w.Skipped())
	}

	// The gateway takes ownership of w and closes it on Close.
	g := newTestGateway(t, newFakeClock(), nil, func(cfg *GatewayConfig) { cfg.WAL = w })
	var body strings.Builder
	if err := g.Metrics().WriteText(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.String(), "\nfabric_gateway_wal_skipped_lines 1\n") {
		t.Errorf("gateway metrics missing fabric_gateway_wal_skipped_lines 1:\n%s", body.String())
	}
}

// TestWALReadsLongLine: a record line longer than any scanner buffer (a
// large stored result) replays whole and is not counted as skipped.
func TestWALReadsLongLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gw.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	big := `{"pad":"` + strings.Repeat("x", 3<<20) + `"}`
	appendWAL(t, w, "a")
	if err := w.Append(WALRecord{T: walResult, ID: "a", Status: "done", Result: []byte(big)}); err != nil {
		t.Fatal(err)
	}
	appendWAL(t, w, "b")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, err = OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recs := w.Records()
	if w.Skipped() != 0 || len(recs) != 3 || string(recs[1].Result) != big || recs[2].ID != "b" {
		t.Fatalf("Skipped() = %d, %d records; want the long result read whole between a and b", w.Skipped(), len(recs))
	}
}
