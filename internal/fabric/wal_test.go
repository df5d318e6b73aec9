package fabric

import (
	"fmt"
	"os"
	"path/filepath"
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
// counted and skipped; the records after it still replay.
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
	defer w.Close()
	if got := fmt.Sprint(walIDs(w)); got != "[a b]" {
		t.Fatalf("replayed %s, want [a b]", got)
	}
	if w.Skipped() != 1 {
		t.Fatalf("Skipped() = %d, want 1", w.Skipped())
	}
}
