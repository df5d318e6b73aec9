package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
)

// WALRecord is one line of the gateway's durable async-job log. Three
// record types share the struct:
//
//	submit   — a job entered the table: id, seq (for id-counter recovery),
//	           patch digest, and the normalized request JSON
//	dispatch — the job left the table for the fleet (informational; replay
//	           treats a dispatch without a result as still in flight)
//	result   — terminal state: status done|failed plus the node's response
//	           bytes or the failure message
type WALRecord struct {
	T      string          `json:"t"` // submit | dispatch | result
	ID     string          `json:"id"`
	Seq    uint64          `json:"seq,omitempty"`
	Digest string          `json:"digest,omitempty"`
	Req    json.RawMessage `json:"req,omitempty"`
	Status string          `json:"status,omitempty"` // done | failed
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// WAL record types.
const (
	walSubmit   = "submit"
	walDispatch = "dispatch"
	walResult   = "result"
)

// WAL is an append-only JSONL journal of the gateway's async jobs. On
// restart the gateway replays it: finished jobs answer polls again
// (byte-identically — results are stored as raw JSON), and jobs that never
// reached a terminal record are re-dispatched. Re-dispatch is idempotent
// because routing keys on the patch digest: the job lands on the node
// whose result cache already holds (or is computing) that evaluation.
//
// Durable here means surviving a process crash, any number of times: every
// complete line written before the crash replays. It does not mean
// surviving power loss or a kernel crash — appends are never synced, so
// lines still in the page cache can be lost.
type WAL struct {
	mu      sync.Mutex
	f       *os.File
	records []WALRecord
	skipped int
}

// OpenWAL opens (creating if absent) the journal at path and reads every
// intact record. A torn final line — the expected artifact of a crash
// mid-append — is cut off the file before it is reopened for append, so the
// next record starts on a line of its own. Complete lines that do not
// decode are skipped, not fatal; Skipped counts both.
func OpenWAL(path string) (*WAL, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("fabric: read wal %s: %w", path, err)
	}
	w := &WAL{}
	complete := bytes.LastIndexByte(data, '\n') + 1
	if complete < len(data) {
		if err := os.Truncate(path, int64(complete)); err != nil {
			return nil, fmt.Errorf("fabric: truncate torn wal tail %s: %w", path, err)
		}
		w.skipped++
	}
	for _, line := range bytes.Split(data[:complete], []byte{'\n'}) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rec WALRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			w.skipped++
			continue
		}
		w.records = append(w.records, rec)
	}
	if w.f, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, fmt.Errorf("fabric: open wal %s: %w", path, err)
	}
	return w, nil
}

// Skipped reports how many lines OpenWAL dropped: undecodable complete
// lines plus a torn final line.
func (w *WAL) Skipped() int { return w.skipped }

// Records returns the records read at open time, in log order.
func (w *WAL) Records() []WALRecord {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// Append writes one record as a single line.
func (w *WAL) Append(rec WALRecord) error {
	buf, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("fabric: encode wal record: %w", err)
	}
	buf = append(buf, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	_, err = w.f.Write(buf)
	return err
}

// Close closes the journal file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}
