package fabric

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"
	"unicode/utf8"

	"roadtrojan/internal/serve"
	"roadtrojan/internal/telemetry"
)

// FuzzReadFrame pins the strict-decode contract: whatever bytes arrive,
// ReadFrame returns io.EOF (clean boundary) or an ErrBadFrame-wrapped
// error — it never panics, and every frame it does accept re-encodes to a
// byte-identical wire image.
func FuzzReadFrame(f *testing.F) {
	f.Add(AppendFrame(nil, Frame{Type: FrameHealth, Payload: []byte(`{"id":"n1","workers":4}`)}))
	f.Add(AppendFrame(nil, Frame{Type: FrameJob, JobID: 7, Payload: []byte(`{"req":{"scene":"road","seed":3}}`)}))
	f.Add(AppendFrame(nil, Frame{Type: FrameHealth, Payload: []byte(`{"draining":true}`)}))
	two := AppendFrame(nil, Frame{Type: FrameJob, JobID: 1})
	f.Add(AppendFrame(two, Frame{Type: FrameResult, JobID: 1, Payload: []byte(`{"pwc":0.5}`)}))
	valid := AppendFrame(nil, Frame{Type: FrameHealth, Payload: []byte(`{}`)})
	f.Add(valid[:len(valid)-1]) // truncated payload
	f.Add(valid[:headerSize-3]) // truncated header
	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'X'
	f.Add(badMagic)
	hugeLen := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(hugeLen[16:20], MaxPayload+1)
	f.Add(hugeLen)
	f.Add([]byte{})
	f.Add([]byte("RTFB"))
	// Chaos-shaped corpora: every truncation point of a two-frame stream
	// (mid-header, mid-payload, and at frame boundaries), and a single-bit
	// flip at every position of a small valid frame — the wire images the
	// fault injector's truncate and corrupt faults actually produce.
	stream := AppendFrame(AppendFrame(nil, Frame{Type: FrameJob, JobID: 9}),
		Frame{Type: FrameResult, JobID: 9, Payload: []byte(`{"pwc":0.5,"cached":false}`)})
	for i := range stream {
		f.Add(append([]byte(nil), stream[:i]...))
	}
	small := AppendFrame(nil, Frame{Type: FrameError, JobID: 2, Payload: []byte(`{"code":"x"}`)})
	for i := range small {
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), small...)
			flipped[i] ^= 1 << bit
			f.Add(flipped)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			fr, err := ReadFrame(r)
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrBadFrame) {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			if !frameTypeValid(fr.Type) {
				t.Fatalf("decoder accepted invalid type %d", fr.Type)
			}
			if len(fr.Payload) > MaxPayload {
				t.Fatalf("decoder accepted oversize payload %d", len(fr.Payload))
			}
			enc := AppendFrame(nil, fr)
			back, err := ReadFrame(bytes.NewReader(enc))
			if err != nil {
				t.Fatalf("re-decode of accepted frame failed: %v", err)
			}
			if back.Type != fr.Type || back.JobID != fr.JobID || !bytes.Equal(back.Payload, fr.Payload) {
				t.Fatalf("round trip mismatch: %+v vs %+v", fr, back)
			}
		}
	})
}

// walFuzzRecord is record i of the journal FuzzWALReplay damages, cycling
// through the three record types with their optional fields.
func walFuzzRecord(i int) WALRecord {
	id := fmt.Sprintf("j%06d-%x", i+1, i*7919)
	switch i % 3 {
	case 0:
		return WALRecord{T: walSubmit, ID: id, Seq: uint64(i + 1), Digest: fmt.Sprintf("%016x", i*104729),
			Req: json.RawMessage(`{"scene":"road","challenge":"fix","seed":` + strconv.Itoa(i) + `}`)}
	case 1:
		return WALRecord{T: walDispatch, ID: id}
	default:
		return WALRecord{T: walResult, ID: id, Status: "done", Result: json.RawMessage(`{"pwc":0.25,"cached":false}`)}
	}
}

// walLines encodes replayed records the way Append writes them, for
// comparison against the lines originally written.
func walLines(t *testing.T, recs []WALRecord) []string {
	t.Helper()
	out := make([]string, len(recs))
	for i, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

// isSubsequence reports whether want appears in got in order. A damaged line
// may still decode (a flipped bit inside an id is a different valid record),
// so replay may hold extra records — never fewer intact ones.
func isSubsequence(want, got []string) bool {
	i := 0
	for _, g := range got {
		if i < len(want) && g == want[i] {
			i++
		}
	}
	return i == len(want)
}

// FuzzWALReplay pins the WAL's crash contract: write n records, then either
// truncate the file at any offset (flip == 0) or flip one bit anywhere. The
// journal must still open, replay every record whose line the damage did
// not touch, in order, and take a fresh append that replays after reopening.
func FuzzWALReplay(f *testing.F) {
	for n := uint8(0); n < 4; n++ {
		for _, off := range []uint16{0, 1, 23, 24, 57, 90, 91, 150, 400, 65535} {
			for _, flip := range []uint8{0, 1, 4, 8} {
				f.Add(n, off, flip)
			}
		}
	}
	f.Fuzz(func(t *testing.T, n uint8, offset uint16, flip uint8) {
		path := filepath.Join(t.TempDir(), "gw.wal")
		w, err := OpenWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		recs := make([]WALRecord, 1+int(n)%12)
		for i := range recs {
			recs[i] = walFuzzRecord(i)
			if err := w.Append(recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		// Damage the file, then keep the records whose line lies wholly
		// outside the damage: a cut must leave the line's newline in place,
		// and a flip must miss the line and the newlines on either side of
		// it (a flipped newline merges two lines into one undecodable line).
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
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var intact []WALRecord
		start := 0
		for i, line := range walLines(t, recs) {
			end := start + len(line) + 1
			if !touched(start, end) {
				intact = append(intact, recs[i])
			}
			start = end
		}
		want := walLines(t, intact)

		w, err = OpenWAL(path)
		if err != nil {
			t.Fatalf("OpenWAL on damaged journal: %v", err)
		}
		if got := walLines(t, w.Records()); !isSubsequence(want, got) {
			t.Fatalf("replay lost intact records:\n got %q\nwant %q in order", got, want)
		}
		fresh := WALRecord{T: walSubmit, ID: "fresh", Seq: 1 << 20}
		if err := w.Append(fresh); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		w, err = OpenWAL(path)
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer w.Close()
		got := walLines(t, w.Records())
		if !isSubsequence(append(want, walLines(t, []WALRecord{fresh})...), got) {
			t.Fatalf("replay after append:\n got %q\nwant %q then the fresh record", got, want)
		}
		if got[len(got)-1] != walLines(t, []WALRecord{fresh})[0] {
			t.Fatalf("fresh record is not the last replayed: %q", got)
		}
	})
}

// FuzzJobEnvelope pins the gateway→node request path: for any body the
// gateway's edge decode accepts, the Job payload it builds is valid JSON,
// carries the request bytes but nothing the client sent after them, and
// decodes on the node to the request the gateway decoded, along with the
// budget and trace context it was given. decodeJob's single pass agrees
// with json.Unmarshal on that payload and on the body itself as a bare
// payload, which the node refuses unless it carries a "req" of its own.
func FuzzJobEnvelope(f *testing.F) {
	for _, body := range []string{
		`{"patch":"QUJD","scene":"road","challenge":"fix","mode":"digital","runs":1,"seed":5}`,
		`{"scene":"sim","challenge":"slow","seed":-3,"target":2}`,
		`  {"challenge":"fix"}  {"challenge":"slow"} trailing`,
		`{"Challenge":"fix","SEED":1,"seed":2,"unknown":[1,{"a":null}]}`,
		`{"patch":"é\ud800x\n","req":{"seed":9},"timeoutMs":7,"trace":"t"}`,
		"{\"patch\":\"\xff\xfe\",\"runs\":2}",
		`null`, `{}`, `[]`, `"x"`, `12`, `{"seed":1e400}`, `{"runs":"3"}`, ``,
	} {
		f.Add([]byte(body), int64(250), "0af3;gateway;1c;4")
	}
	f.Add([]byte(`{"challenge":"fix"}`), int64(0), "")
	f.Add([]byte(`{"challenge":"fix"}`), int64(-1), "a\"b\\c\x00 ")

	f.Fuzz(func(t *testing.T, body []byte, timeoutMs int64, trace string) {
		edge := func(body []byte) (serve.EvalRequest, []byte, bool) {
			r := httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(body))
			return serve.ReadEvalRequest(httptest.NewRecorder(), r, nil)
		}
		checkScanJob(t, body)
		if bare := new(JobPayload); json.Unmarshal(body, bare) != nil || bare.Req == nil {
			if _, _, _, err := decodeJob(body, new(telemetry.Counter)); err == nil {
				t.Fatalf("node accepts the bare payload %q", body)
			}
		}
		gw, raw, ok := edge(body)
		if !ok {
			return
		}
		if !bytes.HasPrefix(body, raw) || !json.Valid(raw) {
			t.Fatalf("edge forwards %q, not one JSON value at the start of the body %q", raw, body)
		}
		payload := appendJobPayload(nil, timeoutMs, trace, raw)
		if !json.Valid(payload) {
			t.Fatalf("job payload is not valid JSON: %q", payload)
		}
		// Whatever follows the value never reaches the node: more trailing
		// bytes leave the payload unchanged.
		if _, raw2, ok := edge(append(append([]byte(nil), body...), `}{"seed":1} x`...)); !ok ||
			!bytes.Equal(appendJobPayload(nil, timeoutMs, trace, raw2), payload) {
			t.Fatalf("trailing bytes changed the job payload of %q", body)
		}

		checkScanJob(t, payload)
		node, timeout, gotTrace, err := decodeJob(payload, new(telemetry.Counter))
		if string(bytes.TrimSpace(raw)) == "null" {
			// A null request is no request: the edge's Validate refuses it
			// before dispatch, and the node refuses it as well.
			if err == nil {
				t.Fatalf("node accepts the request-less payload %q", payload)
			}
			return
		}
		if err != nil {
			t.Fatalf("node rejects the gateway's payload %q: %v", payload, err)
		}
		if node != gw {
			t.Fatalf("node decoded %+v, gateway decoded %+v", node, gw)
		}
		if want := time.Duration(max(timeoutMs, 0)) * time.Millisecond; timeout != want {
			t.Fatalf("budget %v, want %v", timeout, want)
		}
		if utf8.ValidString(trace) && gotTrace != trace {
			t.Fatalf("trace %q, want %q", gotTrace, trace)
		}
	})
}

// checkScanJob: when decodeJob's single pass takes payload, json.Unmarshal
// (the path it falls back to) accepts it too and decodes the same request,
// budget and trace.
func checkScanJob(t *testing.T, payload []byte) {
	t.Helper()
	fast, ok := scanJob(payload)
	if !ok {
		return
	}
	var slow JobPayload
	if err := json.Unmarshal(payload, &slow); err != nil {
		t.Fatalf("scanJob took %q, which json.Unmarshal rejects: %v", payload, err)
	}
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("payload %q: scanJob read %+v, json.Unmarshal %+v", payload, fast, slow)
	}
}

// TestDecodeJobBareAndMalformed: a bare serve.EvalRequest payload, the
// pre-envelope form, is refused after the counted json.Unmarshal fallback,
// while the gateway's envelope takes the single pass; an envelope without
// a request and a payload that is not JSON are errors too (each a
// bad_request frame).
func TestDecodeJobBareAndMalformed(t *testing.T) {
	want := serve.EvalRequest{Patch: "QUJD", Scene: "sim", Challenge: "fix", Mode: "digital", Runs: 2, Seed: 7, Target: 3}
	bare, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	fallbacks := new(telemetry.Counter)
	checkScanJob(t, bare)
	if _, _, _, err := decodeJob(bare, fallbacks); err == nil || fallbacks.Value() != 1 {
		t.Fatalf("bare payload: err %v with %d fallbacks; want an error with 1", err, fallbacks.Value())
	}
	got, timeout, trace, err := decodeJob(appendJobPayload(nil, 40, "tc", bare), fallbacks)
	if err != nil || got != want || timeout != 40*time.Millisecond || trace != "tc" || fallbacks.Value() != 1 {
		t.Fatalf("envelope decoded to %+v, %v, %q, %v with %d fallbacks", got, timeout, trace, err, fallbacks.Value())
	}
	dup := []byte(`{"req":{"seed":1,"runs":3},"timeoutMs":5,"req":{"runs":2},"timeoutMs":6}`)
	checkScanJob(t, dup)
	if _, ok := scanJob(dup); !ok {
		t.Errorf("scanJob gave up on repeated keys in %s", dup)
	}
	for _, bad := range []string{``, `{"req":`, `{"req":{"seed":"x"}}`, `[1]`, `{"scene":"road"} x`,
		`{"trace":"t","req":{}} x`, `{"req":{"runs":1.5}}`, `{}`, `{"timeoutMs":5,"trace":"t"}`, `{"req":null}`} {
		if _, _, _, err := decodeJob([]byte(bad), fallbacks); err == nil {
			t.Errorf("payload %q decoded without error", bad)
		}
	}
}
