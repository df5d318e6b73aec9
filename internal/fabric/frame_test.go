package fabric

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"roadtrojan/internal/eval"
	"roadtrojan/internal/serve"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Type: FrameHealth, Payload: []byte(`{"id":"n1"}`)},
		{Type: FrameJob, JobID: 42, Payload: []byte(`{"req":{"scene":"road"}}`)},
		{Type: FrameResult, JobID: 42, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
		{Type: FrameError, JobID: 7, Payload: []byte(`{"code":"queue_full","error":"x","retryAfter":2}`)},
		{Type: FrameHealth, Payload: []byte(`{}`)},
		{Type: FrameResult, JobID: 8},
		{Type: FrameHealth, Payload: []byte(`{"draining":true}`)},
	}
	var buf bytes.Buffer
	for _, f := range cases {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("write %+v: %v", f, err)
		}
	}
	for i, want := range cases {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.JobID != want.JobID || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("drained stream: err = %v, want io.EOF", err)
	}
}

func TestReadFrameStrict(t *testing.T) {
	valid := AppendFrame(nil, Frame{Type: FrameJob, JobID: 1, Payload: []byte("hi")})
	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mutate(b)
		return b
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty mid-header", valid[:10]},
		{"bad magic", corrupt(func(b []byte) { b[0] = 'X' })},
		{"bad version", corrupt(func(b []byte) { b[4] = 99 })},
		{"version 1", corrupt(func(b []byte) { b[4] = 1 })},
		{"zero type", corrupt(func(b []byte) { b[5] = 0 })},
		{"unknown type", corrupt(func(b []byte) { b[5] = 200 })},
		{"type past health", corrupt(func(b []byte) { b[5] = FrameHealth + 1 })},
		{"nonzero flags", corrupt(func(b []byte) { b[6] = 1 })},
		{"oversize length", corrupt(func(b []byte) {
			binary.LittleEndian.PutUint32(b[16:20], MaxPayload+1)
		})},
		{"truncated payload", valid[:len(valid)-1]},
	}
	for _, tc := range cases {
		_, err := ReadFrame(bytes.NewReader(tc.data))
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", tc.name, err)
		}
	}
}

// TestReadFrameKeepsDeadlineError pins that a read timeout stays visible
// through ErrBadFrame: a short header and a truncated payload both wrap the
// connection's own error, so a caller can tell a timeout from bad bytes.
func TestReadFrameKeepsDeadlineError(t *testing.T) {
	gw, node := net.Pipe()
	defer gw.Close()
	defer node.Close()
	if err := node.SetReadDeadline(time.Now().Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	valid := AppendFrame(nil, Frame{Type: FrameJob, JobID: 1, Payload: []byte("hi")})
	cases := []struct {
		name string
		r    io.Reader
	}{
		{"short header", node},
		{"truncated payload", io.MultiReader(bytes.NewReader(valid[:len(valid)-1]), node)},
	}
	for _, tc := range cases {
		_, err := ReadFrame(tc.r)
		var ne net.Error
		if !errors.Is(err, ErrBadFrame) || !errors.Is(err, os.ErrDeadlineExceeded) ||
			!errors.As(err, &ne) || !ne.Timeout() {
			t.Errorf("%s: err = %v, want ErrBadFrame wrapping a net.Error timeout", tc.name, err)
		}
	}
}

func TestWriteFrameRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: 0}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("zero type: err = %v, want ErrBadFrame", err)
	}
	if err := WriteFrame(&buf, Frame{Type: FrameJob, Payload: make([]byte, MaxPayload+1)}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("oversize payload: err = %v, want ErrBadFrame", err)
	}
}

// TestNodeAnswersEachJobWithOneFrame pins the node side of the protocol
// from a scripted gateway: the first frame is a Health report, one Job gets
// exactly one Result and nothing else, and Close sends one draining Health
// before the connection ends. The heartbeat is an hour, so every frame the
// test sees is one the protocol owes it.
func TestNodeAnswersEachJobWithOneFrame(t *testing.T) {
	exec := serve.NewExecutor(fabricDetector(), serve.Config{Workers: 1, QueueSize: 2,
		Job: func(eval.Job) (eval.Detail, error) { return stubDetail(0.25), nil }}, nil)
	node := NewNode(exec, NodeConfig{ID: "n1", Heartbeat: time.Hour})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- node.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = node.Close(ctx)
		_ = exec.Close(ctx)
	})
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	read := func(within time.Duration) (Frame, error) {
		_ = conn.SetReadDeadline(time.Now().Add(within))
		return ReadFrame(conn)
	}
	health := func(what string) Health {
		t.Helper()
		f, err := read(10 * time.Second)
		if err != nil || f.Type != FrameHealth {
			t.Fatalf("%s: frame type %d, err %v; want a Health frame", what, f.Type, err)
		}
		var h Health
		if err := json.Unmarshal(f.Payload, &h); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return h
	}

	if h := health("first frame"); h.ID != "n1" || h.Draining {
		t.Fatalf("first Health = %+v, want id n1, not draining", h)
	}
	req, err := json.Marshal(evalReq(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, Frame{Type: FrameJob, JobID: 7, Payload: appendJobPayload(nil, 0, "", req)}); err != nil {
		t.Fatal(err)
	}
	if f, err := read(10 * time.Second); err != nil || f.Type != FrameResult || f.JobID != 7 {
		t.Fatalf("reply to job 7: frame type %d id %d, err %v; want one Result for job 7", f.Type, f.JobID, err)
	}
	var one [1]byte
	_ = conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if n, err := conn.Read(one[:]); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("after the Result: read %d byte(s), err %v; want no further frame within 100ms", n, err)
	}

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		closed <- node.Close(ctx)
	}()
	if h := health("on Close"); !h.Draining {
		t.Fatalf("Close sent %+v, want draining", h)
	}
	if f, err := read(10 * time.Second); err != io.EOF {
		t.Fatalf("after the draining Health: frame type %d, err %v; want EOF", f.Type, err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("node close: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("node serve loop: %v", err)
	}
}
