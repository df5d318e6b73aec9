// Package fabric is the distributed evaluation tier: a stateless HTTP
// gateway that shards patch-evaluation jobs across a fleet of serve
// executors ("nodes") over a small length-prefixed framed protocol.
//
// The wire format is deliberately tiny — stdlib encoding/binary over a
// net.Conn, one frame per message:
//
//	offset  size  field
//	0       4     magic "RTFB"
//	4       1     protocol version (2)
//	5       1     frame type
//	6       2     flags (reserved, must be zero)
//	8       8     job id (little-endian uint64; 0 for non-job frames)
//	16      4     payload length (little-endian uint32, ≤ MaxPayload)
//	20      n     payload
//
// Payloads are JSON: jobs carry a JobPayload envelope around the client's
// serve.EvalRequest bytes, results carry the node-encoded
// serve.EvalResponse bytes verbatim (the gateway forwards them untouched,
// which is what makes gateway results byte-identical to single-box serve),
// health frames carry Health, and error frames carry JobError. Decoding is
// strict — wrong magic, unknown version or type, nonzero flags, or an
// oversized payload fail with ErrBadFrame and never panic; FuzzReadFrame
// pins that.
package fabric

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"roadtrojan/internal/serve"
	"roadtrojan/internal/telemetry"
)

// ProtocolVersion is the fabric wire-format version. Both ends refuse
// frames from any other version rather than guessing: a version-1 peer is
// cut off at its first frame header.
const ProtocolVersion = 2

// frameMagic is "RTFB" — RoadTrojan FaBric.
var frameMagic = [4]byte{'R', 'T', 'F', 'B'}

// MaxPayload bounds a frame payload: large enough for any evaluation
// response, small enough that a corrupt length prefix cannot OOM the
// reader.
const MaxPayload = 32 << 20

// headerSize is the fixed frame header length in bytes.
const headerSize = 20

// Frame types. Version 2 carries only work and health: the gateway sends
// jobs, and a node answers each job with exactly one Result or Error frame
// and reports everything else — its introduction, load, stage telemetry and
// leaving — in Health frames.
const (
	// FrameJob is a gateway→node evaluation job: a JobPayload.
	FrameJob = uint8(iota + 1)
	// FrameResult carries a completed job's serve.EvalResponse JSON.
	FrameResult
	// FrameError carries a JobError for a failed or refused job.
	FrameError
	// FrameHealth is a node's Health report: its first frame on a new
	// connection, every heartbeat after that, and its goodbye (Draining set)
	// on Close.
	FrameHealth
)

// frameTypeValid reports whether t is a known frame type.
func frameTypeValid(t uint8) bool { return t >= FrameJob && t <= FrameHealth }

// ErrBadFrame is the strict-decode failure: anything on the wire that is
// not a well-formed current-version frame.
var ErrBadFrame = errors.New("fabric: malformed frame")

// Frame is one decoded protocol message.
type Frame struct {
	Type    uint8
	JobID   uint64
	Payload []byte
}

// AppendFrame encodes f onto buf and returns the extended slice.
func AppendFrame(buf []byte, f Frame) []byte {
	buf = append(buf, frameMagic[:]...)
	buf = append(buf, ProtocolVersion, f.Type, 0, 0)
	buf = binary.LittleEndian.AppendUint64(buf, f.JobID)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Payload)))
	return append(buf, f.Payload...)
}

// WriteFrame encodes f to w as a single Write (one syscall per frame on a
// net.Conn, so concurrent writers only need to serialize the call itself).
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxPayload {
		return fmt.Errorf("%w: payload %d exceeds %d", ErrBadFrame, len(f.Payload), MaxPayload)
	}
	if !frameTypeValid(f.Type) {
		return fmt.Errorf("%w: unknown frame type %d", ErrBadFrame, f.Type)
	}
	_, err := w.Write(AppendFrame(make([]byte, 0, headerSize+len(f.Payload)), f))
	return err
}

// ReadFrame decodes one frame from r. Truncated or corrupt input returns an
// error wrapping ErrBadFrame (or io.EOF exactly at a frame boundary); a
// short read also wraps the reader's error, so a read deadline still
// matches os.ErrDeadlineExceeded. It never panics, whatever the bytes.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("%w: short header: %w", ErrBadFrame, err)
	}
	if [4]byte(hdr[0:4]) != frameMagic {
		return Frame{}, fmt.Errorf("%w: bad magic %q", ErrBadFrame, hdr[0:4])
	}
	if hdr[4] != ProtocolVersion {
		return Frame{}, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, hdr[4])
	}
	f := Frame{Type: hdr[5]}
	if !frameTypeValid(f.Type) {
		return Frame{}, fmt.Errorf("%w: unknown frame type %d", ErrBadFrame, f.Type)
	}
	if hdr[6] != 0 || hdr[7] != 0 {
		return Frame{}, fmt.Errorf("%w: nonzero reserved flags %#x%02x", ErrBadFrame, hdr[6], hdr[7])
	}
	f.JobID = binary.LittleEndian.Uint64(hdr[8:16])
	n := binary.LittleEndian.Uint32(hdr[16:20])
	if n > MaxPayload {
		return Frame{}, fmt.Errorf("%w: payload length %d exceeds %d", ErrBadFrame, n, MaxPayload)
	}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, fmt.Errorf("%w: truncated payload: %w", ErrBadFrame, err)
		}
	}
	return f, nil
}

// JobPayload is the FrameJob payload envelope: the evaluation request plus
// the gateway's remaining budget for it, so a node can cancel (or skip
// dequeuing) work the gateway has already abandoned instead of burning a
// worker slot on an answer nobody is waiting for. The budget is relative
// (milliseconds), not an absolute time — gateway and node clocks are not
// assumed synchronized.
//
// The gateway never marshals this struct: appendJobPayload splices the
// client's request JSON into the envelope verbatim. The node reads that
// envelope in one pass (scanJob) and decodes anything else with one
// Unmarshal; a payload without a request is refused.
type JobPayload struct {
	// TimeoutMs is the remaining job budget in milliseconds; 0 means no
	// deadline.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// Trace is an encoded obs.SpanContext: the gateway's attempt span, so
	// the node's fabric_job span joins the request's causal tree. Optional.
	Trace string `json:"trace,omitempty"`
	// Req is the enveloped request; nil when the payload carries none.
	Req *serve.EvalRequest `json:"req,omitempty"`
}

// appendJobPayload appends the JobPayload envelope for one job to dst. req
// is one JSON value, the request exactly as the client sent it; it is
// copied in as is, not re-encoded.
func appendJobPayload(dst []byte, timeoutMs int64, trace string, req []byte) []byte {
	quoted, _ := json.Marshal(trace) // a string always marshals
	dst = append(dst, `{"timeoutMs":`...)
	dst = strconv.AppendInt(dst, timeoutMs, 10)
	dst = append(dst, `,"trace":`...)
	dst = append(dst, quoted...)
	dst = append(dst, `,"req":`...)
	dst = append(dst, req...)
	return append(dst, '}')
}

// Health is the FrameHealth payload: one node's identity, capacity and
// stage-telemetry snapshot. The gateway routes and sheds load on it and
// merges Stages into its fleet-wide /metrics view.
type Health struct {
	ID            string `json:"id"`
	Workers       int    `json:"workers"`
	QueueDepth    int    `json:"queueDepth"`
	QueueCapacity int    `json:"queueCapacity"`
	Inflight      int    `json:"inflight"`
	CachedResults int    `json:"cachedResults"`
	Draining      bool   `json:"draining"`
	// RetryAfter is the node's backoff hint in seconds, set only while its
	// queue is full. The gateway's saturation replies surface the largest
	// hint across the fleet.
	RetryAfter int `json:"retryAfter,omitempty"`
	// Stages holds the node's stage-histogram snapshots, keyed by
	// serve.StageNames.
	Stages map[string]telemetry.HistSnapshot `json:"stages,omitempty"`
}

// Job-error codes carried by FrameError payloads.
const (
	// CodeBadRequest: the job payload failed validation; retrying is
	// pointless.
	CodeBadRequest = "bad_request"
	// CodeQueueFull: the node's bounded queue is at capacity; the job is
	// safe to retry elsewhere or later (RetryAfter hints when).
	CodeQueueFull = "queue_full"
	// CodeDraining: the node is leaving the fleet; route elsewhere.
	CodeDraining = "draining"
	// CodeInternal: the job ran and failed.
	CodeInternal = "internal"
	// CodeExpired: the job's propagated deadline passed before or during
	// execution; the gateway may retry if its own budget remains.
	CodeExpired = "expired"
)

// JobError is the FrameError payload.
type JobError struct {
	Code       string `json:"code"`
	Error      string `json:"error"`
	RetryAfter int    `json:"retryAfter,omitempty"` // seconds; only with CodeQueueFull
}
