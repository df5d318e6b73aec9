package serve

import (
	"crypto/sha256"
	"encoding/base64"
	"fmt"
	"math"

	"roadtrojan/internal/attack"
	"roadtrojan/internal/metrics"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/yolo"
)

// DetectRequest is the POST /v1/detect body: one rendered [3,H,W] frame in
// [0,1], flattened channel-major. Only servd's HTTP route takes it; the
// fabric carries evaluate jobs alone.
type DetectRequest struct {
	Image  []float64 `json:"image"`
	Height int       `json:"height"`
	Width  int       `json:"width"`
}

// maxFrameSide bounds a detect frame's height and width. The camera
// renders 64×64; the bound leaves room for larger frames while keeping
// 3*Height*Width far from overflowing int, so a huge declared size cannot
// wrap the length check below and panic a worker.
const maxFrameSide = 1024

// Request body limits, one per route. An evaluate or async-job body is a
// few scalars and one base64 patch, about 26 KB for the default 32×32
// patch, so MaxEvalBody leaves ample room. A detect body is 3·H·W JSON
// numbers; maxDetectBody admits the largest frame validate accepts at
// maxNumberText bytes per number, plus room for the other fields.
const (
	MaxEvalBody   = 1 << 20
	maxNumberText = 32 // a float64 as encoding/json writes it (≤ 25 bytes), a comma and spare
	maxDetectBody = 3*maxFrameSide*maxFrameSide*maxNumberText + 1<<10
)

func (r *DetectRequest) validate() error {
	if r.Height <= 0 || r.Width <= 0 || r.Height > maxFrameSide || r.Width > maxFrameSide {
		return fmt.Errorf("height and width must be in [1,%d], got %dx%d", maxFrameSide, r.Height, r.Width)
	}
	if want := 3 * r.Height * r.Width; len(r.Image) != want {
		return fmt.Errorf("image has %d values, want 3*%d*%d = %d", len(r.Image), r.Height, r.Width, want)
	}
	for i, v := range r.Image {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("image[%d] is not finite", i)
		}
	}
	return nil
}

// wireBox is a center-format pixel box.
type wireBox struct {
	CX float64 `json:"cx"`
	CY float64 `json:"cy"`
	W  float64 `json:"w"`
	H  float64 `json:"h"`
}

// wireDetection is one decoded detection.
type wireDetection struct {
	Class      int     `json:"class"`
	ClassName  string  `json:"className"`
	Confidence float64 `json:"confidence"`
	Box        wireBox `json:"box"`
}

// DetectResponse is the POST /v1/detect reply.
type DetectResponse struct {
	Detections []wireDetection `json:"detections"`
}

func toWireDetections(dets []yolo.Detection) []wireDetection {
	out := make([]wireDetection, len(dets))
	for i, d := range dets {
		out[i] = wireDetection{
			Class:      int(d.Class),
			ClassName:  d.Class.String(),
			Confidence: d.Confidence,
			Box:        wireBox{CX: d.Box.CX, CY: d.Box.CY, W: d.Box.W, H: d.Box.H},
		}
	}
	return out
}

// EvalRequest is the POST /v1/evaluate body and the fabric eval-job
// payload. Patch is the base64 of attack.EncodePatch output (a SavePatch
// file image); empty means the no-attack baseline, which then requires
// Target.
type EvalRequest struct {
	Patch     string `json:"patch,omitempty"`
	Scene     string `json:"scene"`     // road | sim
	Challenge string `json:"challenge"` // one of scene.AllChallengeNames
	Mode      string `json:"mode"`      // physical | digital (default physical)
	Runs      int    `json:"runs"`      // default 3, like the paper
	Seed      int64  `json:"seed"`
	Target    int    `json:"target,omitempty"` // class id 1..5; defaults to the patch's target
}

// maxRuns bounds the per-request work a single client can queue.
const maxRuns = 16

// normalize validates the request and decodes the patch payload. It returns
// the patch (nil for no-attack) and the resolved target class.
func (r *EvalRequest) normalize() (*attack.Patch, scene.Class, error) {
	r.applyDefaults()
	if r.Scene != "road" && r.Scene != "sim" {
		return nil, 0, fmt.Errorf("unknown scene %q (want road or sim)", r.Scene)
	}
	if !validChallenge(r.Challenge) {
		return nil, 0, fmt.Errorf("unknown challenge %q (want one of %v)", r.Challenge, scene.AllChallengeNames)
	}
	if r.Mode != "physical" && r.Mode != "digital" {
		return nil, 0, fmt.Errorf("unknown mode %q (want physical or digital)", r.Mode)
	}
	if r.Runs < 0 || r.Runs > maxRuns {
		return nil, 0, fmt.Errorf("runs %d out of range [1,%d]", r.Runs, maxRuns)
	}
	var p *attack.Patch
	if r.Patch != "" {
		raw, err := base64.StdEncoding.DecodeString(r.Patch)
		if err != nil {
			return nil, 0, fmt.Errorf("patch is not valid base64: %v", err)
		}
		p, err = attack.DecodePatch(raw)
		if err != nil {
			return nil, 0, fmt.Errorf("patch payload: %v", err)
		}
	}
	target := scene.Class(r.Target)
	if target == 0 && p != nil {
		target = p.Cfg.TargetClass
	}
	if target < scene.Person || target > scene.Bicycle {
		return nil, 0, fmt.Errorf("target class %d out of range 1..%d (required when no patch is sent)", r.Target, scene.NumClasses)
	}
	return p, target, nil
}

// applyDefaults fills the scene, mode and runs defaults in place. They are
// the only fields normalize rewrites, so after applyDefaults the request
// has the cache key its normalized form has.
func (r *EvalRequest) applyDefaults() {
	if r.Scene == "" {
		r.Scene = "road"
	}
	if r.Mode == "" {
		r.Mode = "physical"
	}
	if r.Runs == 0 {
		r.Runs = 3
	}
}

func validChallenge(name string) bool {
	for _, n := range scene.AllChallengeNames {
		if n == name {
			return true
		}
	}
	return false
}

// Validate reports whether the request would pass normalization. It runs
// the whole of it, base64-decoding and parsing the patch, and discards the
// decoded patch. The fabric gateway uses it to reject malformed jobs at
// the edge instead of spending a node round-trip. Note it mutates the
// receiver the same way normalization does (defaults are filled in), so a
// validated request hashes and routes consistently.
func (r *EvalRequest) Validate() error {
	_, _, err := r.normalize()
	return err
}

// Digest returns the patch content hash — the consistent-hashing key the
// fabric gateway routes on, so repeated evaluations of one patch land on
// the node whose result cache already holds its neighbors.
func (r *EvalRequest) Digest() string {
	sum := sha256.Sum256([]byte(r.Patch))
	return fmt.Sprintf("%x", sum[:16])
}

// cacheKey identifies an evaluation result: patch content hash plus every
// input that changes the outcome. It covers all seven fields, and a valid
// request's strings hold no '|', so equal keys mean equal requests.
func (r *EvalRequest) cacheKey() string {
	sum := sha256.Sum256([]byte(r.Patch))
	return fmt.Sprintf("%x|%s|%s|%s|%d|%d|%d", sum[:8], r.Scene, r.Challenge, r.Mode, r.Runs, r.Seed, r.Target)
}

// wireFrame is one frame's verdict.
type wireFrame struct {
	Detected   bool    `json:"detected"`
	Class      int     `json:"class,omitempty"`
	ClassName  string  `json:"className,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
}

// EvalResponse is the POST /v1/evaluate reply: the paper's PWC/CWC
// score plus each run's per-frame results.
type EvalResponse struct {
	PWC        float64       `json:"pwc"`
	CWC        bool          `json:"cwc"`
	Frames     int           `json:"frames"`
	WrongRun   int           `json:"wrongRun"`
	DetectRate float64       `json:"detectRate"`
	Runs       [][]wireFrame `json:"runs"`
	Cached     bool          `json:"cached"`
}

func toWireFrames(runs [][]metrics.FrameResult) [][]wireFrame {
	out := make([][]wireFrame, len(runs))
	for i, run := range runs {
		out[i] = make([]wireFrame, len(run))
		for j, f := range run {
			wf := wireFrame{Detected: f.Detected}
			if f.Detected {
				wf.Class = int(f.Class)
				wf.ClassName = f.Class.String()
				wf.Confidence = f.Confidence
			}
			out[i][j] = wf
		}
	}
	return out
}

// Machine-readable error codes carried by ErrorResponse.Code. The strings
// are shared with the fabric wire protocol's job-error codes where the
// concepts coincide, so a client sees one vocabulary whether it talks to a
// single-box servd or a gateway.
const (
	CodeBadRequest       = "bad_request"        // the request failed validation; retrying is pointless
	CodeQueueFull        = "queue_full"         // bounded queue at capacity; retry after Retry-After
	CodeSaturated        = "saturated"          // every routable shard is queue-full (gateway)
	CodeUnavailable      = "unavailable"        // no capacity to route to right now; retry soon
	CodeTimeout          = "timeout"            // the job's deadline expired
	CodeShuttingDown     = "shutting_down"      // the service is draining
	CodeNotFound         = "not_found"          // unknown resource (e.g. async job id)
	CodeMethodNotAllowed = "method_not_allowed" // wrong HTTP verb
	CodeTooLarge         = "too_large"          // the request body exceeds the route's limit
	CodeInternal         = "internal"           // the job ran and failed
)

// ErrorResponse is the JSON error envelope for every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}
