package attack

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"roadtrojan/internal/obs"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/yolo"
)

var update = flag.Bool("update", false, "rewrite testdata/trainers.golden from the current trainers")

const trainersGolden = "testdata/trainers.golden"

// goldenCase is one pinned training run. The cases cover every place the
// three attacks diverge: RNG draw order (the GAN's D batch before the window,
// the direct methods' window first), the baseline's forced static windows
// and full EOT set, each method's snapshot cadence, the journal span that
// carries iter records, and which TrainStats slices get filled.
type goldenCase struct {
	name   string
	method string
	iters  int
	window int
	long   bool // skipped under -short and -race
}

var goldenCases = []goldenCase{
	{name: "ours-5", method: "ours", iters: 5, window: 3},
	{name: "direct-5", method: "direct", iters: 5, window: 3},
	{name: "baseline-5", method: "baseline", iters: 5, window: 3},
	{name: "ours-40", method: "ours", iters: 40, window: 1, long: true},
	{name: "direct-40", method: "direct", iters: 40, window: 1, long: true},
	{name: "baseline-40", method: "baseline", iters: 40, window: 1, long: true},
	{name: "ours-120", method: "ours", iters: 120, window: 1, long: true},
}

// goldenDigest trains one case from scratch and returns its golden line:
// sha256 of the EncodePatch bytes, of the TrainStats slices and of the
// logical-clock journal.
func goldenDigest(t *testing.T, c goldenCase) string {
	t.Helper()
	det := yolo.New(rand.New(rand.NewSource(5)), yolo.DefaultConfig())
	cfg := DefaultConfig()
	cfg.N = 2
	cfg.Iters = c.iters
	cfg.WindowFrames = c.window

	var journal bytes.Buffer
	j := obs.NewJournal(&journal)
	tr := obs.New(j, obs.NewLogicalClock())
	train := map[string]func(*yolo.Model, scene.Camera, Scene, Config, *obs.Trace) (*Patch, *TrainStats, error){
		"ours": Train, "direct": TrainDirect, "baseline": TrainBaseline,
	}[c.method]
	p, stats, err := train(det, scene.DefaultCamera(), testScene(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	enc, err := EncodePatch(p)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s patch=%x stats=%x journal=%x",
		c.name, sha256.Sum256(enc), statsDigest(stats), sha256.Sum256(journal.Bytes()))
}

// statsDigest hashes every TrainStats slice, length-prefixed so a value
// moved from one slice to the next changes the digest.
func statsDigest(s *TrainStats) [32]byte {
	h := sha256.New()
	var b [8]byte
	for _, xs := range [][]float64{s.AttackLoss, s.GANLossG, s.GANLossD, s.TargetProb, s.GradNorm} {
		binary.LittleEndian.PutUint64(b[:], uint64(len(xs)))
		h.Write(b[:])
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// raceEnabled reports whether the test binary was built with -race, which
// slows the trainers about tenfold.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestTrainGolden pins the trainers byte for byte: the same seed must give
// the same patch bytes, TrainStats and journal for every method. Regenerate
// with `go test ./internal/attack -run TestTrainGolden -update` only when a
// change is meant to alter training output.
func TestTrainGolden(t *testing.T) {
	want := map[string]string{}
	if raw, err := os.ReadFile(trainersGolden); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			name, _, _ := strings.Cut(line, " ")
			want[name] = line
		}
	} else if !*update {
		t.Fatal(err)
	}

	// The cases share nothing, so they run in parallel; each writes only its
	// own slot, and the rewrite waits for all of them via Cleanup.
	got := make([]string, len(goldenCases))
	if *update {
		t.Cleanup(func() {
			var out strings.Builder
			for i, c := range goldenCases {
				line := want[c.name]
				if got[i] != "" {
					line = got[i]
				}
				if line != "" {
					out.WriteString(line + "\n")
				}
			}
			if err := os.MkdirAll(filepath.Dir(trainersGolden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(trainersGolden, []byte(out.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
	for i, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			// The long cases add iterations, not goroutine interleavings:
			// under the race detector they would cost minutes and exercise
			// no concurrency the short cases do not.
			if c.long && (testing.Short() || raceEnabled()) {
				t.Skip("long golden case skipped in -short mode and under -race")
			}
			t.Parallel()
			got[i] = goldenDigest(t, c)
			if !*update && got[i] != want[c.name] {
				t.Errorf("trainer output drifted:\n got %s\nwant %s", got[i], want[c.name])
			}
		})
	}
}
