package eval

import (
	"math/rand"
	"strings"
	"testing"

	"roadtrojan/internal/attack"
	"roadtrojan/internal/metrics"
	"roadtrojan/internal/physical"
	"roadtrojan/internal/scene"
	"roadtrojan/internal/shapes"
	"roadtrojan/internal/tensor"
	"roadtrojan/internal/yolo"
)

func testScene() attack.Scene {
	g := scene.NewSimRoom(8, 30, 0.05)
	return attack.NewArrowScene(g, 0, 15, 1.8)
}

func fakePatch(n int) *attack.Patch {
	cfg := attack.DefaultConfig()
	cfg.N = n
	rng := rand.New(rand.NewSource(7))
	return &attack.Patch{
		Gray: tensor.NewRandU(rng, 0, 0.4, 1, 32, 32),
		Mask: shapes.Mask(shapes.Star, 32, 0.9, 0),
		Cfg:  cfg,
	}
}

func TestRunScenarioNoAttackIsClean(t *testing.T) {
	sc := testScene()
	det := yolo.New(rand.New(rand.NewSource(1)), yolo.DefaultConfig())
	cond := Digital()
	cond.Runs = 1
	s, err := RunScenario(det, scene.DefaultCamera(), sc, nil, scene.Car, scene.Challenges("fix")[0], cond)
	if err != nil {
		t.Fatal(err)
	}
	if s.Frames == 0 {
		t.Fatal("no frames scored")
	}
	// An untrained detector rarely reports the target class consistently,
	// but the score must at least be well-formed.
	if s.PWC < 0 || s.PWC > 100 {
		t.Fatalf("PWC = %v", s.PWC)
	}
}

func TestRunScenarioWithPatchAndChannels(t *testing.T) {
	sc := testScene()
	det := yolo.New(rand.New(rand.NewSource(2)), yolo.DefaultConfig())
	p := fakePatch(2)
	for _, cond := range []Condition{Digital(), DefaultCondition()} {
		cond.Runs = 1
		s, err := RunScenario(det, scene.DefaultCamera(), sc, p, scene.Car, scene.Challenges("slow")[0], cond)
		if err != nil {
			t.Fatal(err)
		}
		if s.Frames == 0 {
			t.Fatal("no frames")
		}
	}
}

func TestRunScenarioAveragesRuns(t *testing.T) {
	sc := testScene()
	det := yolo.New(rand.New(rand.NewSource(3)), yolo.DefaultConfig())
	cond := DefaultCondition()
	cond.Runs = 3
	s, err := RunScenario(det, scene.DefaultCamera(), sc, fakePatch(2), scene.Car, scene.Challenges("fix")[0], cond)
	if err != nil {
		t.Fatal(err)
	}
	if s.Frames == 0 {
		t.Fatal("no frames")
	}
}

func TestScoreVideoHandlesInvisibleTarget(t *testing.T) {
	det := yolo.New(rand.New(rand.NewSource(4)), yolo.DefaultConfig())
	rng := rand.New(rand.NewSource(5))
	img := tensor.NewRandU(rng, 0, 1, 3, 64, 64)
	frames := []scene.VideoFrame{
		{Image: img, TargetOK: false},
		{Image: img, TargetOK: true, TargetBox: scene.Box{CX: 32, CY: 40, W: 10, H: 6}},
	}
	s := ScoreVideo(det, frames, scene.Car, physical.Digital(), rng, 0.2)
	if s.Frames != 2 {
		t.Fatalf("frames = %d", s.Frames)
	}
}

func TestRunRowAndTableFormat(t *testing.T) {
	sc := testScene()
	det := yolo.New(rand.New(rand.NewSource(6)), yolo.DefaultConfig())
	cond := Digital()
	cond.Runs = 1
	row, err := RunRow(det, scene.DefaultCamera(), sc, nil, scene.Car, "w/o Attack", []string{"fix", "slow"}, cond)
	if err != nil {
		t.Fatal(err)
	}
	tb := Table{Title: "Test Table", Challenges: []string{"fix", "slow"}, Rows: []Row{row}}
	out := tb.String()
	for _, want := range []string{"Test Table", "w/o Attack", "fix", "slow", "%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	csv := tb.CSV()
	if !strings.Contains(csv, "fix_pwc") || !strings.Contains(csv, "w/o Attack") {
		t.Fatalf("csv malformed:\n%s", csv)
	}
	if got := tb.Cell("w/o Attack", "fix"); got.Frames == 0 {
		t.Fatal("Cell lookup failed")
	}
	if got := tb.Cell("nope", "fix"); got.Frames != 0 {
		t.Fatal("missing row must return zero score")
	}
}

func TestTableHeaderLabels(t *testing.T) {
	tests := map[string]string{
		"fix": "fix", "slight": "slight rot.", "angle-15": "-15°", "angle0": "0°", "angle+15": "+15°", "x": "x",
	}
	for key, want := range tests {
		if got := headerLabel(key); got != want {
			t.Errorf("headerLabel(%q) = %q, want %q", key, got, want)
		}
	}
}

func TestTableMissingCellRendersDash(t *testing.T) {
	tb := Table{
		Title:      "T",
		Challenges: []string{"fix"},
		Rows:       []Row{{Name: "empty", Scores: map[string]metrics.Score{}}},
	}
	if !strings.Contains(tb.String(), "--") {
		t.Fatalf("missing cell not rendered:\n%s", tb.String())
	}
}

func TestEnvCachesPatches(t *testing.T) {
	if testing.Short() {
		t.Skip("env training test skipped in -short mode")
	}
	det := yolo.New(rand.New(rand.NewSource(7)), yolo.DefaultConfig())
	env := NewEnv(det, 2, 1, 5, nil)
	cfg := env.baseConfig()
	p1, err := env.patchFor(ours, "road", cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := env.patchFor(ours, "road", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("identical configs must hit the patch cache")
	}
	// A different config misses the cache.
	cfg2 := cfg
	cfg2.N = 2
	p3, err := env.patchFor(ours, "road", cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("different config returned the cached patch")
	}
	// Every config field is part of the key, including the target class
	// and the learning rates.
	for name, set := range map[string]func(*attack.Config){
		"TargetClass": func(c *attack.Config) { c.TargetClass = scene.Car },
		"LRG":         func(c *attack.Config) { c.LRG *= 2 },
		"LRD":         func(c *attack.Config) { c.LRD *= 2 },
	} {
		c := cfg
		set(&c)
		p, err := env.patchFor(ours, "road", c)
		if err != nil {
			t.Fatal(err)
		}
		if p == p1 {
			t.Errorf("config differing only in %s returned the cached patch", name)
		}
	}
}

func TestEnvScenesAreStable(t *testing.T) {
	det := yolo.New(rand.New(rand.NewSource(8)), yolo.DefaultConfig())
	env := NewEnv(det, 1, 1, 5, nil)
	a := env.Road()
	b := env.Road()
	if a.Ground != b.Ground {
		t.Fatal("Road() must return the same scene")
	}
	if env.Sim().Ground == nil {
		t.Fatal("Sim() scene missing")
	}
}

func TestDigitalConditionDisablesChannel(t *testing.T) {
	if Digital().Channel.Enabled {
		t.Fatal("digital condition must disable the channel")
	}
	if !DefaultCondition().Channel.Enabled {
		t.Fatal("default condition must enable the channel")
	}
	if DefaultCondition().Runs != 3 {
		t.Fatalf("default runs = %d, want 3 (paper averages three runs)", DefaultCondition().Runs)
	}
}

func TestScoreVideoEmpty(t *testing.T) {
	det := yolo.New(rand.New(rand.NewSource(9)), yolo.DefaultConfig())
	rng := rand.New(rand.NewSource(10))
	s := ScoreVideo(det, nil, scene.Word, physical.Digital(), rng, 0.2)
	if s.Frames != 0 || s.PWC != 0 {
		t.Fatalf("empty video score %+v", s)
	}
}

func TestTransferTableStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("transfer test trains a patch; skipped in -short mode")
	}
	detA := yolo.New(rand.New(rand.NewSource(30)), yolo.DefaultConfig())
	detB := yolo.New(rand.New(rand.NewSource(31)), yolo.DefaultConfig())
	env := NewEnv(detA, 2, 1, 5, nil)
	tb, err := env.TransferTable(detB)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if tb.Rows[0].Name != "white-box victim" || tb.Rows[1].Name != "transfer victim" {
		t.Fatalf("row names: %q %q", tb.Rows[0].Name, tb.Rows[1].Name)
	}
}
