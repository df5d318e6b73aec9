package scene

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClassStringsAndIndices(t *testing.T) {
	tests := []struct {
		c    Class
		name string
		idx  int
	}{
		{Person, "person", 0},
		{Word, "word", 1},
		{Mark, "mark", 2},
		{Car, "car", 3},
		{Bicycle, "bicycle", 4},
	}
	for _, tt := range tests {
		if tt.c.String() != tt.name || tt.c.Index() != tt.idx {
			t.Errorf("%v: name %q idx %d", tt.c, tt.c.String(), tt.c.Index())
		}
		if ClassFromIndex(tt.idx) != tt.c {
			t.Errorf("ClassFromIndex(%d) != %v", tt.idx, tt.c)
		}
	}
}

func TestBoxIoU(t *testing.T) {
	a := Box{CX: 5, CY: 5, W: 10, H: 10}
	tests := []struct {
		name string
		b    Box
		want float64
	}{
		{name: "identical", b: a, want: 1},
		{name: "disjoint", b: Box{CX: 50, CY: 50, W: 4, H: 4}, want: 0},
		{name: "half overlap", b: Box{CX: 10, CY: 5, W: 10, H: 10}, want: 1.0 / 3},
		{name: "contained quarter", b: Box{CX: 5, CY: 5, W: 5, H: 5}, want: 0.25},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := a.IoU(tt.b); math.Abs(got-tt.want) > 1e-9 {
				t.Fatalf("IoU = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPropIoUSymmetricAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rb := func() Box {
			return Box{CX: r.Float64() * 20, CY: r.Float64() * 20, W: 1 + r.Float64()*10, H: 1 + r.Float64()*10}
		}
		a, b := rb(), rb()
		ab, ba := a.IoU(b), b.IoU(a)
		return math.Abs(ab-ba) < 1e-12 && ab >= 0 && ab <= 1 && math.Abs(a.IoU(a)-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGroundCoordinateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := NewRoad(rng, 8, 30, 0.05)
	for _, p := range [][2]float64{{0, 0}, {-3, 12}, {2.5, 29}} {
		tx, ty := g.TexelOf(p[0], p[1])
		gx, gy := g.MetersOf(tx, ty)
		if math.Abs(gx-p[0]) > 1e-9 || math.Abs(gy-p[1]) > 1e-9 {
			t.Fatalf("round trip %v -> (%v,%v)", p, gx, gy)
		}
	}
	if g.Cols() != 160 || g.Rows() != 600 {
		t.Fatalf("raster = %dx%d", g.Cols(), g.Rows())
	}
}

func TestPaintArrowBrightensRegion(t *testing.T) {
	g := NewSimRoom(6, 20, 0.05)
	before := g.Tex.Mean()
	x0, y0, x1, y1 := g.PaintArrow(0, 10, 1.6)
	if g.Tex.Mean() <= before {
		t.Fatal("arrow did not brighten the texture")
	}
	// Center of the arrow shaft must be white.
	tx, ty := g.TexelOf(0, 10-0.3)
	if g.Tex.At(0, int(ty), int(tx)) < 0.8 {
		t.Fatalf("arrow shaft not painted: %v", g.Tex.At(0, int(ty), int(tx)))
	}
	if x1-x0 <= 0 || y1-y0 <= 0 {
		t.Fatal("degenerate arrow bbox")
	}
	// Texels outside the bbox stay gray.
	tx, ty = g.TexelOf(2.5, 10)
	if g.Tex.At(0, int(ty), int(tx)) != 0.55 {
		t.Fatal("paint leaked outside bbox")
	}
}

func TestPaintWordStripes(t *testing.T) {
	g := NewSimRoom(6, 20, 0.05)
	x0, y0, x1, y1 := g.PaintWordStripesN(0, 8, 2, 5, 0)
	if x1-x0 <= 0 || y1-y0 <= 0 {
		t.Fatal("degenerate word bbox")
	}
	// Stripes alternate: some rows painted, some not.
	txc, _ := g.TexelOf(0, 8)
	painted, unpainted := false, false
	_, tyTop := g.TexelOf(0, y1)
	_, tyBot := g.TexelOf(0, y0)
	for y := int(tyTop) + 1; y < int(tyBot); y++ {
		v := g.Tex.At(0, y, int(txc))
		if v > 0.8 {
			painted = true
		} else {
			unpainted = true
		}
	}
	if !painted || !unpainted {
		t.Fatalf("stripes not alternating: painted=%v unpainted=%v", painted, unpainted)
	}
}

func TestDecalQuadGeometry(t *testing.T) {
	g := NewSimRoom(6, 20, 0.05)
	quad := g.DecalQuad(0, 10, 1, 0)
	// Unrotated 1m decal spans 20 texels.
	if math.Abs(quad[1].X-quad[0].X-20) > 1e-9 {
		t.Fatalf("decal width = %v texels", quad[1].X-quad[0].X)
	}
	// Rotation by 90° permutes extents but keeps the center.
	rot := g.DecalQuad(0, 10, 1, math.Pi/2)
	cx := (rot[0].X + rot[2].X) / 2
	cy := (rot[0].Y + rot[2].Y) / 2
	wx, wy := g.TexelOf(0, 10)
	if math.Abs(cx-wx) > 1e-6 || math.Abs(cy-wy) > 1e-6 {
		t.Fatalf("rotation moved decal center to (%v,%v), want (%v,%v)", cx, cy, wx, wy)
	}
}

func TestCameraProjectGeometry(t *testing.T) {
	cam := DefaultCamera()
	// A point straight ahead projects onto the vertical centerline.
	ix, iy, depth, ok := cam.Project(0, 10)
	if !ok || math.Abs(ix-cam.Cx) > 1e-9 {
		t.Fatalf("straight-ahead point off center: %v", ix)
	}
	if depth != 10 {
		t.Fatalf("depth = %v", depth)
	}
	// Farther points appear higher (smaller y) in the image.
	_, iyFar, _, _ := cam.Project(0, 20)
	if iyFar >= iy {
		t.Fatalf("farther point not higher: %v vs %v", iyFar, iy)
	}
	// Points behind the camera are rejected.
	if _, _, _, ok := cam.Project(0, -5); ok {
		t.Fatal("point behind camera accepted")
	}
}

func TestCameraProjectLateralSign(t *testing.T) {
	cam := DefaultCamera()
	ixL, _, _, _ := cam.Project(-2, 10)
	ixR, _, _, _ := cam.Project(2, 10)
	if !(ixL < cam.Cx && ixR > cam.Cx) {
		t.Fatalf("lateral projection signs wrong: %v %v", ixL, ixR)
	}
}

func TestCameraRollRotatesProjection(t *testing.T) {
	cam := DefaultCamera()
	ix0, iy0, _, _ := cam.Project(2, 10)
	cam.Roll = math.Pi / 2
	// A +90° roll maps image offset (dx, dy) to (−dy, dx).
	ix, iy, _, _ := cam.Project(2, 10)
	wantX := cam.Cx - (iy0 - cam.Cy)
	wantY := cam.Cy + (ix0 - cam.Cx)
	if math.Abs(ix-wantX) > 1e-9 || math.Abs(iy-wantY) > 1e-9 {
		t.Fatalf("rolled point (%v,%v), want (%v,%v)", ix, iy, wantX, wantY)
	}
}

func TestCameraRenderProducesRoadAndSky(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := NewRoad(rng, 8, 30, 0.05)
	cam := DefaultCamera()
	cam.Y = 2
	img, err := cam.Render(g)
	if err != nil {
		t.Fatal(err)
	}
	if img.Dim(1) != 64 || img.Dim(2) != 64 {
		t.Fatalf("frame shape %v", img.Shape())
	}
	// Top row is sky (blueish: B > R), bottom rows are road gray.
	topR := img.At(0, 0, 32)
	topB := img.At(2, 0, 32)
	if topB <= topR {
		t.Fatalf("sky not blueish: R=%v B=%v", topR, topB)
	}
	bottom := img.At(0, 60, 32)
	if bottom < 0.2 || bottom > 0.6 {
		t.Fatalf("road pixel = %v", bottom)
	}
	if img.HasNaN() {
		t.Fatal("render produced NaN")
	}
}

func TestGroundBoxToImage(t *testing.T) {
	cam := DefaultCamera()
	box, ok := cam.GroundBoxToImage(-0.8, 7, 0.8, 8.6)
	if !ok {
		t.Fatal("visible box rejected")
	}
	if box.W < 2 || box.H < 2 || box.CY < cam.Cy {
		t.Fatalf("implausible box %+v", box)
	}
	// Behind the camera: rejected.
	if _, ok := cam.GroundBoxToImage(-1, -5, 1, -3); ok {
		t.Fatal("behind-camera box accepted")
	}
	// Tiny far box: rejected.
	if _, ok := cam.GroundBoxToImage(-0.05, 200, 0.05, 200.1); ok {
		t.Fatal("sub-pixel box accepted")
	}
}

func TestSpritesHaveInkAndAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sp := range []*Sprite{NewCarSprite(rng), NewPersonSprite(rng), NewBicycleSprite(rng)} {
		if sp.Alpha.Sum() < 20 {
			t.Fatalf("%v sprite nearly empty", sp.Class)
		}
		if sp.RGB.Min() < 0 || sp.RGB.Max() > 1 {
			t.Fatalf("%v sprite colors out of range", sp.Class)
		}
		if sp.HeightM <= 0 {
			t.Fatalf("%v sprite has no physical height", sp.Class)
		}
	}
}

func TestPasteBillboardScalesWithDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cam := DefaultCamera()
	g := NewSimRoom(8, 30, 0.05)
	sp := NewCarSprite(rng)
	img1, _ := cam.Render(g)
	near, ok1 := PasteBillboard(img1, cam, sp, 0, 6)
	img2, _ := cam.Render(g)
	far, ok2 := PasteBillboard(img2, cam, sp, 0, 18)
	if !ok1 || !ok2 {
		t.Fatal("billboards rejected")
	}
	if near.H <= far.H {
		t.Fatalf("near object (%v) should be taller than far (%v)", near.H, far.H)
	}
	// Behind camera rejected.
	img3, _ := cam.Render(g)
	if _, ok := PasteBillboard(img3, cam, sp, 0, -2); ok {
		t.Fatal("behind-camera billboard accepted")
	}
}

func TestGenerateDatasetShapes(t *testing.T) {
	cfg := DatasetConfig{Cam: DefaultCamera(), NumTrain: 12, NumTest: 4, Seed: 7}
	ds := GenerateDataset(cfg)
	if len(ds.Train) != 12 || len(ds.Test) != 4 {
		t.Fatalf("split = %d/%d", len(ds.Train), len(ds.Test))
	}
	classSeen := map[Class]bool{}
	for _, f := range append(append([]Frame{}, ds.Train...), ds.Test...) {
		if f.Image.Dim(1) != 64 {
			t.Fatalf("frame shape %v", f.Image.Shape())
		}
		if len(f.Objects) == 0 {
			t.Fatal("frame without objects")
		}
		if f.Image.HasNaN() {
			t.Fatal("NaN in dataset image")
		}
		for _, o := range f.Objects {
			classSeen[o.Class] = true
			if o.Box.W < 2 || o.Box.H < 2 {
				t.Fatalf("degenerate label %+v", o)
			}
		}
	}
	if !classSeen[Mark] {
		t.Fatal("no mark objects generated in 16 scenes")
	}
}

func TestGenerateDatasetDeterministic(t *testing.T) {
	cfg := DatasetConfig{Cam: DefaultCamera(), NumTrain: 3, NumTest: 1, Seed: 42}
	a := GenerateDataset(cfg)
	b := GenerateDataset(cfg)
	for i := range a.Train {
		if len(a.Train[i].Objects) != len(b.Train[i].Objects) {
			t.Fatal("dataset generation not deterministic")
		}
		for j := range a.Train[i].Image.Data() {
			if a.Train[i].Image.Data()[j] != b.Train[i].Image.Data()[j] {
				t.Fatal("dataset images not deterministic")
			}
		}
	}
}

func TestBatchWrapsAround(t *testing.T) {
	cfg := DatasetConfig{Cam: DefaultCamera(), NumTrain: 3, NumTest: 1, Seed: 5}
	ds := GenerateDataset(cfg)
	x, labels := Batch(ds.Train, 2, 4)
	if x.Dim(0) != 4 || len(labels) != 4 {
		t.Fatalf("batch shape %v labels %d", x.Shape(), len(labels))
	}
	// Element 1 of the batch is frame (2+1)%3 = 0.
	want := ds.Train[0].Image.Data()
	got := x.Data()[1*3*64*64 : 1*3*64*64+16]
	for i := range got {
		if got[i] != want[i] {
			t.Fatal("batch wrap-around picked wrong frame")
		}
	}
}

func TestChallengesAndTrajectories(t *testing.T) {
	cam := DefaultCamera()
	rng := rand.New(rand.NewSource(6))
	for _, name := range AllChallengeNames {
		ch := Challenges(name)[0]
		steps := BuildTrajectory(cam, ch, 0, 15, rng)
		if len(steps) < 4 {
			t.Fatalf("%s: only %d steps", name, len(steps))
		}
		if ch.SpeedKmh == 0 {
			if steps[0].Cam.Y != steps[len(steps)-1].Cam.Y {
				t.Fatalf("%s: stationary challenge moved", name)
			}
		} else if steps[len(steps)-1].Cam.Y <= steps[0].Cam.Y {
			t.Fatalf("%s: camera did not advance", name)
		}
	}
}

func TestTrajectorySpeedControlsLengthAndBlur(t *testing.T) {
	cam := DefaultCamera()
	rng := rand.New(rand.NewSource(7))
	slow := BuildTrajectory(cam, Challenges("slow")[0], 0, 15, rng)
	fast := BuildTrajectory(cam, Challenges("fast")[0], 0, 15, rng)
	if len(fast) >= len(slow) {
		t.Fatalf("fast approach has %d frames, slow %d", len(fast), len(slow))
	}
	maxBlur := func(steps []TrajectoryStep) int {
		m := 0
		for _, s := range steps {
			if s.BlurLen > m {
				m = s.BlurLen
			}
		}
		return m
	}
	if maxBlur(fast) <= maxBlur(slow) {
		t.Fatalf("fast blur %d should exceed slow blur %d", maxBlur(fast), maxBlur(slow))
	}
}

func TestAngleChallengeShiftsTarget(t *testing.T) {
	cam := DefaultCamera()
	rng := rand.New(rand.NewSource(8))
	left := BuildTrajectory(cam, Challenges("angle-15")[0], 0, 15, rng)
	center := BuildTrajectory(cam, Challenges("angle0")[0], 0, 15, rng)
	right := BuildTrajectory(cam, Challenges("angle+15")[0], 0, 15, rng)
	ixL, _, _, _ := left[0].Cam.Project(0, 15)
	ixC, _, _, _ := center[0].Cam.Project(0, 15)
	ixR, _, _, _ := right[0].Cam.Project(0, 15)
	if !(ixL < ixC && ixC < ixR) {
		t.Fatalf("target x positions not ordered: %v %v %v", ixL, ixC, ixR)
	}
}

func TestRenderVideoLabelsTarget(t *testing.T) {
	g := NewSimRoom(8, 30, 0.05)
	x0, y0, x1, y1 := g.PaintArrow(0, 15, 1.6)
	cam := DefaultCamera()
	rng := rand.New(rand.NewSource(9))
	steps := BuildTrajectory(cam, Challenges("slow")[0], 0, 15, rng)
	frames, err := RenderVideo(g, steps, x0, y0, x1, y1)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != len(steps) {
		t.Fatalf("frames %d != steps %d", len(frames), len(steps))
	}
	okCount := 0
	var sizes []float64
	for _, f := range frames {
		if f.Image.HasNaN() {
			t.Fatal("NaN frame")
		}
		if f.TargetOK {
			okCount++
			sizes = append(sizes, f.TargetBox.H)
		}
	}
	if okCount < len(frames)/2 {
		t.Fatalf("target visible in only %d/%d frames", okCount, len(frames))
	}
	// Target grows as the camera approaches.
	if sizes[len(sizes)-1] <= sizes[0] {
		t.Fatalf("target did not grow: %v -> %v", sizes[0], sizes[len(sizes)-1])
	}
}

func TestChallengesPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Challenges("warp-speed")
}

func TestPaintWordStripesNVariants(t *testing.T) {
	for _, stripes := range []int{3, 5, 7} {
		g := NewSimRoom(6, 20, 0.05)
		x0, y0, x1, y1 := g.PaintWordStripesN(0, 8, 2, stripes, 0)
		if x1-x0 <= 0 || y1-y0 <= 0 {
			t.Fatalf("stripes=%d: degenerate bbox", stripes)
		}
		// Count painted bands along the center column.
		txc, _ := g.TexelOf(0, 8)
		_, tyTop := g.TexelOf(0, y1)
		_, tyBot := g.TexelOf(0, y0)
		bands, in := 0, false
		for y := int(tyTop); y <= int(tyBot); y++ {
			painted := g.Tex.At(0, y, int(txc)) > 0.8
			if painted && !in {
				bands++
			}
			in = painted
		}
		want := (stripes + 1) / 2
		if bands != want {
			t.Fatalf("stripes=%d: %d painted bands, want %d", stripes, bands, want)
		}
	}
}

func TestPaintWordStripesNGaps(t *testing.T) {
	g := NewSimRoom(6, 20, 0.05)
	g.PaintWordStripesN(0, 8, 2, 5, 0.4)
	// With gaps, the top stripe must contain both painted and unpainted
	// texels along its row.
	_, ty := g.TexelOf(0, 8.45)
	painted, unpainted := false, false
	tx0, _ := g.TexelOf(-0.9, 0)
	tx1, _ := g.TexelOf(0.9, 0)
	for x := int(tx0); x <= int(tx1); x++ {
		if g.Tex.At(0, int(ty), x) > 0.8 {
			painted = true
		} else {
			unpainted = true
		}
	}
	if !painted || !unpainted {
		t.Fatalf("gap stripes not broken: painted=%v unpainted=%v", painted, unpainted)
	}
}

func TestWearArrowErodesPaint(t *testing.T) {
	g := NewSimRoom(6, 20, 0.05)
	g.PaintArrow(0, 10, 1.6)
	before := g.Tex.Mean()
	rng := rand.New(rand.NewSource(5))
	g.WearArrow(rng, 0, 10, 1.6, 0.5)
	if g.Tex.Mean() >= before {
		t.Fatal("wear did not erode paint")
	}
	// Wear never brightens unpainted asphalt.
	tx, ty := g.TexelOf(2.5, 10)
	if g.Tex.At(0, int(ty), int(tx)) != 0.55 {
		t.Fatal("wear leaked outside the arrow")
	}
}

func TestWearArrowZeroFractionIsNoOp(t *testing.T) {
	g := NewSimRoom(6, 20, 0.05)
	g.PaintArrow(0, 10, 1.6)
	before := g.Tex.Clone()
	g.WearArrow(rand.New(rand.NewSource(6)), 0, 10, 1.6, 0)
	for i := range before.Data() {
		if before.Data()[i] != g.Tex.Data()[i] {
			t.Fatal("holeFrac=0 must not change the texture")
		}
	}
}

func TestCastShadowDarkensInteriorOnly(t *testing.T) {
	g := NewSimRoom(6, 20, 0.05)
	g.CastShadow(-1, 9, 1, 11, 0.5)
	// Deep interior is fully dimmed.
	tx, ty := g.TexelOf(0, 10)
	if v := g.Tex.At(0, int(ty), int(tx)); math.Abs(v-0.55*0.5) > 0.03 {
		t.Fatalf("interior shadow = %v, want ≈ %v", v, 0.55*0.5)
	}
	// Outside the band nothing changes.
	tx, ty = g.TexelOf(0, 15)
	if v := g.Tex.At(0, int(ty), int(tx)); v != 0.55 {
		t.Fatalf("outside shadow = %v, want 0.55", v)
	}
}

func TestCastShadowNoOpAtDimOne(t *testing.T) {
	g := NewSimRoom(6, 20, 0.05)
	before := g.Tex.Clone()
	g.CastShadow(-1, 9, 1, 11, 1)
	for i := range before.Data() {
		if before.Data()[i] != g.Tex.Data()[i] {
			t.Fatal("dim=1 shadow changed texture")
		}
	}
}

func TestCastShadowPenumbraGradient(t *testing.T) {
	g := NewSimRoom(6, 20, 0.05)
	g.CastShadow(-2, 8, 2, 12, 0.4)
	// Values near the edge are between the full shadow and no shadow.
	_, tyEdge := g.TexelOf(0, 11.95)
	v := g.Tex.At(0, int(tyEdge), g.Cols()/2)
	if v <= 0.55*0.4+1e-9 || v >= 0.55-1e-9 {
		t.Fatalf("penumbra value %v not between %v and 0.55", v, 0.55*0.4)
	}
}

func TestDatasetVariationProducesWornMarks(t *testing.T) {
	// With wear and stripe variation enabled, generated scenes should still
	// label marks/words with sane boxes (regression test for the dataset
	// realism pass).
	cfg := DatasetConfig{Cam: DefaultCamera(), NumTrain: 20, NumTest: 0, Seed: 11}
	ds := GenerateDataset(cfg)
	marks, words := 0, 0
	for _, f := range ds.Train {
		for _, o := range f.Objects {
			switch o.Class {
			case Mark:
				marks++
			case Word:
				words++
			}
			if o.Box.W <= 0 || o.Box.H <= 0 {
				t.Fatalf("degenerate box %+v", o)
			}
		}
	}
	if marks == 0 || words == 0 {
		t.Fatalf("marks=%d words=%d: dataset lost a ground class", marks, words)
	}
}

func TestVideoFrameBlurIncreasesNearTarget(t *testing.T) {
	// Within one fast approach, blur length grows as distance shrinks
	// (disp ∝ 1/d²).
	cam := DefaultCamera()
	rng := rand.New(rand.NewSource(21))
	steps := BuildTrajectory(cam, Challenges("fast")[0], 0, 15, rng)
	if len(steps) < 3 {
		t.Fatalf("only %d steps", len(steps))
	}
	if steps[len(steps)-1].BlurLen < steps[0].BlurLen {
		t.Fatalf("blur shrank during approach: %d -> %d",
			steps[0].BlurLen, steps[len(steps)-1].BlurLen)
	}
}

func TestStationaryChallengesHaveNoBlur(t *testing.T) {
	cam := DefaultCamera()
	rng := rand.New(rand.NewSource(22))
	for _, name := range []string{"fix", "slight"} {
		for _, st := range BuildTrajectory(cam, Challenges(name)[0], 0, 15, rng) {
			if st.BlurLen > 0 {
				t.Fatalf("%s: stationary frame has blur %d", name, st.BlurLen)
			}
		}
	}
}

func TestSlightRotationJitters(t *testing.T) {
	cam := DefaultCamera()
	rng := rand.New(rand.NewSource(23))
	steps := BuildTrajectory(cam, Challenges("slight")[0], 0, 15, rng)
	varying := false
	for i := 1; i < len(steps); i++ {
		if steps[i].Cam.Roll != steps[0].Cam.Roll {
			varying = true
		}
	}
	if !varying {
		t.Fatal("slight-rotation rolls do not vary")
	}
	for _, st := range BuildTrajectory(cam, Challenges("fix")[0], 0, 15, rng) {
		if st.Cam.Roll != 0 {
			t.Fatal("fix challenge must have zero roll")
		}
	}
}
