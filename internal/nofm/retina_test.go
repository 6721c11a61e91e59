package nofm

import (
	"math"
	"testing"

	"spinngo/internal/sim"
)

func testImage() *Image {
	im := NewImage(32, 32)
	im.GaussianBlob(10, 10, 2.5, 1.0)
	im.GaussianBlob(22, 18, 4, 0.7)
	im.Grating(8, 0.5, 0.15)
	return im
}

func TestRetinaConstruction(t *testing.T) {
	r, err := NewRetina(32, 32, DefaultRetinaConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() == 0 {
		t.Fatal("empty retina")
	}
	on, off := 0, 0
	for _, c := range r.Cells {
		if c.OnCenter {
			on++
		} else {
			off++
		}
	}
	if on != off {
		t.Errorf("on/off mosaic unbalanced: %d vs %d", on, off)
	}
}

func TestRetinaRejectsBadConfig(t *testing.T) {
	cfg := DefaultRetinaConfig()
	cfg.Alpha = 1.5
	if _, err := NewRetina(8, 8, cfg); err == nil {
		t.Error("alpha > 1 accepted")
	}
	cfg = DefaultRetinaConfig()
	cfg.Scales = nil
	if _, err := NewRetina(8, 8, cfg); err == nil {
		t.Error("no scales accepted")
	}
}

func TestDoGIgnoresUniformField(t *testing.T) {
	// A centre-surround cell must not respond to uniform illumination.
	r, _ := NewRetina(16, 16, DefaultRetinaConfig())
	flat := NewImage(16, 16)
	for i := range flat.Pix {
		flat.Pix[i] = 0.7
	}
	for _, resp := range r.Respond(flat) {
		if resp > 1e-6 {
			t.Fatalf("cell responded %g to uniform field", resp)
		}
	}
}

func TestDoGRespondsToContrast(t *testing.T) {
	r, _ := NewRetina(32, 32, DefaultRetinaConfig())
	resp := r.Respond(testImage())
	max := 0.0
	for _, v := range resp {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		t.Fatal("no cell responded to a structured image")
	}
}

func TestOnOffComplementarity(t *testing.T) {
	// A bright blob excites ON-centre cells at its peak; a dark hole
	// excites OFF-centre cells there.
	cfg := DefaultRetinaConfig()
	cfg.InhibitStrength = 0 // raw responses
	r, _ := NewRetina(32, 32, cfg)
	bright := NewImage(32, 32)
	bright.GaussianBlob(16, 16, 2, 1)
	dark := NewImage(32, 32)
	for i := range dark.Pix {
		dark.Pix[i] = 1
	}
	dark.GaussianBlob(16, 16, 2, -1)
	respB := r.Respond(bright)
	respD := r.Respond(dark)
	bestB, bestD := 0, 0
	for i := range r.Cells {
		if respB[i] > respB[bestB] {
			bestB = i
		}
		if respD[i] > respD[bestD] {
			bestD = i
		}
	}
	if !r.Cells[bestB].OnCenter {
		t.Error("bright blob best cell is not ON-centre")
	}
	if r.Cells[bestD].OnCenter {
		t.Error("dark hole best cell is not OFF-centre")
	}
}

func TestLateralInhibitionSpreadsCode(t *testing.T) {
	// With inhibition, coded cells should be more spatially spread
	// (less redundant) than without.
	spread := func(inhibit float64) float64 {
		cfg := DefaultRetinaConfig()
		cfg.InhibitStrength = inhibit
		r, _ := NewRetina(32, 32, cfg)
		code := r.Encode(testImage())
		// Mean pairwise distance of coded cells.
		sum, n := 0.0, 0
		for i := 0; i < len(code); i++ {
			for j := i + 1; j < len(code); j++ {
				a, b := r.Cells[code[i]], r.Cells[code[j]]
				dx, dy := float64(a.X-b.X), float64(a.Y-b.Y)
				sum += dx*dx + dy*dy
				n++
			}
		}
		return sum / float64(n)
	}
	if spread(0.5) <= spread(0) {
		t.Error("lateral inhibition did not spread the code")
	}
}

func TestE12NeighborTakeover(t *testing.T) {
	// Kill the top-responding cell: the paper says a near neighbour
	// with a similar receptive field takes over and little information
	// is lost.
	r, _ := NewRetina(32, 32, DefaultRetinaConfig())
	im := testImage()
	ref := r.Encode(im)
	top := ref[0]
	nb, ok := r.NearestLiveNeighbor(top)
	if !ok {
		t.Fatal("no neighbour found")
	}
	r.KillCell(top)
	got := r.Encode(im)
	// The dead cell must vanish from the code...
	for _, u := range got {
		if u == top {
			t.Fatal("dead cell still in code")
		}
	}
	// ...the code stays highly similar...
	s := Similarity(ref, got, r.Size(), r.Cfg.Alpha)
	if s < 0.5 {
		t.Errorf("similarity after single-cell death = %.3f, want >= 0.5", s)
	}
	// ...and the takeover neighbour appears in the new code.
	found := false
	for _, u := range got {
		if u == nb {
			found = true
			break
		}
	}
	if !found {
		t.Logf("note: nearest neighbour %d not in code (may be inhibited); code similarity %.3f", nb, s)
	}
}

func TestE12GracefulDegradation(t *testing.T) {
	// Similarity must decay gracefully, not collapse, as cells die.
	r, _ := NewRetina(32, 32, DefaultRetinaConfig())
	im := testImage()
	ref := r.Encode(im)
	rng := sim.NewRNG(9)
	prev := 1.0
	for _, frac := range []float64{0.1, 0.3, 0.5} {
		r.Revive()
		r.KillFraction(frac, rng)
		s := Similarity(ref, r.Encode(im), r.Size(), r.Cfg.Alpha)
		if s > prev+0.15 {
			t.Errorf("similarity rose from %.3f to %.3f as more cells died", prev, s)
		}
		prev = s
	}
	// At 10% loss the code should remain clearly recognisable.
	r.Revive()
	rng2 := sim.NewRNG(10)
	r.KillFraction(0.1, rng2)
	if s := Similarity(ref, r.Encode(im), r.Size(), r.Cfg.Alpha); s < 0.4 {
		t.Errorf("similarity at 10%% loss = %.3f, want >= 0.4 (graceful)", s)
	}
}

func TestKillFractionCounts(t *testing.T) {
	r, _ := NewRetina(16, 16, DefaultRetinaConfig())
	rng := sim.NewRNG(1)
	killed := r.KillFraction(1.0, rng)
	if killed != r.Size() {
		t.Errorf("killed %d of %d at fraction 1.0", killed, r.Size())
	}
	if again := r.KillFraction(1.0, rng); again != 0 {
		t.Errorf("re-killed %d dead cells", again)
	}
	r.Revive()
	alive := 0
	for _, c := range r.Cells {
		if !c.Dead {
			alive++
		}
	}
	if alive != r.Size() {
		t.Error("revive incomplete")
	}
}

func TestDeadCellsSilent(t *testing.T) {
	r, _ := NewRetina(16, 16, DefaultRetinaConfig())
	rng := sim.NewRNG(2)
	r.KillFraction(1.0, rng)
	for _, v := range r.Respond(testImageSized(16)) {
		if v != 0 {
			t.Fatal("dead retina produced a response")
		}
	}
}

func testImageSized(n int) *Image {
	im := NewImage(n, n)
	im.GaussianBlob(float64(n)/2, float64(n)/2, 2, 1)
	return im
}

func TestCodeFieldBasics(t *testing.T) {
	r, _ := NewRetina(16, 16, DefaultRetinaConfig())
	// Empty code renders nothing.
	for _, v := range r.CodeField(Code{}) {
		if v != 0 {
			t.Fatal("empty code rendered a field")
		}
	}
	// Identity: a code's field correlates perfectly with itself.
	code := r.Encode(testImageSized(16))
	if got := r.InformationSimilarity(code, code); got < 0.9999 {
		t.Errorf("self information similarity = %g", got)
	}
	// Out-of-range unit indices are ignored, not a panic.
	r.CodeField(Code{-1, 1 << 20})
}

func TestInformationSimilaritySeesThroughTakeover(t *testing.T) {
	// The section-5.4 point made quantitative: kill coded cells so the
	// code's unit identities change, and verify the information
	// similarity stays far above the identity similarity — the
	// replacement cells describe the same image.
	r, _ := NewRetina(32, 32, DefaultRetinaConfig())
	im := testImage()
	ref := r.Encode(im)
	// Kill the top half of the coded cells.
	for _, u := range ref[:len(ref)/2] {
		r.KillCell(u)
	}
	got := r.Encode(im)
	ident := Similarity(ref, got, r.Size(), r.Cfg.Alpha)
	info := r.InformationSimilarity(ref, got)
	if info <= ident {
		t.Errorf("information similarity %.3f not above identity %.3f", info, ident)
	}
	if info < 0.7 {
		t.Errorf("information similarity %.3f; takeover should preserve image content", info)
	}
}

func TestFieldCorrelationBounds(t *testing.T) {
	a := []float64{1, 0, -1}
	if got := FieldCorrelation(a, a); got < 0.9999 {
		t.Errorf("self correlation %g", got)
	}
	b := []float64{-1, 0, 1}
	if got := FieldCorrelation(a, b); got > -0.9999 {
		t.Errorf("anti-correlation %g", got)
	}
	if got := FieldCorrelation(a, []float64{0, 0, 0}); got != 0 {
		t.Errorf("zero field correlation %g", got)
	}
}

// KillCell disables one cell.
func (r *Retina) KillCell(i int) { r.Cells[i].Dead = true }

// Revive restores all cells.
func (r *Retina) Revive() {
	for i := range r.Cells {
		r.Cells[i].Dead = false
	}
}

// NearestLiveNeighbor finds the closest live cell of the same scale and
// polarity — the cell that takes over a dead cell's receptive field.
func (r *Retina) NearestLiveNeighbor(i int) (int, bool) {
	ci := r.Cells[i]
	best, bestD := -1, math.MaxFloat64
	for j := range r.Cells {
		cj := r.Cells[j]
		if j == i || cj.Dead || cj.Sigma != ci.Sigma || cj.OnCenter != ci.OnCenter {
			continue
		}
		dx, dy := float64(cj.X-ci.X), float64(cj.Y-ci.Y)
		if d := dx*dx + dy*dy; d < bestD {
			bestD = d
			best = j
		}
	}
	return best, best >= 0
}
