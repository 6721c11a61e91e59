package nofm

import (
	"fmt"
	"math"

	"spinngo/internal/sim"
)

// Image is a grayscale image with float64 pixels.
type Image struct {
	W, H int
	Pix  []float64
}

// NewImage allocates a zero image.
func NewImage(w, h int) *Image { return &Image{W: w, H: h, Pix: make([]float64, w*h)} }

// At reads a pixel, clamping coordinates at the border (replicate
// padding for the receptive-field convolution).
func (im *Image) At(x, y int) float64 {
	if x < 0 {
		x = 0
	}
	if x >= im.W {
		x = im.W - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= im.H {
		y = im.H - 1
	}
	return im.Pix[y*im.W+x]
}

// GaussianBlob paints a normalised Gaussian at (cx, cy).
func (im *Image) GaussianBlob(cx, cy, sigma, amp float64) {
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			dx, dy := float64(x)-cx, float64(y)-cy
			im.Pix[y*im.W+x] += amp * math.Exp(-(dx*dx+dy*dy)/(2*sigma*sigma))
		}
	}
}

// Grating paints a sinusoidal grating with the given spatial period and
// orientation (radians).
func (im *Image) Grating(period, theta, amp float64) {
	kx := math.Cos(theta) * 2 * math.Pi / period
	ky := math.Sin(theta) * 2 * math.Pi / period
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			im.Pix[y*im.W+x] += amp * math.Sin(kx*float64(x)+ky*float64(y))
		}
	}
}

// Cell is one retinal ganglion cell: a difference-of-Gaussians
// ('Mexican hat') receptive field at a position and scale, centre-on or
// centre-off (section 5.4).
type Cell struct {
	X, Y     int
	Sigma    float64 // centre Gaussian width; surround is 1.6x
	OnCenter bool
	Dead     bool
}

// RetinaConfig shapes the cell mosaic.
type RetinaConfig struct {
	// Scales lists centre sigmas; the mosaic covers the image at each
	// scale ("the filters cover the retina at different overlapping
	// scales").
	Scales []float64
	// StrideFactor spaces cells at StrideFactor*sigma; < 2 gives the
	// receptive-field overlap that enables neighbour takeover.
	StrideFactor float64
	// N is the rank-order code length.
	N int
	// Alpha is the rank significance decay.
	Alpha float64
	// InhibitRadiusFactor scales lateral inhibition reach (in units of
	// sigma); inhibition reduces redundancy in the spike stream.
	InhibitRadiusFactor float64
	// InhibitStrength subtracts this fraction of the winner's response
	// from inhibited neighbours.
	InhibitStrength float64
}

// DefaultRetinaConfig returns a two-scale overlapping mosaic.
func DefaultRetinaConfig() RetinaConfig {
	return RetinaConfig{
		Scales:              []float64{1.5, 3},
		StrideFactor:        1.0,
		N:                   24,
		Alpha:               0.9,
		InhibitRadiusFactor: 2.0,
		InhibitStrength:     0.5,
	}
}

// Retina is the ganglion-cell mosaic over a fixed image shape.
type Retina struct {
	W, H  int
	Cfg   RetinaConfig
	Cells []Cell
}

// NewRetina tiles cells over a w x h image: at each scale, ON- and
// OFF-centre cells on a stride grid.
func NewRetina(w, h int, cfg RetinaConfig) (*Retina, error) {
	if len(cfg.Scales) == 0 || cfg.N <= 0 || cfg.Alpha <= 0 || cfg.Alpha >= 1 {
		return nil, fmt.Errorf("nofm: invalid retina config %+v", cfg)
	}
	r := &Retina{W: w, H: h, Cfg: cfg}
	for _, sigma := range cfg.Scales {
		stride := int(math.Max(1, cfg.StrideFactor*sigma))
		for y := stride / 2; y < h; y += stride {
			for x := stride / 2; x < w; x += stride {
				r.Cells = append(r.Cells,
					Cell{X: x, Y: y, Sigma: sigma, OnCenter: true},
					Cell{X: x, Y: y, Sigma: sigma, OnCenter: false})
			}
		}
	}
	return r, nil
}

// Size reports the number of ganglion cells.
func (r *Retina) Size() int { return len(r.Cells) }

// respond computes one cell's DoG response.
func (r *Retina) respond(c *Cell, im *Image) float64 {
	if c.Dead {
		return 0
	}
	centre, surround := 0.0, 0.0
	var cw, sw float64
	sigS := 1.6 * c.Sigma
	rad := int(3*sigS) + 1
	for dy := -rad; dy <= rad; dy++ {
		for dx := -rad; dx <= rad; dx++ {
			d2 := float64(dx*dx + dy*dy)
			p := im.At(c.X+dx, c.Y+dy)
			wc := math.Exp(-d2 / (2 * c.Sigma * c.Sigma))
			ws := math.Exp(-d2 / (2 * sigS * sigS))
			centre += wc * p
			surround += ws * p
			cw += wc
			sw += ws
		}
	}
	resp := centre/cw - surround/sw
	if !c.OnCenter {
		resp = -resp
	}
	if resp < 0 {
		return 0 // rectified: cells only fire positively
	}
	return resp
}

// Respond computes all cell responses with lateral inhibition applied:
// cells are visited in descending raw response order; each suppresses
// weaker same-scale neighbours within the inhibition radius
// ("lateral inhibition reduces the information redundancy in the
// resultant stream of spikes", section 5.4).
func (r *Retina) Respond(im *Image) []float64 {
	raw := make([]float64, len(r.Cells))
	for i := range r.Cells {
		raw[i] = r.respond(&r.Cells[i], im)
	}
	if r.Cfg.InhibitStrength <= 0 {
		return raw
	}
	order := RankOrderEncode(raw, len(raw))
	out := append([]float64(nil), raw...)
	suppressed := make([]bool, len(raw))
	for _, i := range order {
		if suppressed[i] || out[i] <= 0 {
			continue
		}
		ci := r.Cells[i]
		radius := r.Cfg.InhibitRadiusFactor * ci.Sigma
		for j := range r.Cells {
			if j == i || r.Cells[j].Sigma != ci.Sigma || r.Cells[j].OnCenter != ci.OnCenter {
				continue
			}
			dx := float64(r.Cells[j].X - ci.X)
			dy := float64(r.Cells[j].Y - ci.Y)
			if dx*dx+dy*dy <= radius*radius {
				out[j] -= r.Cfg.InhibitStrength * out[i]
				if out[j] < 0 {
					out[j] = 0
				}
				suppressed[j] = true
			}
		}
	}
	return out
}

// Encode produces the retina's rank-order code for an image.
func (r *Retina) Encode(im *Image) Code {
	return RankOrderEncode(r.Respond(im), r.Cfg.N)
}

// KillFraction disables the given fraction of cells at random,
// modelling neuron loss ("the average adult human loses a neuron every
// second of their lives").
func (r *Retina) KillFraction(frac float64, rng *sim.RNG) int {
	killed := 0
	for i := range r.Cells {
		if !r.Cells[i].Dead && rng.Bool(frac) {
			r.Cells[i].Dead = true
			killed++
		}
	}
	return killed
}

// CodeField renders what a rank-order code *says about the image*: each
// coded cell paints its receptive-field centre Gaussian (signed by
// polarity) weighted by its rank significance. Two codes that use
// different cells with overlapping receptive fields — the neighbour
// takeover of section 5.4 — produce nearly identical fields, which is
// exactly why "very little information will be lost".
func (r *Retina) CodeField(code Code) []float64 {
	field := make([]float64, r.W*r.H)
	w := 1.0
	for _, ci := range code {
		if ci < 0 || ci >= len(r.Cells) {
			continue
		}
		c := r.Cells[ci]
		sign := w
		if !c.OnCenter {
			sign = -w
		}
		rad := int(2*c.Sigma) + 1
		for dy := -rad; dy <= rad; dy++ {
			y := c.Y + dy
			if y < 0 || y >= r.H {
				continue
			}
			for dx := -rad; dx <= rad; dx++ {
				x := c.X + dx
				if x < 0 || x >= r.W {
					continue
				}
				d2 := float64(dx*dx + dy*dy)
				field[y*r.W+x] += sign * math.Exp(-d2/(2*c.Sigma*c.Sigma))
			}
		}
		w *= r.Cfg.Alpha
	}
	return field
}

// FieldCorrelation is the cosine similarity of two rendered code fields:
// the information-preservation metric for E12.
func FieldCorrelation(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// InformationSimilarity compares two codes by the image content they
// carry (receptive-field aware), rather than by cell identity.
func (r *Retina) InformationSimilarity(a, b Code) float64 {
	return FieldCorrelation(r.CodeField(a), r.CodeField(b))
}
