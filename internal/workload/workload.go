// Package workload declares simulation workloads — machine, network,
// stimuli, run schedule and scripted fault campaign — as versioned,
// strictly-validated JSON documents, and expands campaign macros
// (chip-death storms, severed regions) into concrete fault events
// deterministically from the document's own seed.
//
// The package is pure data: it knows the torus geometry (for coordinate
// validation and macro expansion) and checks the machine's packaging
// levels through the fabric's own resolver (router.ResolveLevels), but
// knows nothing about machines or engines.
// The root spinngo package turns a parsed Workload into a running
// machine; cmd/spinnsim exposes the registry on the command line.
//
// Parsing is strict by design — a workload is an experiment pinned for
// replay, so unknown keys, trailing data, out-of-range coordinates and
// negative times are all hard errors carrying the line:column or the
// JSON path of the offending field.
package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"spinngo/internal/router"
	"spinngo/internal/topo"
)

// Schema is the workload document format version this package reads.
const Schema = 1

// Workload is one declared experiment: everything needed to rebuild the
// machine, the network, the stimulus schedule and the fault campaign,
// replayable bit-exactly from the seeds it carries.
type Workload struct {
	// SchemaV must equal Schema.
	SchemaV int `json:"schema"`
	// Name identifies the workload in the registry and in reports.
	Name string `json:"name"`
	// Description is a one-line human summary.
	Description string `json:"description,omitempty"`

	Machine     Machine      `json:"machine"`
	Populations []Population `json:"populations"`
	Projections []Projection `json:"projections,omitempty"`
	Stimuli     []Stimulus   `json:"stimuli,omitempty"`
	Run         Run          `json:"run"`
	// Campaign is the optional scripted fault schedule.
	Campaign *Campaign `json:"campaign,omitempty"`
}

// Machine mirrors the machine-construction knobs a workload may pin.
// Zero values mean the same defaults MachineConfig documents.
type Machine struct {
	Width              int     `json:"width"`
	Height             int     `json:"height"`
	Seed               uint64  `json:"seed,omitempty"`
	Workers            int     `json:"workers,omitempty"`
	Partition          string  `json:"partition,omitempty"`
	Boards             string  `json:"boards,omitempty"`
	BoardLink          string  `json:"board_link,omitempty"`
	Cabinets           string  `json:"cabinets,omitempty"`
	CabinetLink        string  `json:"cabinet_link,omitempty"`
	Repartition        bool    `json:"repartition,omitempty"`
	HostOrigin         string  `json:"host_origin,omitempty"`
	MaxAppCoresPerChip int     `json:"max_app_cores_per_chip,omitempty"`
	MaxNeuronsPerCore  int     `json:"max_neurons_per_core,omitempty"`
	FillRedundancy     int     `json:"fill_redundancy,omitempty"`
	CoreFaultProb      float64 `json:"core_fault_prob,omitempty"`
	NoEmergencyRouting bool    `json:"no_emergency_routing,omitempty"`
}

// Population kinds.
const (
	PopPoisson    = "poisson"
	PopLIF        = "lif"
	PopIzhikevich = "izhikevich"
)

// Izhikevich presets.
const (
	IzhRegular    = "regular"
	IzhFast       = "fast"
	IzhChattering = "chattering"
)

// Population declares one neuron population.
type Population struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Size int    `json:"size"`
	// RateHz is the Poisson source rate (poisson only).
	RateHz float64 `json:"rate_hz,omitempty"`
	// Preset selects the Izhikevich cell class (izhikevich only);
	// "" means regular spiking.
	Preset string `json:"preset,omitempty"`
	// BiasNA is a constant background current (lif/izhikevich).
	BiasNA float64 `json:"bias_na,omitempty"`
}

// Projection rules.
const (
	RuleAll    = "all"
	RuleOne    = "one"
	RuleProb   = "prob"
	RuleFanout = "fanout"
)

// Projection declares one projection between named populations.
type Projection struct {
	From       string  `json:"from"`
	To         string  `json:"to"`
	Rule       string  `json:"rule"`
	P          float64 `json:"p,omitempty"`
	Fanout     int     `json:"fanout,omitempty"`
	WeightNA   float64 `json:"weight_na"`
	DelayMS    int     `json:"delay_ms,omitempty"`
	Inhibitory bool    `json:"inhibitory,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	// STDP enables the default plasticity rule on this projection.
	STDP bool `json:"stdp,omitempty"`
}

// Stimulus kinds.
const (
	// StimSpike injects one spike from one neuron at one time.
	StimSpike = "spike"
	// StimScan injects a deterministic sweep: every EveryMS from
	// StartMS to EndMS, Count spikes at neurons (ms*17 + k*Stride) mod
	// size — the shifting-hotspot / congested-storm driver.
	StimScan = "scan"
)

// Stimulus declares one scripted injection schedule into a population.
type Stimulus struct {
	Kind   string `json:"kind"`
	Pop    string `json:"pop"`
	Neuron int    `json:"neuron,omitempty"`
	AtMS   int    `json:"at_ms,omitempty"`
	// Scan schedule (scan only).
	StartMS int `json:"start_ms,omitempty"`
	EndMS   int `json:"end_ms,omitempty"`
	EveryMS int `json:"every_ms,omitempty"`
	Count   int `json:"count,omitempty"`
	Stride  int `json:"stride,omitempty"`
}

// Run is the biological run schedule. ChunkMS bounds each Run call —
// quiescence boundaries land every chunk, which is where deferred link
// repairs commit and the repartition policy acts. 0 means one chunk.
type Run struct {
	BioMS   int `json:"bio_ms"`
	ChunkMS int `json:"chunk_ms,omitempty"`
}

// Campaign event kinds.
const (
	EvFailLink   = "fail_link"
	EvRepairLink = "repair_link"
	EvFailChip   = "fail_chip"
	// EvChipStorm kills Count distinct chips drawn from Region (whole
	// machine if nil) by the campaign seed.
	EvChipStorm = "chip_storm"
	// EvSever fails every link crossing Region's boundary, cutting the
	// region (a board, a gateway neighbourhood) off the torus.
	EvSever = "sever"
)

// Campaign is a scripted fault schedule: concrete timed events plus
// seeded macros, expanded by Expand into plain fail/repair faults.
type Campaign struct {
	// SchemaV must equal Schema in a standalone campaign document; it
	// may be omitted (0) when the campaign is embedded in a workload.
	SchemaV int     `json:"schema,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`
	Events  []Event `json:"events"`
}

// Event is one campaign entry.
type Event struct {
	AtMS int    `json:"at_ms"`
	Kind string `json:"kind"`
	X    int    `json:"x,omitempty"`
	Y    int    `json:"y,omitempty"`
	Dir  string `json:"dir,omitempty"`
	// Count is the storm size (chip_storm only).
	Count int `json:"count,omitempty"`
	// Region bounds a storm or names the severed rectangle.
	Region *Region `json:"region,omitempty"`
}

// Region is a rectangle of chips, inclusive of its origin.
type Region struct {
	X int `json:"x"`
	Y int `json:"y"`
	W int `json:"w"`
	H int `json:"h"`
}

func (g Region) contains(c topo.Coord) bool {
	return c.X >= g.X && c.X < g.X+g.W && c.Y >= g.Y && c.Y < g.Y+g.H
}

// Fault is one expanded concrete fault: a link or chip event the
// machine layer schedules verbatim.
type Fault struct {
	AtMS int
	Kind string // fail_link, repair_link or fail_chip
	X, Y int
	Dir  string // link kinds only
}

// ---- parsing ----

// Parse decodes and validates a workload document. Unknown keys,
// trailing data and semantic violations are hard errors; decode errors
// carry line:column, semantic errors the JSON path of the field.
func Parse(data []byte) (*Workload, error) {
	var w Workload
	if err := decodeStrict(data, &w); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return &w, nil
}

// ParseCampaign decodes and validates a standalone campaign document
// against a machine of the given dimensions.
func ParseCampaign(data []byte, width, height int) (*Campaign, error) {
	var c Campaign
	if err := decodeStrict(data, &c); err != nil {
		return nil, err
	}
	if c.SchemaV != Schema {
		return nil, fmt.Errorf("workload: campaign schema %d, this build reads %d", c.SchemaV, Schema)
	}
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("workload: campaign needs a positive machine size, got %dx%d", width, height)
	}
	if err := c.validate(width, height, -1, "campaign"); err != nil {
		return nil, err
	}
	return &c, nil
}

// decodeStrict decodes one JSON document rejecting unknown fields and
// trailing content, translating decoder errors to line:column form.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return posError(data, dec, err)
	}
	if dec.More() {
		line, col := lineCol(data, dec.InputOffset())
		return fmt.Errorf("workload: %d:%d: trailing data after document", line, col)
	}
	return nil
}

// posError attaches a line:column position to a decoder error.
func posError(data []byte, dec *json.Decoder, err error) error {
	off := dec.InputOffset()
	switch e := err.(type) {
	case *json.SyntaxError:
		off = e.Offset
	case *json.UnmarshalTypeError:
		off = e.Offset
	default:
		// Unknown-field errors carry no offset; point at the first
		// occurrence of the quoted key instead of the buffer position.
		const p = `json: unknown field `
		if s := err.Error(); strings.HasPrefix(s, p) {
			name := strings.Trim(strings.TrimPrefix(s, p), `"`)
			if i := bytes.Index(data, []byte(`"`+name+`"`)); i >= 0 {
				off = int64(i)
			}
		}
	}
	line, col := lineCol(data, off)
	msg := err.Error()
	msg = strings.TrimPrefix(msg, "json: ")
	return fmt.Errorf("workload: %d:%d: %s", line, col, msg)
}

// lineCol converts a byte offset into 1-based line:column.
func lineCol(data []byte, off int64) (line, col int) {
	if off > int64(len(data)) {
		off = int64(len(data))
	}
	line, col = 1, 1
	for _, b := range data[:off] {
		if b == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}

// ---- validation ----

// Validate checks the whole document's semantics. Field errors name
// their JSON path.
func (w *Workload) Validate() error {
	if w.SchemaV != Schema {
		return fmt.Errorf("workload: schema %d, this build reads %d", w.SchemaV, Schema)
	}
	if w.Name == "" {
		return fmt.Errorf("workload: name: required")
	}
	m := &w.Machine
	if m.Width <= 0 || m.Height <= 0 {
		return fmt.Errorf("workload: machine: size %dx%d is not positive", m.Width, m.Height)
	}
	if m.Width > 256 || m.Height > 256 {
		return fmt.Errorf("workload: machine: size %dx%d exceeds 256x256", m.Width, m.Height)
	}
	if m.FillRedundancy < 0 || m.FillRedundancy > topo.NumDirs {
		return fmt.Errorf("workload: machine.fill_redundancy: %d outside 0..%d", m.FillRedundancy, topo.NumDirs)
	}
	if m.CoreFaultProb < 0 || m.CoreFaultProb > 1 {
		return fmt.Errorf("workload: machine.core_fault_prob: %g outside [0,1]", m.CoreFaultProb)
	}
	if _, err := router.ResolveLevels(topo.MustTorus(m.Width, m.Height),
		router.LevelSpec{Key: "machine.boards", Tile: m.Boards, LinkKey: "machine.board_link", Link: m.BoardLink},
		router.LevelSpec{Key: "machine.cabinets", Tile: m.Cabinets, LinkKey: "machine.cabinet_link", Link: m.CabinetLink},
	); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	if len(w.Populations) == 0 {
		return fmt.Errorf("workload: populations: at least one required")
	}
	sizes := make(map[string]int, len(w.Populations))
	for i := range w.Populations {
		p := &w.Populations[i]
		at := fmt.Sprintf("populations[%d]", i)
		if p.Name == "" {
			return fmt.Errorf("workload: %s.name: required", at)
		}
		if _, dup := sizes[p.Name]; dup {
			return fmt.Errorf("workload: %s.name: duplicate %q", at, p.Name)
		}
		if p.Size <= 0 {
			return fmt.Errorf("workload: %s.size: %d is not positive", at, p.Size)
		}
		switch p.Kind {
		case PopPoisson:
			if p.RateHz < 0 {
				return fmt.Errorf("workload: %s.rate_hz: %g is negative", at, p.RateHz)
			}
		case PopLIF:
		case PopIzhikevich:
			switch p.Preset {
			case "", IzhRegular, IzhFast, IzhChattering:
			default:
				return fmt.Errorf("workload: %s.preset: unknown %q (want %q, %q or %q)",
					at, p.Preset, IzhRegular, IzhFast, IzhChattering)
			}
		default:
			return fmt.Errorf("workload: %s.kind: unknown %q (want %q, %q or %q)",
				at, p.Kind, PopPoisson, PopLIF, PopIzhikevich)
		}
		sizes[p.Name] = p.Size
	}
	for i := range w.Projections {
		pr := &w.Projections[i]
		at := fmt.Sprintf("projections[%d]", i)
		if _, ok := sizes[pr.From]; !ok {
			return fmt.Errorf("workload: %s.from: unknown population %q", at, pr.From)
		}
		if _, ok := sizes[pr.To]; !ok {
			return fmt.Errorf("workload: %s.to: unknown population %q", at, pr.To)
		}
		switch pr.Rule {
		case RuleAll, RuleOne:
		case RuleProb:
			if pr.P < 0 || pr.P > 1 {
				return fmt.Errorf("workload: %s.p: %g outside [0,1]", at, pr.P)
			}
		case RuleFanout:
			if pr.Fanout <= 0 {
				return fmt.Errorf("workload: %s.fanout: %d is not positive", at, pr.Fanout)
			}
		default:
			return fmt.Errorf("workload: %s.rule: unknown %q (want %q, %q, %q or %q)",
				at, pr.Rule, RuleAll, RuleOne, RuleProb, RuleFanout)
		}
		if pr.DelayMS < 0 || pr.DelayMS > 15 {
			return fmt.Errorf("workload: %s.delay_ms: %d outside 0..15 (0 = default 1)", at, pr.DelayMS)
		}
		if pr.WeightNA < 0 {
			return fmt.Errorf("workload: %s.weight_na: %g is negative", at, pr.WeightNA)
		}
	}
	if w.Run.BioMS <= 0 {
		return fmt.Errorf("workload: run.bio_ms: %d is not positive", w.Run.BioMS)
	}
	if w.Run.ChunkMS < 0 {
		return fmt.Errorf("workload: run.chunk_ms: %d is negative", w.Run.ChunkMS)
	}
	for i := range w.Stimuli {
		s := &w.Stimuli[i]
		at := fmt.Sprintf("stimuli[%d]", i)
		size, ok := sizes[s.Pop]
		if !ok {
			return fmt.Errorf("workload: %s.pop: unknown population %q", at, s.Pop)
		}
		switch s.Kind {
		case StimSpike:
			if s.AtMS < 0 {
				return fmt.Errorf("workload: %s.at_ms: %d is negative", at, s.AtMS)
			}
			if s.Neuron < 0 || s.Neuron >= size {
				return fmt.Errorf("workload: %s.neuron: %d outside population %q (size %d)",
					at, s.Neuron, s.Pop, size)
			}
		case StimScan:
			if s.StartMS < 0 {
				return fmt.Errorf("workload: %s.start_ms: %d is negative", at, s.StartMS)
			}
			if s.EndMS < s.StartMS {
				return fmt.Errorf("workload: %s.end_ms: %d before start_ms %d", at, s.EndMS, s.StartMS)
			}
			if s.EveryMS <= 0 {
				return fmt.Errorf("workload: %s.every_ms: %d is not positive", at, s.EveryMS)
			}
			if s.Count <= 0 {
				return fmt.Errorf("workload: %s.count: %d is not positive", at, s.Count)
			}
			if s.Stride < 0 {
				return fmt.Errorf("workload: %s.stride: %d is negative", at, s.Stride)
			}
		default:
			return fmt.Errorf("workload: %s.kind: unknown %q (want %q or %q)", at, s.Kind, StimSpike, StimScan)
		}
	}
	if w.Campaign != nil {
		if w.Campaign.SchemaV != 0 && w.Campaign.SchemaV != Schema {
			return fmt.Errorf("workload: campaign.schema: %d, this build reads %d", w.Campaign.SchemaV, Schema)
		}
		if err := w.Campaign.validate(m.Width, m.Height, w.Run.BioMS, "campaign"); err != nil {
			return err
		}
	}
	return nil
}

// validate checks a campaign against machine dimensions. bioMS bounds
// event times when non-negative (-1 = unbounded, standalone documents).
func (c *Campaign) validate(width, height, bioMS int, path string) error {
	checkChip := func(at string, x, y int) error {
		if x < 0 || x >= width || y < 0 || y >= height {
			return fmt.Errorf("workload: %s: chip (%d,%d) outside the %dx%d machine", at, x, y, width, height)
		}
		return nil
	}
	checkRegion := func(at string, g *Region) error {
		if g.W <= 0 || g.H <= 0 {
			return fmt.Errorf("workload: %s: empty %dx%d region", at, g.W, g.H)
		}
		if g.X < 0 || g.Y < 0 || g.X+g.W > width || g.Y+g.H > height {
			return fmt.Errorf("workload: %s: region (%d,%d)+%dx%d outside the %dx%d machine",
				at, g.X, g.Y, g.W, g.H, width, height)
		}
		return nil
	}
	for i := range c.Events {
		e := &c.Events[i]
		at := fmt.Sprintf("%s.events[%d]", path, i)
		if e.AtMS < 0 {
			return fmt.Errorf("workload: %s.at_ms: %d is negative", at, e.AtMS)
		}
		if bioMS >= 0 && e.AtMS >= bioMS {
			return fmt.Errorf("workload: %s.at_ms: %d beyond the %dms run", at, e.AtMS, bioMS)
		}
		switch e.Kind {
		case EvFailLink, EvRepairLink:
			if err := checkChip(at, e.X, e.Y); err != nil {
				return err
			}
			if !validDir(e.Dir) {
				return fmt.Errorf("workload: %s.dir: unknown %q (want %s)", at, e.Dir, dirNames())
			}
		case EvFailChip:
			if err := checkChip(at, e.X, e.Y); err != nil {
				return err
			}
		case EvChipStorm:
			if e.Count <= 0 {
				return fmt.Errorf("workload: %s.count: %d is not positive", at, e.Count)
			}
			g := e.Region
			if g == nil {
				g = &Region{W: width, H: height}
			}
			if err := checkRegion(at, g); err != nil {
				return err
			}
			if e.Count > g.W*g.H {
				return fmt.Errorf("workload: %s.count: %d exceeds the %d chips in the region", at, e.Count, g.W*g.H)
			}
		case EvSever:
			if e.Region == nil {
				return fmt.Errorf("workload: %s.region: required for %q", at, EvSever)
			}
			if err := checkRegion(at, e.Region); err != nil {
				return err
			}
			if e.Region.W >= width && e.Region.H >= height {
				return fmt.Errorf("workload: %s.region: covers the whole machine, nothing to sever", at)
			}
		default:
			return fmt.Errorf("workload: %s.kind: unknown %q (want %q, %q, %q, %q or %q)",
				at, e.Kind, EvFailLink, EvRepairLink, EvFailChip, EvChipStorm, EvSever)
		}
	}
	return nil
}

func validDir(dir string) bool {
	for d := topo.Dir(0); int(d) < topo.NumDirs; d++ {
		if d.String() == dir {
			return true
		}
	}
	return false
}

func dirNames() string {
	names := make([]string, topo.NumDirs)
	for d := topo.Dir(0); int(d) < topo.NumDirs; d++ {
		names[d] = fmt.Sprintf("%q", d.String())
	}
	return strings.Join(names, ", ")
}

// ---- macro expansion ----

// Expand turns the campaign into concrete faults on a width x height
// torus, replayably: macros draw from one stream seeded by the
// campaign's own seed, consumed in event order, so the same document
// expands to the same faults everywhere. The campaign must already have
// validated against the same dimensions.
func (c *Campaign) Expand(width, height int) []Fault {
	rng := rand.New(rand.NewSource(int64(c.Seed) + 1))
	torus := topo.MustTorus(width, height)
	var out []Fault
	for i := range c.Events {
		e := &c.Events[i]
		switch e.Kind {
		case EvFailLink, EvRepairLink, EvFailChip:
			out = append(out, Fault{AtMS: e.AtMS, Kind: e.Kind, X: e.X, Y: e.Y, Dir: e.Dir})
		case EvChipStorm:
			g := e.Region
			if g == nil {
				g = &Region{W: width, H: height}
			}
			// Partial Fisher-Yates over the region's chips in row-major
			// order: the first Count draws are the storm, distinct by
			// construction.
			chips := make([]topo.Coord, 0, g.W*g.H)
			for y := g.Y; y < g.Y+g.H; y++ {
				for x := g.X; x < g.X+g.W; x++ {
					chips = append(chips, topo.Coord{X: x, Y: y})
				}
			}
			for k := 0; k < e.Count; k++ {
				j := k + rng.Intn(len(chips)-k)
				chips[k], chips[j] = chips[j], chips[k]
				out = append(out, Fault{AtMS: e.AtMS, Kind: EvFailChip, X: chips[k].X, Y: chips[k].Y})
			}
		case EvSever:
			// Every link from a chip inside the region to one outside
			// fails; the machine layer fails both directions of each.
			for y := e.Region.Y; y < e.Region.Y+e.Region.H; y++ {
				for x := e.Region.X; x < e.Region.X+e.Region.W; x++ {
					c0 := topo.Coord{X: x, Y: y}
					for d := topo.Dir(0); int(d) < topo.NumDirs; d++ {
						if !e.Region.contains(torus.Neighbor(c0, d)) {
							out = append(out, Fault{AtMS: e.AtMS, Kind: EvFailLink, X: x, Y: y, Dir: d.String()})
						}
					}
				}
			}
		}
	}
	return out
}
