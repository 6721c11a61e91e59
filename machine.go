package spinngo

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"spinngo/internal/boot"
	"spinngo/internal/chip"
	"spinngo/internal/host"
	"spinngo/internal/kernel"
	"spinngo/internal/mapping"
	"spinngo/internal/neural"
	"spinngo/internal/packet"
	"spinngo/internal/router"
	"spinngo/internal/sim"
	"spinngo/internal/topo"
)

// Placement selects the fragment placement policy.
type Placement int

const (
	// Serpentine keeps consecutive fragments on nearby chips (default).
	Serpentine Placement = iota
	// Random scatters fragments uniformly (the virtualised-topology
	// ablation: still correct, costs more routing).
	Random
)

// MachineConfig describes the simulated machine.
type MachineConfig struct {
	// Width and Height are the toroidal mesh dimensions in chips.
	Width, Height int
	// CoresPerChip is the full core complement (default 20).
	CoresPerChip int
	// MaxNeuronsPerCore bounds fragment sizes (default 256).
	MaxNeuronsPerCore int
	// CoreMIPS is per-core instruction throughput (default 200).
	CoreMIPS float64
	// Seed drives all randomness (default 1).
	Seed uint64
	// Workers is the number of torus shards simulated in parallel
	// (conservative PDES over the partitioned mesh). 0 means automatic:
	// the shard count is sized from the torus and runtime.GOMAXPROCS.
	// Explicit values are clamped down to the granularity of the chosen
	// geometry (bands: one per row or column; blocks: one per chip);
	// negative values and values above Width*Height are rejected by
	// Validate. Workers=1 reproduces the single-engine event order
	// exactly, and the determinism contract is that the same Seed and
	// config produce an identical run report for every worker count and
	// partition geometry.
	Workers int
	// Partition selects the shard geometry: PartitionBands cuts whole
	// rows or columns, PartitionBlocks tiles the torus with a 2D block
	// grid minimising cut links, PartitionBoards (requires Boards)
	// aligns shard boundaries to board edges so the cut contains only
	// board-to-board links, and PartitionAuto (or "") compares the
	// candidates and keeps whichever reaches the requested shard count
	// with the widest lookahead, then the smallest cut. Results are
	// byte-identical for every geometry; the choice affects only
	// synchronisation cost.
	Partition string
	// Boards is the physical board tiling in chips per board as "WxH"
	// (e.g. "8x6" packs the paper's 48-chip boards). "" means a uniform
	// fabric with no board hierarchy. When set, the boards must tile
	// the torus exactly; links crossing a board edge (including torus
	// wrap links, which are cabled between edge boards) use the
	// board-to-board PHY parameters, and the PartitionBoards strategy
	// becomes available. Configuring Boards changes the simulated
	// hardware — link timings and energy — so reports differ from the
	// uniform fabric, but remain byte-identical across all Workers and
	// Partition choices on the same Boards config.
	Boards string
	// BoardLinkParams selects the board-to-board PHY preset: "" or
	// BoardLinkSlow for the self-timed board-to-board defaults (longer
	// wire flight, costlier transitions — the realistic model), or
	// BoardLinkUniform to reuse the on-board parameters (hierarchy
	// without PHY heterogeneity, the ablation). Requires Boards.
	BoardLinkParams string
	// Cabinets is the cabinet tiling of the board grid in boards per
	// cabinet as "WxH" (e.g. "2x2" racks four boards to a cabinet). ""
	// means no third packaging level. Requires Boards; the cabinets must
	// tile the board grid exactly. When set, links crossing a cabinet
	// edge (including torus wrap links, cabled between edge cabinets)
	// use the cabinet-to-cabinet PHY parameters — the slowest, costliest
	// wires in the machine — and the PartitionCabinets strategy becomes
	// available, whose cabinet-aligned cuts earn the widest lookahead of
	// all.
	Cabinets string
	// CabinetLinkParams selects the cabinet-to-cabinet PHY preset: "" or
	// CabinetLinkSlow for the long-cable defaults (the realistic model),
	// or CabinetLinkUniform to reuse the board-to-board parameters (a
	// third level without extra PHY heterogeneity, the ablation).
	// Requires Cabinets.
	CabinetLinkParams string
	// HostOrigin is the Ethernet-attached gateway chip the host system
	// talks through, as "x,y" (e.g. "4,0"). "" means chip (0,0). The
	// boot sequence always roots its coordinate flood at (0,0) — the
	// paper's symmetry-breaking chip — but real machines carry one
	// Ethernet port per board, so the host may attach anywhere; only
	// command round-trip times change with the attach point.
	HostOrigin string
	// DisableEmergencyRouting turns off the Fig-8 mechanism (ablation).
	DisableEmergencyRouting bool
	// Placement policy (default Serpentine).
	Placement Placement
	// CoreFaultProb injects per-core self-test failures at boot.
	CoreFaultProb float64
	// MaxAppCoresPerChip caps how many application cores the mapper
	// uses per chip (0 = all available). Lower values spread a small
	// model over more chips, exercising the interconnect.
	MaxAppCoresPerChip int
	// FillRedundancy is how many copies of each flood-fill chunk a chip
	// forwards during host bulk loads (boot image, application data,
	// FillMem) before going quiet. 0 or 1 forwards only the first copy
	// — the historical behaviour; 2..6 keep bulk loads alive through
	// fault campaigns that kill chips or links on the primary flood
	// path, at proportionally more flood traffic. Changing it changes
	// the simulated traffic, so reports differ between redundancy
	// levels but remain byte-identical across Workers and Partition.
	FillRedundancy int
}

// Partition geometry names accepted by MachineConfig.Partition.
const (
	PartitionAuto     = "auto"
	PartitionBands    = "bands"
	PartitionBlocks   = "blocks"
	PartitionBoards   = "boards"
	PartitionCabinets = "cabinets"
)

// Board-to-board link presets accepted by MachineConfig.BoardLinkParams.
const (
	BoardLinkSlow    = router.LinkSlow
	BoardLinkUniform = router.LinkUniform
)

// Cabinet link presets accepted by MachineConfig.CabinetLinkParams.
const (
	CabinetLinkSlow    = router.LinkSlow
	CabinetLinkUniform = router.LinkUniform
)

// tiledPartitions names the tiled partition geometry of each packaging
// level, bottom-up: blocks of whole chips, of whole boards, of whole
// cabinets.
var tiledPartitions = []string{PartitionBlocks, PartitionBoards, PartitionCabinets}

func (c *MachineConfig) fillDefaults() {
	if c.CoresPerChip == 0 {
		c.CoresPerChip = chip.CoresPerChip
	}
	if c.MaxNeuronsPerCore == 0 {
		c.MaxNeuronsPerCore = 256
	}
	if c.CoreMIPS == 0 {
		c.CoreMIPS = 200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Validate rejects contradictory configurations with a descriptive
// error. NewMachine calls it; it is exported so front ends can check a
// configuration before committing to building a machine.
func (c MachineConfig) Validate() error {
	_, err := c.resolve()
	return err
}

// resolve validates the configuration and resolves its packaging levels
// into the fabric's level list.
func (c MachineConfig) resolve() ([]router.Level, error) {
	if c.Width <= 0 || c.Height <= 0 {
		return nil, fmt.Errorf("spinngo: invalid machine %dx%d", c.Width, c.Height)
	}
	if c.CoresPerChip < 0 || c.CoresPerChip > chip.CoresPerChip {
		return nil, fmt.Errorf("spinngo: CoresPerChip must be 0..%d (0 = default), got %d", chip.CoresPerChip, c.CoresPerChip)
	}
	if !(c.CoreMIPS >= 0) {
		return nil, fmt.Errorf("spinngo: CoreMIPS must be non-negative (0 = default), got %v", c.CoreMIPS)
	}
	if c.Workers < 0 {
		return nil, fmt.Errorf("spinngo: Workers must be non-negative (0 = automatic), got %d", c.Workers)
	}
	if max := c.Width * c.Height; c.Workers > max {
		return nil, fmt.Errorf("spinngo: Workers %d exceeds the %dx%d machine's %d chips",
			c.Workers, c.Width, c.Height, max)
	}
	switch c.Partition {
	case "", PartitionAuto, PartitionBands, PartitionBlocks, PartitionBoards, PartitionCabinets:
	default:
		return nil, fmt.Errorf("spinngo: unknown Partition %q (want %q, %q, %q, %q or %q)",
			c.Partition, PartitionAuto, PartitionBands, PartitionBlocks, PartitionBoards,
			PartitionCabinets)
	}
	specs := c.levelSpecs()
	levels, err := router.ResolveLevels(topo.MustTorus(c.Width, c.Height), specs...)
	if err != nil {
		return nil, fmt.Errorf("spinngo: %w", err)
	}
	if l := slices.Index(tiledPartitions, c.Partition); l >= len(levels) {
		return nil, fmt.Errorf("spinngo: Partition %q requires %s", c.Partition, specs[l-1].Key)
	}
	if c.FillRedundancy < 0 || c.FillRedundancy > topo.NumDirs {
		return nil, fmt.Errorf("spinngo: FillRedundancy must be 0..%d (0 = default 1), got %d",
			topo.NumDirs, c.FillRedundancy)
	}
	if _, err := c.hostOrigin(); err != nil {
		return nil, err
	}
	return levels, nil
}

// levelSpecs spells the configured packaging levels above the chip,
// bottom-up, under the field names errors quote.
func (c MachineConfig) levelSpecs() []router.LevelSpec {
	return []router.LevelSpec{
		{Key: "Boards", Tile: c.Boards, LinkKey: "BoardLinkParams", Link: c.BoardLinkParams},
		{Key: "Cabinets", Tile: c.Cabinets, LinkKey: "CabinetLinkParams", Link: c.CabinetLinkParams},
	}
}

// hostOrigin parses and bounds-checks the configured host attach chip.
func (c MachineConfig) hostOrigin() (topo.Coord, error) {
	if c.HostOrigin == "" {
		return topo.Coord{}, nil
	}
	parts := strings.Split(c.HostOrigin, ",")
	if len(parts) != 2 {
		return topo.Coord{}, fmt.Errorf("spinngo: bad HostOrigin %q (want \"x,y\")", c.HostOrigin)
	}
	x, errX := strconv.Atoi(strings.TrimSpace(parts[0]))
	y, errY := strconv.Atoi(strings.TrimSpace(parts[1]))
	if errX != nil || errY != nil {
		return topo.Coord{}, fmt.Errorf("spinngo: bad HostOrigin %q (want \"x,y\")", c.HostOrigin)
	}
	if x < 0 || x >= c.Width || y < 0 || y >= c.Height {
		return topo.Coord{}, fmt.Errorf("spinngo: HostOrigin (%d,%d) outside the %dx%d machine",
			x, y, c.Width, c.Height)
	}
	return topo.Coord{X: x, Y: y}, nil
}

// partitionFor resolves a concrete geometry name into a partition of
// the fabric's torus at (up to) workers shards. A tiled geometry needs
// its packaging level configured in params.
func partitionFor(geometry string, params router.Params, workers int) (topo.Partition, error) {
	if geometry == PartitionBands {
		return topo.NewBands(params.Torus, workers), nil
	}
	level := slices.Index(tiledPartitions, geometry)
	if level < 0 {
		return topo.Partition{}, fmt.Errorf("spinngo: unknown partition geometry %q (want %q, %q, %q or %q)",
			geometry, PartitionBands, PartitionBlocks, PartitionBoards, PartitionCabinets)
	}
	if level >= len(params.Levels) {
		return topo.Partition{}, fmt.Errorf("spinngo: partition %q needs packaging level %d, the machine has %d",
			geometry, level, len(params.Levels))
	}
	return topo.NewTiled(params.Torus, level, params.Levels[level].Tile, workers)
}

// availablePartitions reports every geometry the fabric offers at
// workers shards: bands, then one tiled partition per packaging level
// bottom-up — the order every comparison relies on (earlier wins ties).
func availablePartitions(params router.Params, workers int) []topo.Partition {
	parts := []topo.Partition{topo.NewBands(params.Torus, workers)}
	for level, l := range params.Levels {
		p, err := topo.NewTiled(params.Torus, level, l.Tile, workers)
		if err != nil {
			panic(err) // the fabric validated every level's tile
		}
		parts = append(parts, p)
	}
	return parts
}

// geometryName names a partition's geometry as configuration does.
func geometryName(p topo.Partition) string {
	if p.Level() == topo.Bands {
		return PartitionBands
	}
	return tiledPartitions[p.Level()]
}

// autoWorkers is the Workers-0 sizing: one shard per schedulable CPU,
// at most one per chip.
func autoWorkers(torus topo.Torus) int {
	return min(runtime.GOMAXPROCS(0), torus.Size())
}

// choosePartition resolves the configured geometry and worker count
// into a concrete partition. params supplies the per-link PHY model the
// automatic comparison prices lookahead with.
func choosePartition(cfg MachineConfig, params router.Params) topo.Partition {
	workers := cfg.Workers
	if workers == 0 {
		workers = autoWorkers(params.Torus)
	}
	if cfg.Partition != "" && cfg.Partition != PartitionAuto {
		part, err := partitionFor(cfg.Partition, params, workers)
		if err != nil {
			panic(err) // Validate accepted the geometry and its tiling
		}
		return part
	}
	// Automatic geometry: whichever strategy reaches the requested
	// parallelism; at equal shard counts the wider lookahead wins (on a
	// heterogeneous fabric a board-aligned cut of slow links means
	// fewer window barriers, worth more than a few cut links), then the
	// smaller cut, and remaining ties keep the earlier candidate
	// (bands: at most two neighbouring shards instead of eight).
	candidates := availablePartitions(params, workers)
	best := candidates[0]
	for _, cand := range candidates[1:] {
		switch {
		case cand.Shards() != best.Shards():
			if cand.Shards() > best.Shards() {
				best = cand
			}
		case params.LookaheadFor(cand) != params.LookaheadFor(best):
			if params.LookaheadFor(cand) > params.LookaheadFor(best) {
				best = cand
			}
		case cand.CutLinks() < best.CutLinks():
			best = cand
		}
	}
	return best
}

// unit is one application core's runtime: kernel + neurons + synapses.
type unit struct {
	frag     *mapping.Fragment
	fragIdx  int // index into the routing plan's fragment list
	gen      int // build generation: index into fragUnits[fragIdx]
	slot     int // application-core slot actually occupied
	tickBase uint64
	rng      *sim.RNG // private stream, survives migration
	core     *kernel.Core
	pop      *neural.Population
	source   *neural.PoissonSource
	dma      *chip.DMAController
	stdp     *neural.STDPState
	failed   bool
}

// chipTallies is one chip's slice of the machine-wide run accounting.
// A chip's events all execute on the shard that owns it, so no two
// goroutines ever touch the same entry inside a window, and the
// integer merges at report time (in chip-index order) are independent
// of accumulation order — the heart of the determinism contract.
// Keying by chip rather than by shard makes the tallies independent of
// the partition, so a snapshot restored onto another layout finds them
// where it left them.
type chipTallies struct {
	latencies         sim.TimeStats
	writeBacks        uint64
	migrations        uint64
	migrationFailures uint64
	_                 [8]uint64 // keep neighbouring chips off each other's cache lines
}

// Chunk sizing for the lazily-materialised per-chip tallies: 64 chips to
// a chunk, matching the fabric's node arena, so an idle region of a
// large torus costs one nil pointer per 64 chips instead of dense state.
const (
	chipChunkBits = 6
	chipChunkSize = 1 << chipChunkBits
	chipChunkMask = chipChunkSize - 1
)

// chunked is a fixed-index array whose storage materialises chunk by
// chunk on first touch. The entry for a chip is only ever written by
// the shard that owns the chip, but chips of different shards share
// chunks, so chunk creation is atomic-pointer published under a mutex —
// the same double-checked pattern the fabric uses for its nodes.
type chunked[T any] struct {
	mu     sync.Mutex
	chunks []atomic.Pointer[[chipChunkSize]T]
}

func newChunked[T any](n int) chunked[T] {
	return chunked[T]{chunks: make([]atomic.Pointer[[chipChunkSize]T], (n+chipChunkMask)>>chipChunkBits)}
}

// at returns the entry at index i, materialising its chunk on first
// touch.
func (s *chunked[T]) at(i int) *T {
	ci := i >> chipChunkBits
	c := s.chunks[ci].Load()
	if c == nil {
		s.mu.Lock()
		if c = s.chunks[ci].Load(); c == nil {
			c = new([chipChunkSize]T)
			s.chunks[ci].Store(c)
		}
		s.mu.Unlock()
	}
	return &c[i&chipChunkMask]
}

// each visits every materialised entry in index order — untouched
// chunks hold only zero values, which every aggregation here treats as
// absent, so skipping them is exact.
func (s *chunked[T]) each(fn func(i int, v *T)) {
	for ci := range s.chunks {
		c := s.chunks[ci].Load()
		if c == nil {
			continue
		}
		base := ci << chipChunkBits
		for j := range c {
			fn(base+j, &c[j])
		}
	}
}

// Machine is a simulated SpiNNaker machine. The torus is partitioned
// into contiguous shards, each advanced by its own deterministic event
// engine; shards synchronise only at lookahead-window barriers bounded
// by the inter-chip router latency, mirroring the paper's
// bounded-asynchrony GALS argument (sections 3 and 5).
type Machine struct {
	cfg  MachineConfig
	pe   *sim.ParallelEngine
	part topo.Partition
	fab  *router.Fabric
	boot *boot.Controller

	// host is the machine's Ethernet endpoint at hostOrigin, created at
	// Boot (the image load runs through it) and shared by AttachHost.
	host       *host.Host
	hostOrigin topo.Coord

	// epoch is the simulated instant model time starts: the end of the
	// application data load. Spike rasters, tick counters and InjectSpike
	// times are all epoch-relative, so the loading phases consuming
	// simulated fabric time do not shift biological timestamps.
	epoch sim.Time

	booted bool
	loaded bool

	model *Model
	rplan *mapping.RoutingPlan
	dplan *mapping.DataPlan
	// units is the live unit on every application-core slot, indexed by
	// chip torus index x router.MaxCores + slot (nil before Load): the
	// one lookup a delivered packet pays to find its core.
	units []*unit
	// fragUnits holds every unit ever built for each fragment, in
	// creation order (the live one last). Iterating fragments first
	// gives a deterministic order regardless of migration timing.
	fragUnits [][]*unit

	tallies chunked[chipTallies]
	bioMS   uint64

	// faultDirty flags that a fault (link failure, chip death, deferred
	// repair) landed since the last quiescence commit. Written from
	// shard-owned campaign events, consumed by commitFaults between
	// windows — hence atomic.
	faultDirty atomic.Bool
	// deadDone tracks chips whose death has been committed at a
	// quiescence boundary (boot aliveness flipped, cores stopped), so
	// commitFaults touches each dead chip exactly once.
	deadDone map[topo.Coord]bool
}

// MigrationDetectMS is how long the monitor's watchdog takes to notice a
// silent application core before starting a migration (abstract:
// "run-time support for functional migration and real-time fault
// mitigation").
const MigrationDetectMS = 5

// NewMachine builds a machine; Boot it before loading a model.
func NewMachine(cfg MachineConfig) (*Machine, error) {
	cfg.fillDefaults()
	levels, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	torus := topo.MustTorus(cfg.Width, cfg.Height)
	params := router.DefaultParams(cfg.Width, cfg.Height)
	params.EmergencyEnabled = !cfg.DisableEmergencyRouting
	params.Levels = levels
	part := choosePartition(cfg, params)
	pe := sim.NewParallel(cfg.Seed, part.Shards(), part.Shards())
	// The lookahead folds each cut link's frame serialisation time into
	// the router pipeline latency, minimised over the partition's actual
	// boundary cut: a cut aligned to a level of slow cabled links earns
	// wider windows and fewer barriers, with identical results.
	pe.SetLookahead(params.LookaheadFor(part))
	fab, err := router.NewShardedFabric(pe, part, params)
	if err != nil {
		pe.Close()
		return nil, err
	}
	origin, _ := cfg.hostOrigin() // Validate accepted it
	return &Machine{
		cfg:        cfg,
		pe:         pe,
		part:       part,
		fab:        fab,
		hostOrigin: origin,
		tallies:    newChunked[chipTallies](torus.Size()),
	}, nil
}

// tallyAt returns chip c's slice of the run accounting. The index is
// the chip's torus index, the same under every partition.
func (m *Machine) tallyAt(c topo.Coord) *chipTallies {
	return m.tallies.at(m.part.Torus().Index(c))
}

// InstantiatedChips reports how many chips have materialised router and
// accounting state; TorusChips is the torus address space they are
// drawn from. On an idle large machine the former stays proportional to
// the touched region while the latter is WxH — the sparse-state win.
func (m *Machine) InstantiatedChips() int { return m.fab.Instantiated() }

// TorusChips reports the total chip address space (Width x Height).
func (m *Machine) TorusChips() int { return m.fab.Size() }

// Close releases the machine's persistent worker pool. Optional — an
// abandoned machine's pool is reclaimed by a finalizer — but callers
// that churn through many machines (benchmarks, sweeps) should Close
// each one. The machine must not be running.
func (m *Machine) Close() { m.pe.Close() }

// Workers reports the effective shard count (cfg.Workers clamped to the
// granularity of the chosen partition geometry).
func (m *Machine) Workers() int { return m.part.Shards() }

// SimStats reports execution-engine statistics: the chosen partition
// geometry and its communication cost, the lookahead bound, and the
// window-barrier counts accumulated so far. These describe the
// execution strategy, not the simulation — they vary with Workers and
// Partition while RunReport stays byte-identical, which is why they
// live outside it.
type SimStats struct {
	// Geometry is the effective partition geometry ("bands", "blocks",
	// "boards", "cabinets").
	Geometry string
	// Levels is the chip footprint of one unit of each packaging level,
	// bottom-up: "1x1" for the chip, then e.g. "4x4" for boards of 4x4
	// chips and "8x8" for cabinets of 2x2 such boards.
	Levels []string
	// Shards and Workers are the effective shard count and parallelism bound.
	Shards  int
	Workers int
	// CutLinks counts directed inter-chip links crossing shard
	// boundaries — the traffic that must pass barrier mailboxes.
	// CutLinksByLevel splits the cut by the highest packaging level each
	// link leaves, one entry per level: a cut is aligned to level k
	// exactly when every entry below k is zero.
	CutLinks        int
	CutLinksByLevel []int
	// Lookahead is the achieved cross-shard latency bound: router
	// pipeline plus minimum frame serialisation over the *actual*
	// boundary cut. UniformLookahead is the bound a single shared
	// link-parameter block would allow (the machine-wide minimum hop
	// floor); on a board-aligned cut of slower board-to-board links,
	// Lookahead exceeds it — wider windows, fewer barriers.
	Lookahead        sim.Time
	UniformLookahead sim.Time
	// Windows counts lookahead windows executed; ParallelWindows those
	// dispatched to the worker pool; EventsPerWindow the mean events per
	// window. A single-shard engine runs each RunUntil span as one
	// barrier-free window, so its counts stay comparable (near-zero, as
	// one shard synchronises nothing) instead of reading zero
	// events per window.
	Windows         uint64
	ParallelWindows uint64
	EventsPerWindow float64
	// Handoffs counts coordinator hand-off + barrier cycles: one per
	// ordinary window plus one per batched run of provably single-shard
	// windows, so Handoffs <= Windows and the gap is synchronisation
	// the window batching elided. BatchRuns counts those batched runs
	// and BatchedWindows the windows they covered.
	Handoffs       uint64
	BatchRuns      uint64
	BatchedWindows uint64
	// Events counts simulation events executed across all shards.
	Events uint64
	// Repartitions is always 0: a machine keeps the partition it was
	// built or restored with. The field stays for the benchmark's
	// sim.repartitions column.
	Repartitions uint64
	// HostTransitions counts the times a driver stopped the machine to
	// look at it: one per Drain to quiescence (boot and load phases) and
	// one per host wait. RunUntil spans do not count. Batching amortises
	// these — N serial host commands pay N transitions where one batch
	// pays one.
	HostTransitions uint64
}

// SimStats snapshots the engine's execution statistics.
func (m *Machine) SimStats() SimStats {
	params := m.fab.Params()
	levels := make([]string, len(params.Levels))
	for i, l := range params.Levels {
		levels[i] = l.Tile.String()
	}
	return SimStats{
		Geometry:         geometryName(m.part),
		Levels:           levels,
		Shards:           m.pe.Shards(),
		Workers:          m.pe.Workers(),
		CutLinks:         m.part.CutLinks(),
		CutLinksByLevel:  m.part.CutComposition(len(params.Levels), params.ClassOf),
		Lookahead:        m.pe.Lookahead(),
		UniformLookahead: params.MinHopLatency(),
		Windows:          m.pe.Windows(),
		ParallelWindows:  m.pe.ParallelWindows(),
		EventsPerWindow:  m.pe.EventsPerWindow(),
		Handoffs:         m.pe.Handoffs(),
		BatchRuns:        m.pe.BatchRuns(),
		BatchedWindows:   m.pe.BatchedWindows(),
		Events:           m.pe.Processed(),
		HostTransitions:  m.pe.Transitions(),
	}
}

// domAt returns the scheduling domain of a chip.
func (m *Machine) domAt(c topo.Coord) *sim.Domain { return m.fab.DomainAt(c) }

// BootReport summarises the boot sequence (section 5.2).
type BootReport struct {
	Chips         int
	BootedLocally int
	Rescued       int
	DeadForever   int
	CoordCorrect  bool
	// LoadTimeMS is the simulated time from launching the system-image
	// flood fill to its last block's acknowledgement.
	LoadTimeMS float64
	AppCores   int
}

// hostLoadChunkBytes is the payload each fabric packet carries during
// the machine's own bulk transfers (boot image, application data) —
// SDP-style frame aggregation, standing in for the protocol's payload
// framing the way the host package's out-of-band payload table does.
// User-facing HostLink commands keep the attachment default (the
// paper's one-packet-per-32-bit-word model).
const hostLoadChunkBytes = 32

// hostLoadWindow is the in-flight command window the machine's own bulk
// loads (boot image, application data) pipeline with.
const hostLoadWindow = 8

// runBatch launches a host command batch and drives the machine under
// parallel lookahead windows until every command resolves — the engine
// halts at the exact resolution event (RunUntilAnyOf), so the machine
// state afterwards is identical for every worker count and partition
// geometry. Per-command failures stay in the batch's responses; the
// returned error is reserved for batch-level faults.
func (m *Machine) runBatch(b *host.Batch) error {
	// Commit faults from any preceding Run before launching: a batch
	// starts at sequential quiescence, and command routing must see the
	// post-campaign machine (dead gateways fail fast, lookahead is
	// already re-priced over the live cut).
	m.commitFaults()
	b.Launch()
	watch := m.fab.DomainAt(m.hostOrigin)
	for !b.Done() {
		// Every launched command resolves within its per-command timeout
		// of the Ethernet backlog clearing (completion or expiry), and
		// resolutions launch the rest of the queue, so each wait below is
		// guaranteed progress; the horizon is a backstop against
		// host-protocol bugs, not a pacing device.
		before := b.Resolved()
		if m.pe.RunUntilAnyOf(b.Horizon(), watch, b.Done) {
			break
		}
		if b.Resolved() == before {
			return fmt.Errorf("spinngo: host batch stalled with %d of %d commands resolved",
				b.Resolved(), b.Len())
		}
	}
	// Sequential quiescence: release resolved payload buffers now rather
	// than waiting for a future registration, so the last batch of a
	// bulk load does not pin the whole image.
	m.host.StripResolved()
	return nil
}

// loadTime is how long a resolved load batch took from start: up to its
// last command's resolution. The Drain after a load also runs every
// command's no-op deadline event, so the clock after it would measure
// the timeout, not the load.
func loadTime(b *host.Batch, start sim.Time) sim.Time {
	end := start
	for _, r := range b.Responses() {
		end = max(end, r.At)
	}
	return end - start
}

// Boot runs the section-5.2 sequence: self-test, monitor election,
// neighbour rescue, coordinate flood, p2p configuration and flood-fill
// load of the system image. It runs in two halves: bootControl, whose
// outcome (which chips and cores are alive) only a replay rebuilds,
// then loadSystemImage, whose outcome a snapshot image records, so
// Restore runs the first half alone. Both drain under the engine's
// normal parallel lookahead windows; only the phase setup between
// drains runs on the caller.
func (m *Machine) Boot() (*BootReport, error) {
	rep, err := m.bootControl()
	if err != nil {
		return nil, err
	}
	load, err := m.loadSystemImage()
	if err != nil {
		return nil, err
	}
	rep.LoadTimeMS = load.Millis()
	return rep, nil
}

// bootControl runs the boot's control phases — self-test, monitor
// election, probe and rescue, coordinate flood — then attaches the
// host endpoint and assigns every alive chip's idle cores to
// applications. It leaves the machine booted but its SDRAM empty.
func (m *Machine) bootControl() (*BootReport, error) {
	if m.booted {
		return nil, fmt.Errorf("spinngo: already booted")
	}
	cfg := boot.DefaultConfig()
	cfg.Cores = m.cfg.CoresPerChip
	cfg.CoreFaultProb = m.cfg.CoreFaultProb
	cfg.Seed = m.cfg.Seed
	m.boot = boot.NewController(m.pe, m.fab, cfg)
	res := m.boot.Run()
	// The machine's Ethernet endpoint exists from here on: p2p routing
	// is configured, so any chip is reachable through the gateway.
	hcfg := host.DefaultConfig()
	hcfg.Origin = m.hostOrigin
	hcfg.Redundancy = m.cfg.FillRedundancy
	m.host = host.New(m.fab.DomainAt(m.hostOrigin), m.fab, m.boot, hcfg)
	appCores := 0
	for _, n := range m.fab.Nodes() {
		if m.boot.Alive(n.Coord) {
			appCores += m.boot.Chip(n.Coord).AssignApplications()
		}
	}
	m.booted = true
	return &BootReport{
		Chips:         m.cfg.Width * m.cfg.Height,
		BootedLocally: res.BootedLocally,
		Rescued:       res.Rescued,
		DeadForever:   res.DeadForever,
		CoordCorrect:  res.CoordCorrect,
		AppCores:      appCores,
	}, nil
}

// loadSystemImage flood-fills the system image — one Ethernet transfer
// per block, every alive chip stores it (experiment E9: load time nearly
// independent of machine size) — and reports how long the load took.
func (m *Machine) loadSystemImage() (sim.Time, error) {
	cfg := boot.DefaultConfig()
	b := m.host.NewBatch(hostLoadWindow)
	b.SetChunk(hostLoadChunkBytes)
	for blk := 0; blk < cfg.ImageBlocks; blk++ {
		if _, err := b.FillMem(boot.BlockAddr(uint32(blk)), boot.BlockContent(uint32(blk), cfg.BlockBytes)); err != nil {
			return 0, err
		}
	}
	loadStart := m.pe.Now()
	if err := m.runBatch(b); err != nil {
		return 0, err
	}
	for blk, r := range b.Responses() {
		if r.Err != nil {
			return 0, fmt.Errorf("spinngo: boot image load: %w", r.Err)
		}
		// Every block's convergecast count must cover the alive machine.
		if r.Chips != m.host.FillAlive() {
			return 0, fmt.Errorf("spinngo: boot image block %d reached %d of %d alive chips",
				blk, r.Chips, m.host.FillAlive())
		}
	}
	// The batch halts at the last acknowledgement, but redundant flood
	// forwards are still draining; run them out (no tickers exist yet,
	// so quiescence is finite) rather than let boot debris contend with
	// the application load's link queues. Nothing of the fills is in
	// flight after it, so their per-chip state goes.
	m.pe.Drain()
	m.host.DropResolvedFills()
	return loadTime(b, loadStart), nil
}

// appCoreSlots returns the application cores of a chip in slot order.
func (m *Machine) appCoreSlots(at topo.Coord) []*chip.Core {
	return m.boot.Chip(at).ApplicationCores()
}

// minAppCores finds the smallest application-core count across alive
// chips, which bounds what the mapper may use uniformly.
func (m *Machine) minAppCores() int {
	min := m.cfg.CoresPerChip
	for _, n := range m.fab.Nodes() {
		if !m.boot.Alive(n.Coord) {
			return 0 // dead chip: conservative (mapper would avoid it)
		}
		if c := len(m.appCoreSlots(n.Coord)); c < min {
			min = c
		}
	}
	return min
}

// LoadReport summarises mapping and loading.
type LoadReport struct {
	Fragments    int
	Synapses     int
	SynapseBytes int
	TableEntries int
	MaxChipTable int
	TreeLinks    int
	// LoadTimeMS is the simulated time the host spent shipping the
	// application data (synaptic images) into the machine as a
	// pipelined batch of per-core SDRAM writes, up to the last write's
	// acknowledgement.
	LoadTimeMS float64
}

// synapseImageBase is where a core slot's synaptic image lands in its
// chip's SDRAM (1 MB per application-core slot).
const synapseImageBase = 0x6000_0000

// Load compiles the model (partition, place, route, generate data),
// installs routing tables, ships the application data into the machine
// and instantiates the event-driven runtime on every application core
// used. Set-up is one sequence of steps — mapSpec, compileNet, install,
// loadAppData, start — that Load, PrepareWorkloadOn and Restore compose
// inline: PrepareWorkloadOn runs compileNet beside the system-image
// flood, and Restore skips the data load, whose outcome the image
// records.
func (m *Machine) Load(model *Model) (*LoadReport, error) {
	spec, err := m.mapSpec()
	if err != nil {
		return nil, err
	}
	rplan, dplan, err := m.compileNet(model.net, spec)
	if err != nil {
		return nil, err
	}
	return m.loadCompiled(model, rplan, dplan)
}

// loadCompiled installs a compiled model, ships its application data
// and starts model time.
func (m *Machine) loadCompiled(model *Model, rplan *mapping.RoutingPlan, dplan *mapping.DataPlan) (*LoadReport, error) {
	if err := m.install(model, rplan, dplan); err != nil {
		return nil, err
	}
	loadDur, err := m.loadAppData()
	if err != nil {
		return nil, err
	}
	// Model time starts here: spike ticks, rasters and InjectSpike times
	// are measured from the end of loading.
	if err := m.start(m.pe.Now()); err != nil {
		return nil, err
	}
	return &LoadReport{
		Fragments:    len(m.rplan.Frags),
		Synapses:     m.dplan.TotalSynapses,
		SynapseBytes: m.dplan.TotalBytes,
		TableEntries: m.rplan.Stats.EntriesFinal,
		MaxChipTable: m.rplan.Stats.MaxChipTable,
		TreeLinks:    m.rplan.Stats.TreeLinks,
		LoadTimeMS:   loadDur.Millis(),
	}, nil
}

// mapSpec works out what the mapper may use of the booted machine: the
// smallest application-core count across alive chips, capped by
// MaxAppCoresPerChip. It reads boot state, so it runs on the driver
// before anything else drives the engine.
func (m *Machine) mapSpec() (mapping.MachineSpec, error) {
	if !m.booted {
		return mapping.MachineSpec{}, fmt.Errorf("spinngo: boot the machine before loading")
	}
	if m.loaded {
		return mapping.MachineSpec{}, fmt.Errorf("spinngo: a model is already loaded")
	}
	appCores := m.minAppCores()
	if m.cfg.MaxAppCoresPerChip > 0 && m.cfg.MaxAppCoresPerChip < appCores {
		appCores = m.cfg.MaxAppCoresPerChip
	}
	if appCores == 0 {
		return mapping.MachineSpec{}, fmt.Errorf("spinngo: machine has dead chips; cannot map uniformly")
	}
	return mapping.MachineSpec{
		Torus:             topo.MustTorus(m.cfg.Width, m.cfg.Height),
		AppCoresPerChip:   appCores,
		MaxNeuronsPerCore: m.cfg.MaxNeuronsPerCore,
		TableSize:         router.DefaultTableSize,
	}, nil
}

// compileNet maps a network onto spec: partition, place, route and
// generate the synaptic data. It reads only the network, the spec and
// the machine's configuration — no engine, fabric or host state — so it
// may run on its own goroutine while the engine drives the fabric.
func (m *Machine) compileNet(net *mapping.Network, spec mapping.MachineSpec) (*mapping.RoutingPlan, *mapping.DataPlan, error) {
	strategy := mapping.PlaceSerpentine
	if m.cfg.Placement == Random {
		strategy = mapping.PlaceRandom
	}
	return mapping.Compile(net, spec, strategy,
		mapping.RouteOptions{ElideDefault: true, Minimise: true}, m.cfg.Seed)
}

// install loads a compiled model's routing tables into the fabric and
// makes it the machine's model.
func (m *Machine) install(model *Model, rplan *mapping.RoutingPlan, dplan *mapping.DataPlan) error {
	if err := rplan.InstallTables(m.fab); err != nil {
		return err
	}
	// Only the install reads the multicast trees, the tables and the
	// destination sets they were built from; the machine keeps the
	// fragments and the statistics the load report, restore and
	// neuron lookup read.
	rplan.Dests, rplan.Trees, rplan.Tables = nil, nil, nil
	m.model = model
	m.rplan = rplan
	m.dplan = dplan
	m.fragUnits = make([][]*unit, len(rplan.Frags))
	m.units = make([]*unit, m.fab.Size()*router.MaxCores)
	return nil
}

// loadAppData ships every core's synaptic image through the host link
// as one pipelined batch of SDRAM writes — the loading traffic (and its
// time) is simulated fabric traffic, not a free teleport — and reports
// how long it took. Fragments are visited in plan order, so the batch
// is identical for every worker count.
func (m *Machine) loadAppData() (sim.Time, error) {
	loadStart := m.pe.Now()
	lb := m.host.NewBatch(hostLoadWindow)
	lb.SetChunk(hostLoadChunkBytes)
	for _, f := range m.rplan.Frags {
		cd := m.dplan.Cores[f.Chip][f.Core]
		if cd == nil || cd.Matrix.Bytes() == 0 {
			continue
		}
		// The image content stands in for the serialised rows already
		// held by the in-memory Matrix; what the transfer prices is the
		// bytes moved and the time they take.
		lb.WriteMem(f.Chip, synapseImageBase+uint32(f.Core)<<20, make([]byte, cd.Matrix.Bytes()))
	}
	if err := m.runBatch(lb); err != nil {
		return 0, err
	}
	for _, r := range lb.Responses() {
		if r.Err != nil {
			return 0, fmt.Errorf("spinngo: application data load: %w", r.Err)
		}
	}
	// Drain straggler load traffic before the model starts (no tickers
	// yet), so the run begins on a quiet fabric from a quiescent instant.
	m.pe.Drain()
	return loadTime(lb, loadStart), nil
}

// start begins model time at epoch: it builds every fragment's unit and
// hooks multicast delivery to the units' kernels.
func (m *Machine) start(epoch sim.Time) error {
	m.epoch = epoch
	for i, f := range m.rplan.Frags {
		// Each fragment gets a private random stream forked from the
		// control RNG in fragment order, so its draws (timer phase,
		// Poisson stimulus, migration restarts) are identical for every
		// worker count and never touch the control stream at run time.
		if _, err := m.buildUnitAt(f, i, f.Core, 0, m.pe.RNG().Fork()); err != nil {
			return err
		}
	}

	// Deliver multicast packets to the right unit's kernel. This runs
	// on the destination chip's shard, so it may only touch that
	// shard's tally slice and the chip's own unit.
	m.fab.OnDeliverMC = func(n *router.Node, coreSlot int, pkt packet.Packet, lat sim.Time) {
		m.tallies.at(n.Index()).latencies.Add(lat)
		if u := m.units[n.Index()*router.MaxCores+coreSlot]; u != nil {
			u.core.PostPacket(pkt)
		}
	}
	m.loaded = true
	return nil
}

// buildUnitAt instantiates the Fig-7 runtime for one fragment on a given
// application-core slot. tickBase aligns the new unit's clock with
// machine time (non-zero when a migration resumes a fragment mid-run);
// rng is the fragment's private stream.
func (m *Machine) buildUnitAt(f *mapping.Fragment, fragIdx, slot int, tickBase uint64, rng *sim.RNG) (*unit, error) {
	slots := m.appCoreSlots(f.Chip)
	if slot < 0 || slot >= len(slots) {
		return nil, fmt.Errorf("spinngo: chip %v has no application core slot %d", f.Chip, slot)
	}
	hw := slots[slot]
	dom := m.domAt(f.Chip)
	gen := len(m.fragUnits[fragIdx])
	u := &unit{
		frag:     f,
		fragIdx:  fragIdx,
		gen:      gen,
		slot:     slot,
		tickBase: tickBase,
		rng:      rng,
		dma:      hw.DMA(),
		core: kernel.NewCore(dom, kernel.Config{
			MIPS: m.cfg.CoreMIPS, TimerPeriod: sim.Millisecond, DispatchOverhead: 100,
		}),
	}
	// Snapshot identity: the kernel stamps its pending events with
	// (fragment, generation) so a restore can resolve them back to this
	// unit on any partition geometry.
	u.core.SetSnapshotTag(uint64(fragIdx), uint64(gen))
	// The DMA controller carries the same identity, and its completions
	// post the DMA-done interrupt by tag; a row fetch that lands while the
	// packet handler that launched it still runs folds into the core's
	// dispatch instead of being an event.
	u.dma.SetSnapshotTag(uint64(fragIdx), uint64(gen))
	u.dma.Attach(u.core)
	cd := m.dplan.Cores[f.Chip][f.Core]

	pop := f.Pop
	switch pop.Kind {
	case mapping.ModelPoisson:
		u.source = neural.NewPoissonSource(rng.Fork(), f.Size(), pop.RateHz)
		u.pop = neural.NewSourcePopulation(f.Size(), neural.MaxSynDelay)
	case mapping.ModelIzhikevich:
		u.pop = neural.NewIzhikevichPopulation(f.Size(), neural.MaxSynDelay, pop.Izh)
	default:
		u.pop = neural.NewLIFPopulation(f.Size(), neural.MaxSynDelay, pop.LIF)
	}
	u.pop.Bias = neural.F(pop.BiasNA)
	u.pop.SeedTick(tickBase)
	if cd != nil {
		u.pop.Matrix = cd.Matrix
		if cd.STDP != nil {
			u.stdp = neural.NewSTDPState(f.Size(), *cd.STDP)
		}
	}

	tally := m.tallyAt(f.Chip)

	// AER out: a firing neuron becomes a multicast packet (section 4),
	// and plastic populations record the post spike for deferred STDP.
	chipCoord := f.Chip
	u.pop.OnSpike = func(local int) {
		if u.stdp != nil {
			u.stdp.RecordPost(local, u.pop.Tick())
		}
		m.fab.InjectMC(chipCoord, packet.NewMC(u.frag.Key()|uint32(local)))
	}

	// Fig-7 task 1: packet received -> schedule the synaptic-row DMA.
	u.core.On(kernel.EvPacket, func(ev kernel.Event) uint64 {
		size, ok := u.pop.Matrix.RowBytes(ev.Pkt.Key)
		if !ok {
			return 60 // no synapses here for that neuron
		}
		u.dma.Enqueue(chip.DMARequest{Size: size, Tag: ev.Pkt.Key})
		return 80
	})
	// Fig-7 task 2: DMA complete -> process the row into the ring;
	// plastic rows first get their deferred STDP update, and modified
	// rows are written back to SDRAM by a further DMA ("if the
	// connectivity data is modified, a DMA must be scheduled to write
	// the changes back", section 5.3).
	u.core.On(kernel.EvDMADone, func(ev kernel.Event) uint64 {
		row, rank, plastic, ok := u.pop.Matrix.Lookup(ev.Tag)
		if !ok {
			return 20
		}
		var cost uint64
		if plastic && u.stdp != nil {
			dirty, c := u.stdp.ProcessRow(rank, row, u.pop.Tick())
			cost += c
			if dirty {
				tally.writeBacks++
				u.dma.Enqueue(chip.DMARequest{Size: row.SizeBytes(), Write: true, Tag: ev.Tag})
			}
		}
		return cost + u.pop.ProcessRow(row)
	})
	// Fig-7 task 3: millisecond timer -> neuron update (plus stimulus
	// generation for Poisson units).
	u.core.On(kernel.EvTimer, func(ev kernel.Event) uint64 {
		if u.source != nil {
			var cost uint64 = 40
			for _, idx := range u.source.Tick() {
				u.pop.Rec.Record(u.tickBase+ev.Tick+1, idx)
				m.fab.InjectMC(chipCoord, packet.NewMC(u.frag.Key()|uint32(idx)))
				cost += 30
			}
			return cost
		}
		return u.pop.StepTick()
	})

	m.chipUnits(f.Chip)[slot] = u
	m.fragUnits[fragIdx] = append(m.fragUnits[fragIdx], u)

	// Start the free-running local timer with a sub-millisecond phase
	// offset: there is no global synchronisation (section 3.1).
	dom.AfterP(sim.Time(rng.Intn(int(sim.Millisecond))), coreStartEv{u})
	return u, nil
}

// eachUnit visits every unit ever built, fragments first then creation
// order within a fragment — a deterministic order independent of when
// migrations happened to run.
func (m *Machine) eachUnit(fn func(u *unit)) {
	for _, us := range m.fragUnits {
		for _, u := range us {
			fn(u)
		}
	}
}

// chipUnits views one chip's row of the unit table, by slot; empty
// before Load.
func (m *Machine) chipUnits(c topo.Coord) []*unit {
	if m.units == nil {
		return nil
	}
	i := m.part.Torus().Index(c) * router.MaxCores
	return m.units[i : i+router.MaxCores]
}

// unitOf finds the live unit running a fragment.
func (m *Machine) unitOf(frag *mapping.Fragment) *unit {
	for _, u := range m.chipUnits(frag.Chip) {
		if u != nil && u.frag == frag && !u.failed {
			return u
		}
	}
	return nil
}

// popOf resolves a population handle on this machine: a model must be
// loaded, the handle must have been issued for that model (by its Add*
// methods, or by Machine.Pop on a restored machine) and must index one
// of its populations.
func (m *Machine) popOf(p Pop) (*mapping.Population, error) {
	switch {
	case !m.loaded:
		return nil, fmt.Errorf("spinngo: no model loaded")
	case p.model != m.model:
		return nil, fmt.Errorf("spinngo: population handle belongs to a different model")
	case p.idx < 0 || p.idx >= len(m.model.net.Pops):
		return nil, fmt.Errorf("spinngo: population handle %d outside the model's %d populations",
			p.idx, len(m.model.net.Pops))
	}
	return m.model.net.Pops[p.idx], nil
}

// FailCoreOf kills the application core simulating neuron idx of
// population p, as a hardware fault would. The chip's monitor processor
// notices the silence after MigrationDetectMS and performs a functional
// migration: the fragment is rebuilt on a spare application core, its
// synaptic matrix re-read from SDRAM, and the chip's multicast routing
// entries repointed at the new core. Membrane state is lost (as on the
// real machine without checkpointing); spikes in flight during the
// outage are dropped at the dead core.
func (m *Machine) FailCoreOf(p Pop, idx int) error {
	pop, err := m.popOf(p)
	if err != nil {
		return err
	}
	frag, err := mapping.FragmentForNeuron(m.rplan.Frags, pop, idx)
	if err != nil {
		return err
	}
	u := m.unitOf(frag)
	if u == nil {
		return fmt.Errorf("spinngo: fragment of %q neuron %d has no live core", pop.Name, idx)
	}
	u.failed = true
	u.core.Stop()
	m.chipUnits(frag.Chip)[u.slot] = nil
	m.domAt(frag.Chip).AfterP(MigrationDetectMS*sim.Millisecond, migrateEv{m, u})
	return nil
}

// migrate moves a failed unit's fragment onto a spare core of the same
// chip. It runs as an event on the chip's shard, so all state it
// touches (the chip's unit map, its fragment's unit list, its chip's
// tallies, its private RNG) is owned by that shard's goroutine.
func (m *Machine) migrate(old *unit) {
	chipCoord := old.frag.Chip
	tally := m.tallyAt(chipCoord)
	units := m.chipUnits(chipCoord)
	spare := -1
	for s := range m.appCoreSlots(chipCoord) {
		if s == old.slot {
			continue // the dead core itself
		}
		if units[s] == nil {
			spare = s
			break
		}
	}
	if spare < 0 {
		tally.migrationFailures++
		return
	}
	// Re-reading the synaptic matrix from SDRAM takes real time; the
	// fragment resumes only after the copy completes.
	bytes := old.pop.Matrix.Bytes()
	m.boot.Chip(chipCoord).SDRAM.Transfer(bytes, migratedEv{m, old, spare})
}

// finishMigrate completes a migration once the SDRAM copy lands: the
// fragment is rebuilt on the chosen spare slot with its clock re-aligned
// to machine time. Runs as the copy's completion event, on the chip's
// shard.
func (m *Machine) finishMigrate(old *unit, spare int) {
	chipCoord := old.frag.Chip
	tally := m.tallyAt(chipCoord)
	dom := m.domAt(chipCoord)
	nu, err := m.buildUnitAt(old.frag, old.fragIdx, spare,
		uint64((dom.Now()-m.epoch)/sim.Millisecond), old.rng)
	if err != nil {
		tally.migrationFailures++
		return
	}
	// Repoint the chip's multicast routing at the slot the rebuilt
	// unit actually landed on: readers that resolve the fragment
	// (Spikes, MeanWeightNA, KillNeuron via unitOf) see the
	// migrated core from here on.
	m.fab.Node(chipCoord).Table.RewriteCore(old.slot, nu.slot)
	tally.migrations++
}

// Run advances the machine by ms milliseconds of biological time —
// executing shards in parallel lookahead windows — and returns the
// cumulative report.
func (m *Machine) Run(ms int) (*RunReport, error) {
	if !m.loaded {
		return nil, fmt.Errorf("spinngo: load a model before running")
	}
	if ms <= 0 {
		return nil, fmt.Errorf("spinngo: non-positive run length")
	}
	m.bioMS += uint64(ms)
	m.pe.RunUntil(m.pe.Now() + sim.Time(ms)*sim.Millisecond)
	// Quiescence boundary: commit any scripted faults the windows above
	// injected — chip deaths reach boot/cores, deferred repairs land,
	// the lookahead re-prices.
	m.commitFaults()
	return m.report(), nil
}

// Spike is one recorded firing, in population-global coordinates.
type Spike struct {
	TimeMS uint64
	Neuron int
}

// Spikes returns the recorded raster of a population, merged across its
// fragments, sorted by fragment then time.
func (m *Machine) Spikes(p Pop) []Spike {
	pop, err := m.popOf(p)
	if err != nil {
		return nil
	}
	var out []Spike
	m.eachUnit(func(u *unit) {
		if u.frag.Pop != pop {
			return
		}
		u.pop.Rec.Each(func(s neural.Spike) {
			out = append(out, Spike{TimeMS: s.Tick, Neuron: u.frag.Lo + s.Neuron})
		})
	})
	return out
}

// MeanRateHz reports a population's mean firing rate over the run so
// far.
func (m *Machine) MeanRateHz(p Pop) float64 {
	pop, err := m.popOf(p)
	if err != nil || m.bioMS == 0 || pop.N == 0 {
		return 0
	}
	spikes := 0
	m.eachUnit(func(u *unit) {
		if u.frag.Pop == pop {
			spikes += u.pop.Rec.Total()
		}
	})
	return float64(spikes) / float64(pop.N) / (float64(m.bioMS) / 1000)
}

// parseDir resolves a direction name ("E", "NE", "N", "W", "SW", "S").
func parseDir(dir string) (topo.Dir, error) {
	for d := topo.Dir(0); int(d) < topo.NumDirs; d++ {
		if d.String() == dir {
			return d, nil
		}
	}
	return 0, fmt.Errorf("spinngo: unknown direction %q", dir)
}

// checkChip bounds-checks a chip coordinate against the torus.
func (m *Machine) checkChip(x, y int) (topo.Coord, error) {
	if x < 0 || x >= m.cfg.Width || y < 0 || y >= m.cfg.Height {
		return topo.Coord{}, fmt.Errorf("spinngo: chip (%d,%d) outside the %dx%d machine",
			x, y, m.cfg.Width, m.cfg.Height)
	}
	return topo.Coord{X: x, Y: y}, nil
}

// FailLink kills both directions of the link leaving chip (x, y) in the
// given direction ("E", "NE", "N", "W", "SW", "S") at the current
// quiescent instant — the fault-injection hook for the emergency-routing
// experiments. The lookahead re-prices over the live cut at once.
func (m *Machine) FailLink(x, y int, dir string) error {
	d, err := parseDir(dir)
	if err != nil {
		return err
	}
	c, err := m.checkChip(x, y)
	if err != nil {
		return err
	}
	m.fab.FailLinkPair(c, d)
	m.faultDirty.Store(true)
	m.commitFaults()
	return nil
}

// FailChip kills chip (x, y) outright at the current quiescent instant:
// the node stops routing, frames queued on its links die, the
// neighbours' reverse links seal, host commands targeting it fail, and
// its application cores fall silent. Idempotent; permanent — RepairLink
// never resurrects a dead chip's links. For a death scripted inside a
// run use ScheduleFailChip, which injects it as a canonical-ordered
// event instead.
func (m *Machine) FailChip(x, y int) error {
	if !m.booted {
		return fmt.Errorf("spinngo: boot the machine before injecting faults")
	}
	c, err := m.checkChip(x, y)
	if err != nil {
		return err
	}
	m.fab.FailChip(c)
	torus := m.part.Torus()
	for d := topo.Dir(0); int(d) < topo.NumDirs; d++ {
		m.fab.FailLink(torus.Neighbor(c, d), d.Opposite())
	}
	m.commitFaults()
	return nil
}

// DeadChips lists chips killed by FailChip (direct or campaign), in
// torus-index order.
func (m *Machine) DeadChips() []topo.Coord { return m.fab.DeadChips() }

// AliveChips counts chips the boot controller holds alive — booted
// chips that no fault campaign has killed. 0 before Boot.
func (m *Machine) AliveChips() int {
	if !m.booted {
		return 0
	}
	return m.boot.AliveChips()
}

// armCampaign schedules one campaign event on chip c's domain — the
// chip owning the state the event mutates — at biological time atMS
// (epoch-relative, like InjectSpike).
func (m *Machine) armCampaign(atMS int, c topo.Coord, ev sim.Payload) error {
	if !m.loaded {
		return fmt.Errorf("spinngo: load a model before scripting a campaign")
	}
	dom := m.domAt(c)
	at := m.epoch + sim.Time(atMS)*sim.Millisecond
	if at < dom.Now() {
		return fmt.Errorf("spinngo: campaign time %dms is in the past", atMS)
	}
	dom.AtP(at, ev)
	return nil
}

// ScheduleFailLink scripts a FailLink at biological time atMS: both
// directions fail, each through an event on the chip that owns it.
func (m *Machine) ScheduleFailLink(atMS, x, y int, dir string) error {
	d, err := parseDir(dir)
	if err != nil {
		return err
	}
	c, err := m.checkChip(x, y)
	if err != nil {
		return err
	}
	if err := m.armCampaign(atMS, c, failLinkEv{m, c, d}); err != nil {
		return err
	}
	nb := m.part.Torus().Neighbor(c, d)
	return m.armCampaign(atMS, nb, failLinkEv{m, nb, d.Opposite()})
}

// ScheduleRepairLink scripts the repair of both directions of a link at
// biological time atMS. The repair defers to the quiescence boundary
// ending the Run call it lands in — a link coming back mid-window could
// tighten the true cross-shard latency below the engine's committed
// lookahead — so drivers wanting prompt repairs chunk their Run calls
// at repair times (the workload runner does).
func (m *Machine) ScheduleRepairLink(atMS, x, y int, dir string) error {
	d, err := parseDir(dir)
	if err != nil {
		return err
	}
	c, err := m.checkChip(x, y)
	if err != nil {
		return err
	}
	if err := m.armCampaign(atMS, c, repairLinkEv{m, c, d}); err != nil {
		return err
	}
	nb := m.part.Torus().Neighbor(c, d)
	return m.armCampaign(atMS, nb, repairLinkEv{m, nb, d.Opposite()})
}

// ScheduleFailChip scripts a chip death at biological time atMS: the
// chip's own event kills its router and purges its queues, and six
// same-instant events on the neighbours seal their reverse links.
func (m *Machine) ScheduleFailChip(atMS, x, y int) error {
	c, err := m.checkChip(x, y)
	if err != nil {
		return err
	}
	if err := m.armCampaign(atMS, c, failChipEv{m, c}); err != nil {
		return err
	}
	torus := m.part.Torus()
	for d := topo.Dir(0); int(d) < topo.NumDirs; d++ {
		nb := torus.Neighbor(c, d)
		if err := m.armCampaign(atMS, nb, failLinkEv{m, nb, d.Opposite()}); err != nil {
			return err
		}
	}
	return nil
}

// commitFaults is the sequential-quiescence half of the fault pipeline:
// campaign events (running inside parallel windows) only flip
// shard-owned fabric state; here — between windows — chip deaths
// propagate to boot aliveness and application cores, deferred link
// repairs commit, and the engine lookahead re-prices over the live cut.
// Idempotent per fault.
func (m *Machine) commitFaults() {
	dirty := m.faultDirty.Swap(false)
	if m.fab.TakeDeadDirty() {
		if m.syncDeadChips() {
			dirty = true
		}
	}
	repaired := m.fab.CommitRepairs()
	if dirty || repaired {
		// Failures widen the live cut's hop floor, repairs tighten it;
		// either way this quiescent instant is the safe place to re-aim
		// the window bound.
		m.pe.SetLookahead(m.fab.LiveLookahead())
	}
}

// syncDeadChips propagates fabric-level chip deaths to the boot
// aliveness map and the dead chips' application cores, once per chip.
// Also called directly after a snapshot restore, where the fabric
// overlay brings in dead chips whose machine-level commit must be
// re-established. Reports whether any new death was committed.
func (m *Machine) syncDeadChips() bool {
	any := false
	for _, c := range m.fab.DeadChips() {
		if m.deadDone[c] {
			continue
		}
		if m.deadDone == nil {
			m.deadDone = make(map[topo.Coord]bool)
		}
		m.deadDone[c] = true
		m.boot.KillChip(c)
		// The chip's application cores die with it: stop the timers
		// and mark the units failed, exactly as FailCoreOf does — but
		// with no migration, since every spare on the chip died too.
		// Recorded spikes up to the death instant stay in the raster.
		units := m.chipUnits(c)
		for slot, u := range units {
			if u != nil {
				u.failed = true
				u.core.Stop()
				units[slot] = nil
			}
		}
		any = true
	}
	return any
}

// InjectSpike forces neuron idx of population p to emit a spike at
// biological time atMS — measured, like the spike raster, from the end
// of loading (must be in the future).
func (m *Machine) InjectSpike(p Pop, idx int, atMS int) error {
	pop, err := m.popOf(p)
	if err != nil {
		return err
	}
	frag, err := mapping.FragmentForNeuron(m.rplan.Frags, pop, idx)
	if err != nil {
		return err
	}
	dom := m.domAt(frag.Chip)
	at := m.epoch + sim.Time(atMS)*sim.Millisecond
	if at < dom.Now() {
		return fmt.Errorf("spinngo: injection time %dms is in the past", atMS)
	}
	dom.AtP(at, injectMCEv{m, frag.Chip, frag.KeyFor(idx)})
	return nil
}

// MeanWeightNA reports the average synaptic weight (nA) across all rows
// targeting population p — the observable for plasticity experiments.
func (m *Machine) MeanWeightNA(p Pop) float64 {
	pop, err := m.popOf(p)
	if err != nil {
		return 0
	}
	var sum float64
	var n int
	m.eachUnit(func(u *unit) {
		if u.frag.Pop != pop || u.failed {
			return
		}
		syns := u.pop.Matrix.Synapses()
		for _, syn := range syns {
			sum += float64(syn.Weight()) / 256
		}
		n += len(syns)
	})
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// KillNeuron permanently disables neuron idx of population p (the
// biological fault-tolerance experiment of section 5.4). It resolves
// the fragment's live unit, so it keeps working after a functional
// migration has moved the fragment off its original core slot (the old
// slot lookup dereferenced a deleted map entry and panicked).
func (m *Machine) KillNeuron(p Pop, idx int) error {
	pop, err := m.popOf(p)
	if err != nil {
		return err
	}
	if pop.Kind == mapping.ModelPoisson {
		return fmt.Errorf("spinngo: %q is a spike source; its neurons cannot be killed", pop.Name)
	}
	frag, err := mapping.FragmentForNeuron(m.rplan.Frags, pop, idx)
	if err != nil {
		return err
	}
	u := m.unitOf(frag)
	if u == nil {
		return fmt.Errorf("spinngo: fragment of %q neuron %d has no live core", pop.Name, idx)
	}
	return u.pop.KillNeuron(idx - frag.Lo)
}
