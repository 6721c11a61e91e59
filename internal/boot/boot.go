// Package boot implements the SpiNNaker bootstrap of paper section 5.2:
//
//  1. Every core self-tests; survivors bid for Monitor Processor through
//     the System Controller's read-sensitive register.
//  2. Each booted chip probes its six neighbours with nearest-neighbour
//     (nn) packets; a neighbour that fails to respond is rescued — boot
//     code is copied into its System RAM over nn packets and it is
//     instructed to reboot with a forced monitor choice.
//  3. Symmetry is broken at system level: the Ethernet-attached chip
//     becomes (0,0) and coordinates flood outward over nn packets.
//  4. Each node then configures its p2p routing, making it reachable
//     from the host via node (0,0).
//  5. The image is loaded by nn flood-fill: the host's FillMem
//     (internal/host), with a redundancy parameter trading load time
//     against fault-tolerance; load time is almost independent of machine
//     size (experiment E9). Run stops before this step. ImageBlocks,
//     BlockBytes, BlockAddr and BlockContent describe what the fill
//     stores, and VerifyImage checks it.
package boot

import (
	"fmt"

	"spinngo/internal/chip"
	"spinngo/internal/packet"
	"spinngo/internal/router"
	"spinngo/internal/sim"
	"spinngo/internal/topo"
)

// nn command words.
const (
	cmdPing uint32 = iota + 1
	cmdPong
	cmdReboot   // payload: forced monitor core
	cmdCoord    // payload: packed claimed coordinate
	cmdCoordReq // a late riser asking its rescuer to re-flood coordinates
)

// Config parameterises a boot run.
type Config struct {
	// Cores per chip.
	Cores int
	// CoreFaultProb is the per-core probability of failing self-test.
	CoreFaultProb float64
	// DeadChips fail to boot on their own and need neighbour rescue.
	DeadChips map[topo.Coord]bool
	// HardDeadChips cannot be rescued at all.
	HardDeadChips map[topo.Coord]bool
	// ProbeTimeout is how long a chip waits for a ping response before
	// starting a rescue.
	ProbeTimeout sim.Time
	// ImageBlocks is the number of flood-fill blocks in the boot image.
	ImageBlocks int
	// BlockBytes is the size of each block (stored to SDRAM).
	BlockBytes int
	// Seed decorrelates the per-chip rescue RNG streams. Rescue monitor
	// elections draw from a chip-local stream (seeded from Seed and the
	// chip index) rather than the controller's setup RNG, so event-time
	// draws never depend on cross-shard event interleaving — and a
	// healthy boot draws nothing from them at all.
	Seed uint64
}

// DefaultConfig returns paper-scale boot parameters.
func DefaultConfig() Config {
	return Config{
		Cores:        chip.CoresPerChip,
		ProbeTimeout: 50 * sim.Microsecond,
		ImageBlocks:  32,
		BlockBytes:   256,
	}
}

// nodeState is one chip's boot progress. Every field is written only by
// the chip's own events (or the sequential phase setup), which is what
// lets the boot drains run under parallel windows: a shard never
// touches another shard's node state.
type nodeState struct {
	chip     *chip.Chip
	alive    bool
	rescued  bool
	monitor  int // elected monitor core, -1 until boot
	hasCoord bool
	derived  topo.Coord
	coordAt  sim.Time // when the chip learned its coordinates
	p2pReady bool
	// pongSeen records, per outgoing link, that the probed neighbour
	// answered — the chip-local fact the rescue timeout consults
	// instead of peeking at the neighbour's alive flag.
	pongSeen [topo.NumDirs]bool
	// nnSent counts nearest-neighbour packets this chip originated;
	// summed into Result.NNPackets at finalise.
	nnSent uint64
	// rescueRNG drives this chip's rescue-path monitor election. It is
	// deterministic in (Config.Seed, chip index) alone, created on first
	// draw — a healthy boot never touches it, so a healthy chip never
	// pays for the stream state.
	rescueRNG *sim.RNG
}

// Result summarises a boot run.
type Result struct {
	// Alive chips after local boot (before rescue).
	BootedLocally int
	// Rescued chips brought up by neighbours.
	Rescued int
	// DeadForever chips that never came up.
	DeadForever int
	// Monitors maps chip -> elected monitor core.
	Monitors map[topo.Coord]int
	// CoordCorrect reports all derived coordinates matched reality.
	CoordCorrect bool
	// CoordTime is when the last alive node learned its coordinates.
	CoordTime sim.Time
	// P2PReady chips configured point-to-point tables.
	P2PReady int
	// NNPackets counts all nearest-neighbour traffic.
	NNPackets uint64
}

// Controller orchestrates a boot over a fabric. The sequential phase
// setup (self-test, probe scheduling, flood seeding) runs on the caller
// between drains; every event handler touches only the receiving
// chip's own state, so the drains themselves run under the Runner's
// normal PDES windows — boot parallelises like any other workload.
type Controller struct {
	run   sim.Runner
	fab   *router.Fabric
	cfg   Config
	torus topo.Torus
	nodes []nodeState // by torus index
	res   Result
	segs  chip.Segments // SDRAM payloads shared by the machine's chips
}

// NewController builds the boot orchestrator for an existing fabric.
// run drives the whole machine (a single Engine or a ParallelEngine);
// each chip's hardware binds to its own node's engine.
func NewController(run sim.Runner, fab *router.Fabric, cfg Config) *Controller {
	// A real boot touches every chip — self-test, neighbour probe,
	// coordinate flood — so the whole torus materialises here, in index
	// order: the dense degenerate case of the sparse fabric, with the
	// historical RNG draw order preserved.
	fab.MaterialiseAll()
	c := &Controller{
		run:   run,
		fab:   fab,
		cfg:   cfg,
		torus: fab.Params().Torus,
		nodes: make([]nodeState, fab.Size()),
	}
	for _, n := range fab.Nodes() {
		c.nodes[n.Index()] = nodeState{
			chip:    chip.New(n.Domain(), n.Coord, cfg.Cores, &c.segs),
			monitor: -1,
		}
	}
	fab.OnNN = c.handleNN
	return c
}

// rescue returns the rescue RNG of the chip at torus index idx, creating
// the stream on first draw.
func (st *nodeState) rescue(seed uint64, idx int) *sim.RNG {
	if st.rescueRNG == nil {
		st.rescueRNG = sim.NewRNG(seed ^ 0x9e3779b97f4a7c15*uint64(idx+1))
	}
	return st.rescueRNG
}

// node returns a chip's boot state. A coordinate off the torus is a
// caller's bug: it panics rather than alias the chip it would wrap to.
func (c *Controller) node(at topo.Coord) *nodeState {
	if !c.torus.Contains(at) {
		panic(fmt.Sprintf("boot: chip %v is off the %dx%d torus", at, c.torus.W, c.torus.H))
	}
	return &c.nodes[at.Y*c.torus.W+at.X]
}

// Chip exposes a node's chip (for inspection in tests and the host).
func (c *Controller) Chip(at topo.Coord) *chip.Chip { return c.node(at).chip }

// Segments returns the machine's table of shared SDRAM payloads, which
// every chip's SDRAM.StoreShared draws from.
func (c *Controller) Segments() *chip.Segments { return &c.segs }

// send wraps fabric nn transmission with accounting. The tally lives on
// the sending chip (shard-owned); finalise sums the machine-wide count.
func (c *Controller) send(from topo.Coord, d topo.Dir, cmd, payload uint32) {
	c.node(from).nnSent++
	c.fab.SendNN(from, d, packet.NewNN(cmd, payload))
}

// Run executes the boot sequence up to p2p configuration and reports
// the result. The engine is drained to quiescence between phases, under
// its normal execution mode — parallel windows on a sharded engine.
func (c *Controller) Run() *Result {
	c.phaseLocalBoot()
	c.phaseProbeAndRescue()
	c.run.Drain()
	c.phaseCoordinates()
	c.run.Drain()
	c.finalise()
	return &c.res
}

// phaseLocalBoot: self-test and monitor election on every healthy chip.
// Chips are visited in node-index order: the control-plane RNG draws
// must not depend on map iteration order, or the boot (and everything
// seeded after it) stops being reproducible.
func (c *Controller) phaseLocalBoot() {
	for _, n := range c.fab.Nodes() {
		coord := n.Coord
		st := &c.nodes[n.Index()]
		if c.cfg.DeadChips[coord] || c.cfg.HardDeadChips[coord] {
			continue
		}
		for _, core := range st.chip.Cores {
			if c.run.RNG().Bool(c.cfg.CoreFaultProb) {
				core.InjectedFault = true
			}
		}
		if id, err := st.chip.ElectMonitor(c.run.RNG()); err == nil {
			st.alive = true
			st.monitor = id
			c.res.BootedLocally++
		}
	}
}

// phaseProbeAndRescue: alive chips ping all six neighbours; missing
// responses trigger a rescue reboot over nn. The timeout consults the
// chip's own pong record, never the neighbour's state: a rescue nudge
// sent to a chip that was alive (or already rescued) all along is
// simply ignored on arrival, exactly as redundant reboot requests from
// multiple rescuers already are.
func (c *Controller) phaseProbeAndRescue() {
	for _, n := range c.fab.Nodes() {
		coord := n.Coord
		st := &c.nodes[n.Index()]
		if !st.alive {
			continue
		}
		dom := n.Domain()
		for d := topo.Dir(0); int(d) < topo.NumDirs; d++ {
			d := d
			dom.AfterP(sim.Time(c.run.RNG().Intn(1000)), sim.Func(func() {
				c.send(coord, d, cmdPing, 0)
			}))
			// If the neighbour stays silent, attempt the rescue: copy
			// boot code (abstracted) and force a reboot.
			dom.AfterP(c.cfg.ProbeTimeout, sim.Func(func() {
				if !st.pongSeen[d] {
					c.send(coord, d, cmdReboot, 0)
				}
			}))
		}
	}
}

// phaseCoordinates: the origin claims (0,0) and floods coordinates.
func (c *Controller) phaseCoordinates() {
	origin := topo.Coord{X: 0, Y: 0}
	st := c.node(origin)
	if !st.alive {
		return
	}
	st.hasCoord = true
	st.derived = origin
	st.coordAt = c.fab.DomainAt(origin).Now()
	st.p2pReady = true
	c.fab.Node(origin).ConfigureP2P()
	c.propagateCoord(origin)
}

func (c *Controller) propagateCoord(from topo.Coord) {
	st := c.node(from)
	for d := topo.Dir(0); int(d) < topo.NumDirs; d++ {
		nb := c.torus.Neighbor(st.derived, d)
		c.send(from, d, cmdCoord, uint32(packet.P2PAddr(nb.X, nb.Y)))
	}
}

// handleNN is the fabric's nearest-neighbour delivery callback.
func (c *Controller) handleNN(n *router.Node, from topo.Dir, pkt packet.Packet) {
	st := &c.nodes[n.Index()]
	switch pkt.Key {
	case cmdPing:
		if st.alive {
			c.send(n.Coord, from, cmdPong, 0)
		}
	case cmdPong:
		// Liveness confirmed: remember it on the probing chip, where the
		// rescue timeout will look.
		st.pongSeen[from] = true
	case cmdReboot:
		if st.alive || c.cfg.HardDeadChips[n.Coord] {
			return
		}
		// Boot code arrives over nn; the neighbour forces the monitor
		// choice and the chip reboots. The election draws from this
		// chip's own rescue stream — never the shared setup RNG, whose
		// event-time draw order would depend on shard interleaving.
		if id, err := st.chip.ElectMonitor(st.rescue(c.cfg.Seed, n.Index())); err == nil {
			st.alive = true
			st.rescued = true
			st.monitor = id
			// A late riser must learn its coordinates too: ask the
			// rescuer to re-flood, rather than reaching into its state
			// from this chip's event.
			c.send(n.Coord, from, cmdCoordReq, 0)
		}
	case cmdCoordReq:
		if st.alive && st.hasCoord {
			c.propagateCoord(n.Coord)
		}
	case cmdCoord:
		if !st.alive || st.hasCoord {
			return
		}
		x, y := packet.P2PCoords(uint16(pkt.Payload))
		st.hasCoord = true
		st.derived = c.torus.Wrap(topo.Coord{X: x, Y: y})
		st.coordAt = n.Domain().Now()
		st.p2pReady = true
		n.ConfigureP2P() // "only then can each node configure its p2p routing tables"
		c.propagateCoord(n.Coord)
	}
}

// BlockAddr maps a boot-image block index to its SDRAM load address:
// where the host's flood-fill stores each block and VerifyImage looks.
func BlockAddr(idx uint32) uint32 { return 0x4000_0000 + idx*0x1000 }

// BlockContent generates the deterministic content of a boot-image
// block.
func BlockContent(idx uint32, size int) []byte {
	out := make([]byte, size)
	x := idx*2654435761 + 1
	for i := range out {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		out[i] = byte(x)
	}
	return out
}

// finalise computes the result summary, folding the per-chip tallies
// (monitor elections, rescues, nn packet counts) into the machine-wide
// Result — integer sums and index-ordered map fills, independent of the
// event interleaving that produced them.
func (c *Controller) finalise() {
	c.res.Monitors = make(map[topo.Coord]int)
	coordOK := true
	var lastCoord sim.Time
	for _, n := range c.fab.Nodes() {
		coord := n.Coord
		st := &c.nodes[n.Index()]
		c.res.NNPackets += st.nnSent
		if !st.alive {
			c.res.DeadForever++
			continue
		}
		if st.monitor >= 0 {
			c.res.Monitors[coord] = st.monitor
		}
		if st.rescued {
			c.res.Rescued++
		}
		if st.hasCoord {
			if st.derived != coord {
				coordOK = false
			}
			if st.coordAt > lastCoord {
				lastCoord = st.coordAt
			}
		} else {
			coordOK = false
		}
		if st.p2pReady {
			c.res.P2PReady++
		}
	}
	c.res.CoordCorrect = coordOK
	c.res.CoordTime = lastCoord
}

// VerifyImage checks a chip's SDRAM holds the full, correct image.
func (c *Controller) VerifyImage(at topo.Coord) error {
	st := c.node(at)
	for b := uint32(0); b < uint32(c.cfg.ImageBlocks); b++ {
		data, ok := st.chip.SDRAM.Load(BlockAddr(b))
		if !ok {
			return fmt.Errorf("boot: chip %v missing block %d", at, b)
		}
		want := BlockContent(b, c.cfg.BlockBytes)
		if len(data) != len(want) {
			return fmt.Errorf("boot: chip %v block %d truncated", at, b)
		}
		for i := range want {
			if data[i] != want[i] {
				return fmt.Errorf("boot: chip %v block %d corrupt at byte %d", at, b, i)
			}
		}
	}
	return nil
}

// Alive reports whether the chip ended the boot alive.
func (c *Controller) Alive(at topo.Coord) bool { return c.node(at).alive }

// Rescued reports whether the chip was brought up by a neighbour.
func (c *Controller) Rescued(at topo.Coord) bool { return c.node(at).rescued }

// KillChip records a post-boot chip death (a fault campaign's
// FailChip): the chip drops out of aliveness checks, so host commands
// targeting it fail and the flood-fill tree routes around it on its
// next rebuild. Idempotent; call only at sequential quiescence — the
// host reads aliveness from inside the event stream.
func (c *Controller) KillChip(at topo.Coord) { c.node(at).alive = false }

// AliveChips counts chips currently alive.
func (c *Controller) AliveChips() int {
	n := 0
	for i := range c.nodes {
		if c.nodes[i].alive {
			n++
		}
	}
	return n
}
