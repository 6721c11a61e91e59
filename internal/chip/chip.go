// Package chip models one SpiNNaker chip multiprocessor node (paper
// section 4, Figs 3-4): up to 20 ARM968 processor subsystems, each with
// local instruction and data memory and a DMA controller, sharing a
// 1 Gbit SDRAM over the System NoC, plus the System Controller whose
// read-sensitive register arbitrates the Monitor Processor election
// (section 5.2).
package chip

import (
	"fmt"

	"spinngo/internal/sim"
	"spinngo/internal/snap"
	"spinngo/internal/topo"
)

// Architectural constants from the paper (section 4).
const (
	// CoresPerChip is the full complement of ARM968 cores.
	CoresPerChip = 20
	// SDRAMBytes is the 1 Gbit mobile DDR SDRAM per node.
	SDRAMBytes = 128 * 1024 * 1024
)

// CoreState describes what a core is doing (section 5.3: active
// application processors exclude the Monitor, idle and disabled cores).
type CoreState int

const (
	// CoreUntested cores have not yet run their power-on self-test.
	CoreUntested CoreState = iota
	// CoreFailed cores failed self-test and are disabled.
	CoreFailed
	// CoreIdle cores passed self-test and await a role.
	CoreIdle
	// CoreMonitor is the elected Monitor Processor.
	CoreMonitor
	// CoreApplication cores run the event-driven application.
	CoreApplication
)

func (s CoreState) String() string {
	switch s {
	case CoreUntested:
		return "untested"
	case CoreFailed:
		return "failed"
	case CoreIdle:
		return "idle"
	case CoreMonitor:
		return "monitor"
	case CoreApplication:
		return "application"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ArbiterRegister is the read-sensitive System Controller register that
// breaks the on-chip symmetry: the first core to read it is granted the
// Monitor role, and all later readers are refused (section 5.2, "one and
// only one processor is chosen as Monitor").
type ArbiterRegister struct {
	claimed bool
}

// Read performs the destructive read: true exactly once.
func (a *ArbiterRegister) Read() bool {
	if a.claimed {
		return false
	}
	a.claimed = true
	return true
}

// Core is one ARM968 processor subsystem.
type Core struct {
	ID    int
	State CoreState
	// InjectedFault makes the power-on self-test fail (fault model).
	InjectedFault bool

	sdram *SDRAM         // the chip's shared SDRAM, which DMA serves
	dma   *DMAController // nil until first use
}

// DMA returns the core's DMA controller, built on first use: a chip
// boots all its cores, but only those that run an application unit ever
// move data, so an idle or monitor core holds none.
func (c *Core) DMA() *DMAController {
	if c.dma == nil {
		c.dma = NewDMAController(c.sdram.eng, c.sdram)
	}
	return c.dma
}

// SnapDMA codes the core's DMA controller. A core that never used one
// codes the bytes of a fresh controller, and decoding keeps none unless
// the recorded state differs from a fresh one.
func (c *Core) SnapDMA(cd *snap.Codec) {
	d := c.dma
	if d == nil {
		d = NewDMAController(c.sdram.eng, c.sdram)
	}
	d.Snap(cd)
	if cd.Decoding() && c.dma == nil && !d.fresh() {
		c.dma = d
	}
}

// SelfTest runs the power-on self-test. A faulty core always fails;
// healthy cores pass.
func (c *Core) SelfTest() bool {
	if c.InjectedFault {
		c.State = CoreFailed
		return false
	}
	c.State = CoreIdle
	return true
}

// Chip is one mesh node's processing resources.
type Chip struct {
	Coord   topo.Coord
	Cores   []*Core
	SDRAM   *SDRAM
	Arbiter ArbiterRegister
}

// New builds a chip with n cores on the given scheduler (an Engine,
// or the chip's fabric-node Domain in the sharded machine). segs is the
// machine's table of shared SDRAM payloads, nil for a chip that never
// stores one.
func New(eng sim.Scheduler, coord topo.Coord, n int, segs *Segments) *Chip {
	if n <= 0 || n > CoresPerChip {
		panic(fmt.Sprintf("chip: invalid core count %d", n))
	}
	ch := &Chip{Coord: coord, SDRAM: NewSDRAM(eng)}
	ch.SDRAM.table = segs
	cores := make([]Core, n) // one allocation for the chip's cores
	ch.Cores = make([]*Core, n)
	for i := range cores {
		cores[i] = Core{ID: i, sdram: ch.SDRAM}
		ch.Cores[i] = &cores[i]
	}
	return ch
}

// ElectMonitor runs the section-5.2 boot step: every core self-tests,
// then the survivors bid for the Monitor role in an arbitrary order (the
// free-running cores race; rng models the race) by reading the
// arbitration register. It returns the winner's ID, or an error when no
// core is healthy.
func (ch *Chip) ElectMonitor(rng *sim.RNG) (int, error) {
	var bidders []*Core
	for _, c := range ch.Cores {
		if c.SelfTest() {
			bidders = append(bidders, c)
		}
	}
	if len(bidders) == 0 {
		return -1, fmt.Errorf("chip %v: no healthy cores", ch.Coord)
	}
	order := rng.Perm(len(bidders))
	winner := -1
	for _, i := range order {
		if ch.Arbiter.Read() {
			if winner != -1 {
				panic("chip: arbiter granted monitor twice")
			}
			winner = bidders[i].ID
			bidders[i].State = CoreMonitor
		}
	}
	return winner, nil
}

// AssignApplications marks all idle healthy cores as application cores
// and reports how many there are.
func (ch *Chip) AssignApplications() int {
	n := 0
	for _, c := range ch.Cores {
		if c.State == CoreIdle {
			c.State = CoreApplication
			n++
		}
	}
	return n
}

// ApplicationCores returns the cores running application code.
func (ch *Chip) ApplicationCores() []*Core {
	var out []*Core
	for _, c := range ch.Cores {
		if c.State == CoreApplication {
			out = append(out, c)
		}
	}
	return out
}
