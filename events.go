package spinngo

import (
	"fmt"

	"spinngo/internal/chip"
	"spinngo/internal/kernel"
	"spinngo/internal/packet"
	"spinngo/internal/sim"
	"spinngo/internal/topo"
)

// The machine layer's own events. Like every event in the model each is
// one payload type: Run is the event, EventDesc names it for snapshots,
// and eventKinds maps the name back to the same type on restore.

// Machine-layer event kinds.
const (
	kindCoreStart = "machine.corestart" // args: fragment, generation
	kindMigrate   = "machine.migrate"   // args: fragment, generation
	kindMigrated  = "machine.migrated"  // args: fragment, generation, spare slot
	kindInjectMC  = "machine.injectmc"  // args: x, y, key
)

// Campaign event kinds: scripted faults ride the same canonical event
// path as injected spikes, so a campaign is byte-identical across every
// worker count and partition geometry, and pending campaign events
// survive snapshot/restore like any other event. Each event mutates only
// state owned by the domain it is scheduled on: a link failure runs on
// the chip owning the link's transmit side, a chip death on the dying
// chip itself (the neighbours' reverse links seal through their own
// same-instant events).
const (
	campaignFailLink   = "campaign.faillink"   // args: x, y, dir
	campaignFailChip   = "campaign.failchip"   // args: x, y
	campaignRepairLink = "campaign.repairlink" // args: x, y, dir
)

// desc builds a descriptor addressed to the unit: its (fragment,
// generation) identity — stable across partition geometries — then extra.
func (u *unit) desc(kind string, extra ...uint64) *sim.Desc {
	return &sim.Desc{Kind: kind, Args: append([]uint64{uint64(u.fragIdx), uint64(u.gen)}, extra...)}
}

// coreStartEv starts a freshly built unit's free-running timer.
type coreStartEv struct{ u *unit }

func (e coreStartEv) Run()                 { e.u.core.Start() }
func (e coreStartEv) EventDesc() *sim.Desc { return e.u.desc(kindCoreStart) }

// migrateEv is the monitor's watchdog noticing a failed unit's silence.
type migrateEv struct {
	m *Machine
	u *unit
}

func (e migrateEv) Run()                 { e.m.migrate(e.u) }
func (e migrateEv) EventDesc() *sim.Desc { return e.u.desc(kindMigrate) }

// migratedEv is the SDRAM copy of a migrating fragment's synaptic matrix
// landing: the fragment resumes on the chosen spare slot.
type migratedEv struct {
	m     *Machine
	u     *unit
	spare int
}

func (e migratedEv) Run()                 { e.m.finishMigrate(e.u, e.spare) }
func (e migratedEv) EventDesc() *sim.Desc { return e.u.desc(kindMigrated, uint64(e.spare)) }

// injectMCEv is an InjectSpike firing: a multicast packet enters chip c.
type injectMCEv struct {
	m   *Machine
	c   topo.Coord
	key uint32
}

func (e injectMCEv) Run() { e.m.fab.InjectMC(e.c, packet.NewMC(e.key)) }
func (e injectMCEv) EventDesc() *sim.Desc {
	return &sim.Desc{Kind: kindInjectMC, Args: []uint64{uint64(e.c.X), uint64(e.c.Y), uint64(e.key)}}
}

// failLinkEv, repairLinkEv and failChipEv are the scripted faults.
type failLinkEv struct {
	m *Machine
	c topo.Coord
	d topo.Dir
}

func (e failLinkEv) Run()                 { e.m.fab.FailLink(e.c, e.d); e.m.faultDirty.Store(true) }
func (e failLinkEv) EventDesc() *sim.Desc { return linkDesc(campaignFailLink, e.c, e.d) }

type repairLinkEv struct {
	m *Machine
	c topo.Coord
	d topo.Dir
}

func (e repairLinkEv) Run()                 { e.m.fab.DeferRepairLink(e.c, e.d); e.m.faultDirty.Store(true) }
func (e repairLinkEv) EventDesc() *sim.Desc { return linkDesc(campaignRepairLink, e.c, e.d) }

type failChipEv struct {
	m *Machine
	c topo.Coord
}

func (e failChipEv) Run() { e.m.fab.FailChip(e.c); e.m.faultDirty.Store(true) }
func (e failChipEv) EventDesc() *sim.Desc {
	return &sim.Desc{Kind: campaignFailChip, Args: []uint64{uint64(e.c.X), uint64(e.c.Y)}}
}

func linkDesc(kind string, c topo.Coord, d topo.Dir) *sim.Desc {
	return &sim.Desc{Kind: kind, Args: []uint64{uint64(c.X), uint64(c.Y), uint64(d)}}
}

// eventKinds assembles the machine's one table of event kinds: the
// machine layer's own entries plus those the fabric, host, kernel and
// chip packages contribute for the events they schedule. Restore looks
// every recorded event up here; nothing else matches a kind string.
func (m *Machine) eventKinds() sim.Kinds {
	k := sim.Kinds{
		kindCoreStart: func(rec *sim.EventRecord) (sim.Payload, error) {
			u, err := m.unitArg(rec, 2)
			if err != nil {
				return nil, err
			}
			return coreStartEv{u}, nil
		},
		kindMigrate: func(rec *sim.EventRecord) (sim.Payload, error) {
			u, err := m.unitArg(rec, 2)
			if err != nil {
				return nil, err
			}
			return migrateEv{m, u}, nil
		},
		kindMigrated: func(rec *sim.EventRecord) (sim.Payload, error) {
			u, err := m.unitArg(rec, 3)
			if err != nil {
				return nil, err
			}
			spare := rec.Desc.Args[2]
			if spare >= uint64(len(m.appCoreSlots(u.frag.Chip))) {
				return nil, fmt.Errorf("spinngo: %s spare slot %d out of range", kindMigrated, spare)
			}
			return migratedEv{m, u, int(spare)}, nil
		},
		kindInjectMC: func(rec *sim.EventRecord) (sim.Payload, error) {
			c, err := m.chipArg(rec, 3)
			if err != nil {
				return nil, err
			}
			key := rec.Desc.Args[2]
			if key > 0xFFFF_FFFF {
				return nil, fmt.Errorf("spinngo: %s key %#x exceeds 32 bits", kindInjectMC, key)
			}
			return injectMCEv{m, c, uint32(key)}, nil
		},
		campaignFailLink: func(rec *sim.EventRecord) (sim.Payload, error) {
			c, d, err := m.linkArgs(rec)
			if err != nil {
				return nil, err
			}
			return failLinkEv{m, c, d}, nil
		},
		campaignRepairLink: func(rec *sim.EventRecord) (sim.Payload, error) {
			c, d, err := m.linkArgs(rec)
			if err != nil {
				return nil, err
			}
			return repairLinkEv{m, c, d}, nil
		},
		campaignFailChip: func(rec *sim.EventRecord) (sim.Payload, error) {
			c, err := m.chipArg(rec, 2)
			if err != nil {
				return nil, err
			}
			return failChipEv{m, c}, nil
		},
	}
	k.Add(m.fab.EventKinds())
	k.Add(m.host.EventKinds())
	k.Add(kernel.EventKinds(func(tag []uint64) (*kernel.Core, error) {
		u, err := m.unitByTag(tag)
		if err != nil {
			return nil, err
		}
		return u.core, nil
	}))
	k.Add(chip.EventKinds(func(tag []uint64) (*chip.DMAController, error) {
		u, err := m.unitByTag(tag)
		if err != nil {
			return nil, err
		}
		return u.dma, nil
	}))
	return k
}

// unitByTag resolves a (fragment, generation) snapshot tag against the
// unit history.
func (m *Machine) unitByTag(tag []uint64) (*unit, error) {
	if len(tag) != 2 {
		return nil, fmt.Errorf("spinngo: unit tag has %d values, want (fragment, generation)", len(tag))
	}
	if tag[0] >= uint64(len(m.fragUnits)) || tag[1] >= uint64(len(m.fragUnits[tag[0]])) {
		return nil, fmt.Errorf("spinngo: unit %d/%d outside the unit history", tag[0], tag[1])
	}
	return m.fragUnits[tag[0]][tag[1]], nil
}

// unitArg checks a unit-addressed record's argument count and resolves
// its leading (fragment, generation) pair.
func (m *Machine) unitArg(rec *sim.EventRecord, nargs int) (*unit, error) {
	if len(rec.Desc.Args) != nargs {
		return nil, fmt.Errorf("spinngo: %s expects %d args, got %d", rec.Desc.Kind, nargs, len(rec.Desc.Args))
	}
	return m.unitByTag(rec.Desc.Args[:2])
}

// chipArg checks a chip-addressed record's argument count and
// bounds-checks its leading (x, y) pair.
func (m *Machine) chipArg(rec *sim.EventRecord, nargs int) (topo.Coord, error) {
	args := rec.Desc.Args
	if len(args) != nargs {
		return topo.Coord{}, fmt.Errorf("spinngo: %s expects %d args, got %d", rec.Desc.Kind, nargs, len(args))
	}
	if args[0] >= uint64(m.cfg.Width) || args[1] >= uint64(m.cfg.Height) {
		return topo.Coord{}, fmt.Errorf("spinngo: %s chip (%d,%d) outside the %dx%d machine",
			rec.Desc.Kind, args[0], args[1], m.cfg.Width, m.cfg.Height)
	}
	return topo.Coord{X: int(args[0]), Y: int(args[1])}, nil
}

// linkArgs decodes a link-addressed record: (x, y, direction).
func (m *Machine) linkArgs(rec *sim.EventRecord) (topo.Coord, topo.Dir, error) {
	c, err := m.chipArg(rec, 3)
	if err != nil {
		return c, 0, err
	}
	d := rec.Desc.Args[2]
	if d >= uint64(topo.NumDirs) {
		return c, 0, fmt.Errorf("spinngo: %s direction %d out of range", rec.Desc.Kind, d)
	}
	return c, topo.Dir(d), nil
}
