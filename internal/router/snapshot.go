package router

import (
	"fmt"

	"spinngo/internal/packet"
	"spinngo/internal/sim"
	"spinngo/internal/snap"
	"spinngo/internal/topo"
)

// Snapshot support for the fabric. Every pending fabric event describes
// itself with a "fab." kind whose Blob encodes the in-flight flit;
// EventKinds turns a recorded descriptor back into the event, and
// Node.Snap round-trips a node's non-event state (queues, counters,
// link health). The routing tables are not serialised here —
// the machine layer rebuilds them by replaying the load/migration
// history.

// snap codes an in-flight flit: the packet and when it entered the
// fabric.
func (fl *flit) snap(c *snap.Codec) {
	fl.pkt.Snap(c)
	c.I64((*int64)(&fl.injectedAt))
}

// flitBlob encodes a flit as a descriptor blob.
func flitBlob(fl flit) []byte {
	c := snap.NewEncoder()
	fl.snap(c)
	return c.Bytes()
}

func flitFromBlob(b []byte) (flit, error) {
	var fl flit
	c := snap.NewDecoder(b)
	fl.snap(c)
	if err := c.Err(); err != nil {
		return flit{}, err
	}
	if c.Remaining() != 0 {
		return flit{}, fmt.Errorf("router: %d trailing bytes in flit blob", c.Remaining())
	}
	return fl, nil
}

// descFlit builds a fabric event descriptor carrying a flit.
func descFlit(kind string, fl flit, args ...uint64) *sim.Desc {
	return &sim.Desc{Kind: kind, Args: args, Blob: flitBlob(fl)}
}

// decodeEvent validates what every fabric descriptor shares: the node
// (the event's domain — node domains use the torus index as their
// domain ID, and a chip with pending events materialises on demand),
// the argument count, the link direction in args[0] when the kind has
// one, and the flit blob.
func (f *Fabric) decodeEvent(rec *sim.EventRecord, nargs int, hasDir, hasFlit bool) (n *Node, fl flit, d topo.Dir, err error) {
	kind, args := rec.Desc.Kind, rec.Desc.Args
	if rec.Domain < 0 || int(rec.Domain) >= len(f.nodes) {
		return nil, fl, 0, fmt.Errorf("router: %s for node %d outside torus", kind, rec.Domain)
	}
	if len(args) != nargs {
		return nil, fl, 0, fmt.Errorf("router: %s expects %d args, got %d", kind, nargs, len(args))
	}
	if hasDir {
		if args[0] >= uint64(topo.NumDirs) {
			return nil, fl, 0, fmt.Errorf("router: %s direction %d out of range", kind, args[0])
		}
		d = topo.Dir(args[0])
	}
	if hasFlit {
		if fl, err = flitFromBlob(rec.Desc.Blob); err != nil {
			return nil, fl, 0, fmt.Errorf("router: %s: %w", kind, err)
		}
	}
	return f.node(int(rec.Domain)), fl, d, nil
}

// EventKinds returns the kind-table entries for the fabric's events.
func (f *Fabric) EventKinds() sim.Kinds {
	// A route event's kind follows from its packet type, and only
	// locally injected packets ever wait in one.
	notLocal := func(rec *sim.EventRecord, fl flit) error {
		return fmt.Errorf("router: %s %v is not a locally injected packet of its kind (got a %v packet)",
			rec.Desc.Kind, rec.Desc.Args, fl.pkt.Type)
	}
	return sim.Kinds{
		KindRouteMC: func(rec *sim.EventRecord) (sim.Payload, error) {
			n, fl, _, err := f.decodeEvent(rec, 1, false, true)
			if err != nil {
				return nil, err
			}
			if fl.pkt.Type == packet.P2P || rec.Desc.Args[0] != localTravel {
				return nil, notLocal(rec, fl)
			}
			return n.getRoute(fl), nil
		},
		KindRouteP2P: func(rec *sim.EventRecord) (sim.Payload, error) {
			n, fl, _, err := f.decodeEvent(rec, 0, false, true)
			if err != nil {
				return nil, err
			}
			if fl.pkt.Type != packet.P2P {
				return nil, notLocal(rec, fl)
			}
			return n.getRoute(fl), nil
		},
		KindArrive: func(rec *sim.EventRecord) (sim.Payload, error) {
			n, fl, d, err := f.decodeEvent(rec, 1, true, true)
			if err != nil {
				return nil, err
			}
			return n.getArrive(n, fl, d), nil
		},
		KindTxDrain: func(rec *sim.EventRecord) (sim.Payload, error) {
			n, _, d, err := f.decodeEvent(rec, 1, true, false)
			if err != nil {
				return nil, err
			}
			return n.out[d].drain, nil
		},
		KindRetry: func(rec *sim.EventRecord) (sim.Payload, error) {
			n, fl, d, err := f.decodeEvent(rec, 2, true, true)
			if err != nil {
				return nil, err
			}
			// A wait starts by the instant it is restored at, attempts on
			// the grid from t0 and drops by dropAfter. The difference is
			// taken unsigned, which is exact once t0 is known not to be
			// after the attempt.
			t0 := sim.Time(int64(rec.Desc.Args[1]))
			if since := uint64(rec.At) - uint64(t0); t0 > min(rec.At, n.dom.Now()) ||
				since > uint64(f.dropAfter) || since%uint64(f.p.RetryInterval) != 0 {
				return nil, fmt.Errorf("router: %s at %v is not an attempt of a wait from %v (every %v, drop after %v)",
					rec.Desc.Kind, rec.At, t0, f.p.RetryInterval, f.dropAfter)
			}
			// The record cannot tell a sleeper from a packet that polls,
			// and need not: a poll is always due by the first grid point
			// after any quiescent instant, so wake never moves one.
			p := n.getRetry(fl, d, t0)
			n.sleep(p, rec.At, rec.K1)
			return p, nil
		},
		KindFwd: func(rec *sim.EventRecord) (sim.Payload, error) {
			n, fl, d, err := f.decodeEvent(rec, 1, true, true)
			if err != nil {
				return nil, err
			}
			return &fwdEv{n: n, fl: fl, d: d}, nil
		},
	}
}

// Snap codes the node's dynamic state (everything except the routing
// table and pending events): the canonical send sequence, the
// dropped-packet register, the shard-owned tallies, and output link
// queues, health and deferred repairs — overlaying it onto a freshly
// built node when decoding. Link failures restored here do not re-price
// the engine lookahead; the machine layer recomputes it for the restore
// partition.
func (n *Node) Snap(c *snap.Codec) {
	c.U64(&n.sendSeq)
	c.U64(&n.EmergencyNotices)
	c.U64(&n.DropNotices)
	c.U64(&n.UnroutableMC)
	// The dropped-packet register's contents follow its flag only when
	// it is full.
	c.Bool(&n.dropFull)
	if n.dropFull {
		n.dropReg.Pkt.Snap(c)
		// Reinject indexes the output links by the direction.
		snap.Enum(c, &n.dropReg.Dir, topo.Dir(topo.NumDirs))
		c.Bool(&n.dropReg.Aged)
	}
	c.U64(&n.deliveredMC)
	c.U64(&n.deliveredP2P)
	c.U64(&n.dropped)
	c.U64(&n.aged)
	c.U64(&n.p2pUnroutable)
	c.U64(&n.emergencies)
	c.Bool(&n.p2pReady)
	c.Bool(&n.dead)
	for d := range n.out {
		l := &n.out[d]
		c.Bool(&l.failed)
		if c.Bool(&l.pendingRepair); c.Decoding() && l.pendingRepair {
			n.fabric.pendingRepairs.Add(1) // onto a fresh node, which had none
		}
		c.I64((*int64)(&l.freeAt))
		c.Bool(&l.draining)
		c.U64(&l.Traversals)
		snap.Slice(c, &l.queue)
		for i := range l.queue {
			l.queue[i].snap(c)
		}
	}
}
