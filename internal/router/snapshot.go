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
// Encode/DecodeState round-trip a node's non-event state (queues,
// counters, link health). The routing tables are not serialised here —
// the machine layer rebuilds them by replaying the load/migration
// history.

// encPacket writes every packet field, including the Hops/EmergencyHops
// instrumentation: in-flight packets must resume with their hop counts
// intact or delivered-packet telemetry diverges after a restore.
func encPacket(w *snap.Writer, p packet.Packet) {
	w.U8(uint8(p.Type))
	w.U32(p.Key)
	w.U32(p.Payload)
	w.Bool(p.HasPayload)
	w.U8(uint8(p.Emergency))
	w.U8(p.Timestamp)
	w.U16(p.SrcAddr)
	w.U16(p.DstAddr)
	w.Int(p.Hops)
	w.Int(p.EmergencyHops)
}

func decPacket(r *snap.Reader) packet.Packet {
	var p packet.Packet
	p.Type = packet.Type(r.U8())
	p.Key = r.U32()
	p.Payload = r.U32()
	p.HasPayload = r.Bool()
	p.Emergency = packet.EmergencyState(r.U8())
	p.Timestamp = r.U8()
	p.SrcAddr = r.U16()
	p.DstAddr = r.U16()
	p.Hops = r.Int()
	p.EmergencyHops = r.Int()
	return p
}

func encFlit(w *snap.Writer, fl flit) {
	encPacket(w, fl.pkt)
	w.I64(int64(fl.injectedAt))
}

func decFlit(r *snap.Reader) flit {
	fl := flit{pkt: decPacket(r)}
	fl.injectedAt = sim.Time(r.I64())
	return fl
}

// flitBlob encodes a flit as a descriptor blob.
func flitBlob(fl flit) []byte {
	var w snap.Writer
	encFlit(&w, fl)
	return w.Bytes()
}

func flitFromBlob(b []byte) (flit, error) {
	r := snap.NewReader(b)
	fl := decFlit(r)
	if err := r.Err(); err != nil {
		return flit{}, err
	}
	if r.Remaining() != 0 {
		return flit{}, fmt.Errorf("router: %d trailing bytes in flit blob", r.Remaining())
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
			return n.getArrive(fl, d), nil
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
			return &retryEv{n: n, fl: fl, d: d, t0: sim.Time(int64(rec.Desc.Args[1]))}, nil
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

// EncodeState writes the node's dynamic state (everything except the
// routing table and pending events): the canonical send sequence, output
// link queues and health, the dropped-packet register and the
// shard-owned tallies.
func (n *Node) EncodeState(w *snap.Writer) {
	w.U64(n.sendSeq)
	w.U64(n.EmergencyNotices)
	w.U64(n.DropNotices)
	w.U64(n.UnroutableMC)
	w.Len(len(n.Dropped))
	for _, dp := range n.Dropped {
		encPacket(w, dp.Pkt)
		w.U8(uint8(dp.Dir))
		w.Bool(dp.Aged)
	}
	w.U64(n.deliveredMC)
	w.U64(n.deliveredP2P)
	w.U64(n.dropped)
	w.U64(n.aged)
	w.U64(n.p2pUnroutable)
	w.U64(n.emergencies)
	w.Bool(n.p2pReady)
	w.Bool(n.dead)
	for d := range n.out {
		l := &n.out[d]
		w.Bool(l.failed)
		w.I64(int64(l.freeAt))
		w.Bool(l.draining)
		w.U64(l.Traversals)
		w.Len(len(l.queue))
		for _, fl := range l.queue {
			encFlit(w, fl)
		}
	}
}

// DecodeState overlays state written by EncodeState onto a freshly built
// node. Link failures restored here do not re-price the engine lookahead;
// the machine layer recomputes it for the restore partition.
func (n *Node) DecodeState(r *snap.Reader) error {
	n.sendSeq = r.U64()
	n.EmergencyNotices = r.U64()
	n.DropNotices = r.U64()
	n.UnroutableMC = r.U64()
	n.Dropped = nil
	for i, k := 0, r.Len(); i < k && r.Err() == nil; i++ {
		dp := DroppedPacket{Pkt: decPacket(r)}
		dp.Dir = topo.Dir(r.U8())
		dp.Aged = r.Bool()
		n.Dropped = append(n.Dropped, dp)
	}
	n.deliveredMC = r.U64()
	n.deliveredP2P = r.U64()
	n.dropped = r.U64()
	n.aged = r.U64()
	n.p2pUnroutable = r.U64()
	n.emergencies = r.U64()
	n.p2pReady = r.Bool()
	n.dead = r.Bool()
	for d := range n.out {
		l := &n.out[d]
		l.failed = r.Bool()
		l.freeAt = sim.Time(r.I64())
		l.draining = r.Bool()
		l.Traversals = r.U64()
		l.queue = nil
		for i, k := 0, r.Len(); i < k && r.Err() == nil; i++ {
			l.queue = append(l.queue, decFlit(r))
		}
	}
	return r.Err()
}
