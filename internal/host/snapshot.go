package host

import (
	"fmt"
	"sort"

	"spinngo/internal/sim"
	"spinngo/internal/snap"
	"spinngo/internal/topo"
)

// Snapshot support. A snapshot is only legal with no command in flight
// (Inflight() == 0), so the host's pending events reduce to two kinds of
// debris: the deadline events of already-resolved commands, and the
// response-chunk injections of commands that expired mid-stream. Both
// are no-ops or stragglers against the restored command table.
// Callbacks (done/onResolve) restore as nil — resolved commands never
// invoke them again.

// Event kinds of the host's snapshot-able events; args: command seq.
const (
	KindExpire = "host.expire"
	KindRChunk = "host.rchunk"
)

// expireEv is a command's deadline, on the gateway's domain.
type expireEv struct {
	h   *Host
	cmd *command
}

func (e expireEv) Run()                 { e.h.expire(e.cmd) }
func (e expireEv) EventDesc() *sim.Desc { return cmdDesc(KindExpire, e.cmd) }

// rchunkEv injects one response-stream payload packet, on the target's
// domain; a chunk of a long-resolved command still travels and dies at
// the gateway like any straggler.
type rchunkEv struct {
	h   *Host
	cmd *command
}

func (e rchunkEv) Run()                 { e.h.fab.InjectP2P(e.cmd.target, e.h.origin, e.cmd.seq) }
func (e rchunkEv) EventDesc() *sim.Desc { return cmdDesc(KindRChunk, e.cmd) }

func cmdDesc(kind string, cmd *command) *sim.Desc {
	return &sim.Desc{Kind: kind, Args: []uint64{uint64(cmd.seq)}}
}

// EventKinds returns the kind-table entries for the host's events.
func (h *Host) EventKinds() sim.Kinds {
	entry := func(build func(cmd *command) sim.Payload) func(*sim.EventRecord) (sim.Payload, error) {
		return func(rec *sim.EventRecord) (sim.Payload, error) {
			kind, args := rec.Desc.Kind, rec.Desc.Args
			if len(args) != 1 {
				return nil, fmt.Errorf("host: %s expects 1 arg, got %d", kind, len(args))
			}
			cmd := h.cmd(uint32(args[0]))
			if cmd == nil || uint64(cmd.seq) != args[0] {
				return nil, fmt.Errorf("host: %s references unknown command %d", kind, args[0])
			}
			return build(cmd), nil
		}
	}
	return sim.Kinds{
		KindExpire: entry(func(cmd *command) sim.Payload { return expireEv{h, cmd} }),
		KindRChunk: entry(func(cmd *command) sim.Payload { return rchunkEv{h, cmd} }),
	}
}

// EncodeState writes the host's dynamic state: the full command table
// (closure-free), the strip cursor, Ethernet pacing, per-chip start
// flags and flood-fill assemblies, and the convergecast tree.
func (h *Host) EncodeState(w *snap.Writer) {
	w.Len(len(h.cmds))
	for _, c := range h.cmds {
		w.U8(uint8(c.op))
		w.Int(c.target.X)
		w.Int(c.target.Y)
		w.U32(c.addr)
		w.Bytes32(c.data)
		w.Int(c.length)
		w.Int(c.chunk)
		w.Int(c.remaining)
		w.Bytes32(c.result)
		w.Bool(c.failed)
		w.Bool(c.launched)
		w.I64(int64(c.launchAt))
		w.I64(int64(c.timeout))
		w.Bool(c.resolved)
		w.Bool(c.timedOut)
		w.Bool(c.unreachable)
		w.Int(c.chips)
		w.Int(c.respRemaining)
		w.Bool(c.stripped)
	}
	w.Int(h.strip)
	w.Int(h.inflight)
	w.I64(int64(h.ethFreeAt))
	w.Len(len(h.started))
	for _, s := range h.started {
		w.Bool(s)
	}
	w.Len(len(h.fills))
	for _, m := range h.fills {
		seqs := make([]uint32, 0, len(m))
		for seq := range m {
			seqs = append(seqs, seq)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		w.Len(len(seqs))
		for _, seq := range seqs {
			fa := m[seq]
			w.U32(seq)
			w.Len(len(fa.chunkCopies))
			for _, c := range fa.chunkCopies {
				w.U8(c)
			}
			w.Int(fa.chunksLeft)
			w.Int(fa.childAcks)
			w.Int(fa.subtree)
			w.Bool(fa.acked)
		}
	}
	w.Len(len(h.fillParent))
	for _, d := range h.fillParent {
		w.U8(uint8(d))
	}
	for _, n := range h.fillChildren {
		w.Int(n)
	}
	w.Int(h.fillAlive)
	w.Int(h.fillsUnresolved)
	w.U64(h.PacketsSent)
}

// DecodeState overlays state written by EncodeState onto a freshly
// attached host on the same torus.
func (h *Host) DecodeState(r *snap.Reader) error {
	h.cmds = nil
	for i, k := 0, r.Len(); i < k && r.Err() == nil; i++ {
		c := &command{seq: uint32(i + 1)}
		c.op = Op(r.U8())
		c.target = topo.Coord{X: r.Int(), Y: r.Int()}
		c.addr = r.U32()
		c.data = r.Bytes32()
		c.length = r.Int()
		c.chunk = r.Int()
		c.remaining = r.Int()
		c.result = r.Bytes32()
		c.failed = r.Bool()
		c.launched = r.Bool()
		c.launchAt = sim.Time(r.I64())
		c.timeout = sim.Time(r.I64())
		c.resolved = r.Bool()
		c.timedOut = r.Bool()
		c.unreachable = r.Bool()
		c.chips = r.Int()
		c.respRemaining = r.Int()
		c.stripped = r.Bool()
		h.cmds = append(h.cmds, c)
	}
	h.strip = r.Int()
	h.inflight = r.Int()
	h.ethFreeAt = sim.Time(r.I64())
	if n := r.Len(); r.Err() == nil && n != len(h.started) {
		return fmt.Errorf("host: restore torus size %d != %d", n, len(h.started))
	}
	for i := range h.started {
		h.started[i] = r.Bool()
	}
	if n := r.Len(); r.Err() == nil && n != len(h.fills) {
		return fmt.Errorf("host: restore fills size %d != %d", n, len(h.fills))
	}
	for i := range h.fills {
		h.fills[i] = nil
		k := r.Len()
		if k == 0 {
			continue
		}
		m := make(map[uint32]*fillAssembly, k)
		for j := 0; j < k && r.Err() == nil; j++ {
			seq := r.U32()
			fa := &fillAssembly{}
			fa.chunkCopies = make([]uint8, r.Len())
			for b := range fa.chunkCopies {
				fa.chunkCopies[b] = r.U8()
			}
			fa.chunksLeft = r.Int()
			fa.childAcks = r.Int()
			fa.subtree = r.Int()
			fa.acked = r.Bool()
			m[seq] = fa
		}
		h.fills[i] = m
	}
	if n := r.Len(); r.Err() == nil && n != len(h.fillParent) {
		return fmt.Errorf("host: restore tree size %d != %d", n, len(h.fillParent))
	}
	for i := range h.fillParent {
		h.fillParent[i] = topo.Dir(r.U8())
	}
	for i := range h.fillChildren {
		h.fillChildren[i] = r.Int()
	}
	h.fillAlive = r.Int()
	h.fillsUnresolved = r.Int()
	h.PacketsSent = r.U64()
	return r.Err()
}
