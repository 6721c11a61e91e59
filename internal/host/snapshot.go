package host

import (
	"fmt"

	"spinngo/internal/sim"
	"spinngo/internal/snap"
	"spinngo/internal/topo"
)

// Snapshot support. A snapshot is only legal with no command in flight
// (Inflight() == 0), so the host's pending events reduce to two kinds of
// debris: the deadline events of already-resolved commands, and the
// response-chunk injections of commands that expired mid-stream. Both
// are no-ops or stragglers against the restored command table.
// The batch hook (done) restores as nil — resolved commands never invoke
// it again.

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

// Snap codes the host's dynamic state — the full command table
// (closure-free), the strip cursor, Ethernet pacing, per-chip start
// flags and flood-fill assemblies, and the convergecast tree —
// overlaying it onto a freshly attached host on the same torus when
// decoding.
func (h *Host) Snap(c *snap.Codec) {
	snap.Slice(c, &h.cmds)
	for i := 0; i < len(h.cmds) && c.Err() == nil; i++ {
		if c.Decoding() {
			h.cmds[i] = &command{seq: uint32(i + 1)}
		}
		cmd := h.cmds[i]
		c.U8((*uint8)(&cmd.op))
		c.Int(&cmd.target.X)
		c.Int(&cmd.target.Y)
		c.U32(&cmd.addr)
		c.Bytes32(&cmd.data)
		c.Int(&cmd.length)
		c.Int(&cmd.chunk)
		c.Int(&cmd.remaining)
		c.Bytes32(&cmd.result)
		c.Bool(&cmd.failed)
		c.Bool(&cmd.launched)
		c.I64((*int64)(&cmd.launchAt))
		c.I64((*int64)(&cmd.timeout))
		c.Bool(&cmd.resolved)
		c.Bool(&cmd.timedOut)
		c.Bool(&cmd.unreachable)
		c.Int(&cmd.chips)
		c.Int(&cmd.respRemaining)
		c.Bool(&cmd.stripped)
	}
	c.Int(&h.strip)
	c.Int(&h.inflight)
	c.I64((*int64)(&h.ethFreeAt))
	if !c.FixedLen(len(h.started), "host start flags") {
		return
	}
	for i := range h.started {
		c.Bool(&h.started[i])
	}
	if !c.FixedLen(len(h.started), "host fill assemblies") {
		return
	}
	// Each chip's assemblies, in sequence order: the fill commands whose
	// state the chip has touched.
	var touched []*fillState
	for i := 0; i < len(h.started) && c.Err() == nil; i++ {
		if !c.Decoding() {
			touched = touched[:0]
			for _, fs := range h.fills {
				if fs.flags[i]&fillTouched != 0 {
					touched = append(touched, fs)
				}
			}
		}
		snap.Slice(c, &touched)
		for k := 0; k < len(touched) && c.Err() == nil; k++ {
			var seq uint32
			if !c.Decoding() {
				seq = touched[k].seq
			}
			c.U32(&seq)
			if c.Decoding() {
				if touched[k] = h.decodedFill(c, seq); touched[k] == nil {
					return
				}
			}
			touched[k].snap(c, i)
		}
	}
	if c.Decoding() {
		// Decoding gave fills their state in the order chips named them.
		h.fills = h.fills[:0]
		for _, cmd := range h.cmds {
			if cmd.fill != nil {
				h.fills = append(h.fills, cmd.fill)
			}
		}
	}
	if !c.FixedLen(len(h.fillParent), "host fill tree") {
		return
	}
	for i := range h.fillParent {
		// Fill acknowledgements index a chip's links by its uplink.
		snap.Enum(c, &h.fillParent[i], topo.Dir(topo.NumDirs))
	}
	for i := range h.fillChildren {
		c.Int(&h.fillChildren[i])
	}
	c.Int(&h.fillAlive)
	c.Int(&h.fillsUnresolved)
	c.U64(&h.PacketsSent)
	if c.Decoding() && (h.strip < 0 || h.strip > len(h.cmds)) {
		c.Fail(fmt.Errorf("host: strip cursor %d outside the %d-command table", h.strip, len(h.cmds)))
	}
}

// decodedFill resolves the command a decoded fill assembly names,
// giving it its per-chip state on first mention (a fill no chip touched
// needs none: no packet of it can be in flight). It fails the codec,
// returning nil, unless the command is a fill in the table whose chunk
// count the dense state can hold.
func (h *Host) decodedFill(c *snap.Codec, seq uint32) *fillState {
	cmd := h.cmd(seq)
	switch {
	case cmd == nil:
		c.Fail(fmt.Errorf("host: fill assembly names command %d outside the %d-command table", seq, len(h.cmds)))
		return nil
	case cmd.op != OpFill:
		c.Fail(fmt.Errorf("host: fill assembly names %v command %d", cmd.op, seq))
		return nil
	case cmd.fill == nil:
		if n := cmd.fillChunks(); n < 0 || n > MaxFillChunks {
			c.Fail(fmt.Errorf("host: fill command %d records %d chunks, want 0..%d", seq, n, MaxFillChunks))
			return nil
		}
		h.addFillState(cmd)
	}
	return cmd.fill
}

// snap codes chip i's assembly, the fields in the order of the
// per-chip record the format has always had.
func (fs *fillState) snap(c *snap.Codec, i int) {
	if !c.FixedLen(fs.chunks, "fill assembly chunk copies") {
		return
	}
	copies := fs.copies[i*fs.chunks : (i+1)*fs.chunks]
	for b := range copies {
		c.U8(&copies[b])
	}
	snapInt32(c, &fs.chunksLeft[i])
	snapInt32(c, &fs.childAcks[i])
	snapInt32(c, &fs.subtree[i])
	acked := fs.flags[i]&fillAcked != 0
	c.Bool(&acked)
	if c.Decoding() {
		fs.flags[i] = fillTouched
		if acked {
			fs.flags[i] |= fillAcked
		}
	}
}

// snapInt32 codes an int32 counter as the int64 the format records;
// decoding fails on a value an int32 cannot hold.
func snapInt32(c *snap.Codec, p *int32) {
	v := int(*p)
	c.Int(&v)
	if c.Decoding() {
		if v != int(int32(v)) {
			c.Fail(fmt.Errorf("host: fill assembly count %d out of range", v))
			return
		}
		*p = int32(v)
	}
}
