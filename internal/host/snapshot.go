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
	if !c.FixedLen(len(h.fills), "host fill assemblies") {
		return
	}
	for i := range h.fills {
		snap.Map(c, &h.fills[i], func(p **fillAssembly) {
			if c.Decoding() {
				*p = &fillAssembly{}
			}
			fa := *p
			snap.Slice(c, &fa.chunkCopies)
			for b := range fa.chunkCopies {
				c.U8(&fa.chunkCopies[b])
			}
			c.Int(&fa.chunksLeft)
			c.Int(&fa.childAcks)
			c.Int(&fa.subtree)
			c.Bool(&fa.acked)
		})
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
