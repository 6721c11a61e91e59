package host

import (
	"spinngo/internal/sim"
	"spinngo/internal/topo"
)

// Batch is an ordered set of host commands issued with a bounded
// in-flight window: Launch starts the first window serialising onto the
// Ethernet immediately, and every resolution (completion or expiry) —
// an event on the gateway chip's domain — launches the next queued
// command from inside the event stream. The pacing is therefore part of
// the simulation trajectory itself: the same batch launches its
// commands at identical simulated instants for every shard count, and a
// window of 1 issues each command at exactly the instant the previous
// one resolved — precisely what a sequential one-command-at-a-time
// driver does, which is why the two produce byte-identical machines.
//
// Build the batch and call Launch from sequential context (no window in
// flight), then drive the engine — RunUntilAnyOf with Done as the
// condition — until every command has resolved.
type Batch struct {
	h        *Host
	window   int
	timeout  sim.Time
	chunk    int
	cmds     []*command
	next     int // next command to launch
	resolved int // commands resolved so far (gateway-shard-owned after Launch)
	launched bool

	responses []Response
}

// NewBatch starts an empty batch with the given in-flight window (values
// below 1 mean 1).
func (h *Host) NewBatch(window int) *Batch {
	if window < 1 {
		window = 1
	}
	return &Batch{h: h, window: window}
}

// SetTimeout overrides the per-command deadline for commands added so
// far and later. Call before Launch.
func (b *Batch) SetTimeout(d sim.Time) {
	b.timeout = d
	for _, cmd := range b.cmds {
		cmd.timeout = d
	}
}

// SetChunk overrides the payload bytes carried per fabric packet for
// commands added after the call — how the machine's own bulk loads use
// SDP-style frame aggregation while user commands keep the attachment
// default (the paper's one-packet-per-word model). Call before adding
// commands.
func (b *Batch) SetChunk(bytes int) { b.chunk = bytes }

// add registers a command and wires its resolution into the batch's
// bookkeeping and launch chain.
func (b *Batch) add(cmd *command) int {
	if b.launched {
		panic("host: batch extended after Launch")
	}
	idx := len(b.cmds)
	cmd.timeout = b.timeout
	if cmd.chunk <= 0 {
		cmd.chunk = b.chunk
	}
	b.h.register(cmd)
	cmd.done = func(r Response) {
		b.responses[idx] = r
		b.resolved++
		b.launchNext()
	}
	b.cmds = append(b.cmds, cmd)
	return idx
}

// Ping appends a ping of chip target, returning the command's index into
// Responses.
func (b *Batch) Ping(target topo.Coord) int {
	return b.add(&command{op: OpPing, target: target})
}

// WriteMem appends a write of data to target's SDRAM at addr.
func (b *Batch) WriteMem(target topo.Coord, addr uint32, data []byte) int {
	return b.add(&command{op: OpWrite, target: target, addr: addr,
		data: append([]byte(nil), data...)})
}

// ReadMem appends a read of length bytes from target's SDRAM at addr.
func (b *Batch) ReadMem(target topo.Coord, addr uint32, length int) int {
	return b.add(&command{op: OpRead, target: target, addr: addr, length: length})
}

// Start appends an application-start signal to target.
func (b *Batch) Start(target topo.Coord) int {
	return b.add(&command{op: OpStart, target: target})
}

// FillMem appends a flood-fill write of data to every alive chip at
// addr.
func (b *Batch) FillMem(addr uint32, data []byte) (int, error) {
	cmd, err := b.h.newFill(addr, data, b.chunk)
	if err != nil {
		return 0, err
	}
	return b.add(cmd), nil
}

// Launch starts the batch: the first window of commands begins
// serialising onto the Ethernet now; each resolution launches the next.
// Sequential context only.
func (b *Batch) Launch() {
	if b.launched {
		panic("host: batch launched twice")
	}
	b.launched = true
	b.responses = make([]Response, len(b.cmds))
	b.launchNext()
}

// launchNext tops the in-flight window up from the queue. Runs in
// sequential context (from Launch) or on the gateway shard (from a
// resolution event).
func (b *Batch) launchNext() {
	for b.next < len(b.cmds) && b.next-b.resolved < b.window {
		cmd := b.cmds[b.next]
		b.next++
		b.h.launch(cmd)
	}
}

// Done reports whether every command has resolved (completed or
// expired). It is the halt condition to drive the engine with.
func (b *Batch) Done() bool { return b.resolved == len(b.cmds) }

// Len reports the batch size; Resolved how many commands have resolved.
func (b *Batch) Len() int      { return len(b.cmds) }
func (b *Batch) Resolved() int { return b.resolved }

// Timeout reports the per-command deadline batch commands run under.
func (b *Batch) Timeout() sim.Time {
	if b.timeout > 0 {
		return b.timeout
	}
	return b.h.cfg.Timeout
}

// Horizon reports a stall deadline for the current wait: every launched
// command starts serialising no later than the Ethernet backlog clears,
// and resolves (completes or expires) within its per-command timeout of
// that, so a wait reaching this instant without a single resolution
// indicates a host-protocol bug — not a deep pipe. Drivers use it so a
// large payload's multi-millisecond wire time is never mistaken for a
// stall. Sequential context.
func (b *Batch) Horizon() sim.Time {
	at := b.h.eng.Now()
	if b.h.ethFreeAt > at {
		at = b.h.ethFreeAt
	}
	return at + 2*b.Timeout()
}

// Responses returns per-command responses, indexed as the commands were
// added. Valid once Done reports true (expired commands carry their
// timeout error).
func (b *Batch) Responses() []Response { return b.responses }
