// Package host models the Host System of paper Fig 1: one or more
// workstations attached by Ethernet to a gateway chip, able to reach
// every chip in the machine with point-to-point packets once the boot
// sequence has configured coordinates and p2p tables (section 5.2: "the
// Host System [can] communicate with any node using p2p packets via
// Ethernet and node (0,0)").
//
// Commands (ping, memory read/write, application start) travel as p2p
// packet bursts — one packet per payload chunk plus a header packet — so
// their timing reflects real fabric traffic; payload bytes ride an
// out-of-band table keyed by sequence number, standing in for the SDP
// protocol's payload framing. The multicast flood-fill write (FillMem)
// instead propagates chip-to-chip over nearest-neighbour links — the
// section-5.2 flood fill, which is also how the machine loads its boot
// image — reaching every chip for one Ethernet transfer, with one
// aggregated acknowledgement per tree link converging back on the
// gateway. Every command is issued through a Batch.
//
// The package is built to run under the sharded parallel engine's
// lookahead windows: every command is registered in an
// append-only table before it launches, its registered fields (target,
// address, payload) are immutable from then on and safe to read from any
// shard, and each mutable progress field is owned by exactly one shard —
// reassembly and burst counting by the target chip's shard,
// launch/resolution state by the gateway's. Completions, expiries and
// follow-on launches are all events on the gateway chip's scheduling
// domain, so they take part in the canonical (time, domain, class, seq)
// event order like any other traffic and the whole host phase is
// byte-reproducible for every worker count.
package host

import (
	"errors"
	"fmt"

	"spinngo/internal/boot"
	"spinngo/internal/packet"
	"spinngo/internal/router"
	"spinngo/internal/sim"
	"spinngo/internal/topo"
)

// Op is a host command opcode.
type Op uint8

const (
	// OpPing checks a chip's monitor is responsive.
	OpPing Op = iota + 1
	// OpWrite stores bytes into a chip's SDRAM.
	OpWrite
	// OpRead fetches bytes from a chip's SDRAM.
	OpRead
	// OpStart signals application start on a chip.
	OpStart
	// OpFill is the flood-fill bulk write: one Ethernet transfer whose
	// payload every alive chip stores at the same SDRAM address,
	// propagated over nearest-neighbour links like the boot image.
	OpFill
)

// String names the opcode.
func (o Op) String() string {
	switch o {
	case OpPing:
		return "ping"
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpStart:
		return "start"
	case OpFill:
		return "fill"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Response is the completion of one command.
type Response struct {
	Seq  uint32
	Op   Op
	From topo.Coord
	Data []byte // read results
	// Chips counts the chips that acknowledged a flood-fill write.
	Chips int
	Err   error
	At    sim.Time
	// RTT is issue-to-completion time (the full per-command timeout for
	// an expired command).
	RTT sim.Time
}

// DefaultTimeout bounds how long a command may take before the link
// reports it lost.
const DefaultTimeout = 100 * sim.Millisecond

var (
	// ErrTimeout marks a command resolved by its deadline passing: the
	// machine may have partially executed it (a timed-out flood-fill
	// reports the coverage certified so far in Response.Chips).
	ErrTimeout = errors.New("host: command timed out")
	// ErrUnreachable marks a command that could not reach its target at
	// all — reported synchronously, before anything was launched, so no
	// timeout is spent discovering it.
	ErrUnreachable = errors.New("host: target unreachable")
)

// Config shapes the Ethernet attachment.
type Config struct {
	// EthLatency is the one-way host <-> gateway latency.
	EthLatency sim.Time
	// EthBytesPerUS is Ethernet throughput (100 Mbit/s ~ 12.5 B/us).
	EthBytesPerUS float64
	// Origin is the Ethernet-attached gateway chip commands enter the
	// machine through. The boot sequence always roots at (0,0) — the
	// paper's symmetry-breaking chip — but a host may attach to any
	// chip, as real machines carry one Ethernet port per board.
	Origin topo.Coord
	// ChunkBytes is the payload carried per fabric packet: 4 models the
	// paper's one-packet-per-32-bit-word bursts, larger values stand in
	// for SDP-style frame aggregation for bulk transfers. Default 4.
	ChunkBytes int
	// Timeout is the per-command deadline. Default DefaultTimeout.
	Timeout sim.Time
	// Redundancy is how many copies of each flood-fill chunk a chip
	// forwards before going quiet — the fault-tolerance/load-time
	// trade-off of paper section 5.2. 1 (the default) forwards only the
	// first copy; higher values keep bulk loads alive through
	// campaigns that kill chips or links on the primary flood path, at
	// proportionally more flood traffic. Default 1.
	Redundancy int
}

// DefaultConfig returns 100 Mbit Ethernet with LAN latency, attached at
// (0,0).
func DefaultConfig() Config {
	return Config{EthLatency: 50 * sim.Microsecond, EthBytesPerUS: 12.5,
		ChunkBytes: 4, Timeout: DefaultTimeout, Redundancy: 1}
}

// command tracks one operation. Registration fields (op, target, addr,
// data, length, chunk, acksTotal) are immutable once the command
// launches, so any shard may read them mid-flight. Mutable fields are
// each owned by a single shard goroutine: remaining/result/failed by the
// target chip's shard, everything in the gateway block by the gateway
// chip's shard. Cross-shard hand-offs (a response or acknowledgement
// packet crossing a window barrier) provide the happens-before edges a
// reader needs.
type command struct {
	seq    uint32
	op     Op
	target topo.Coord // unused for OpFill (the target is the machine)
	addr   uint32
	data   []byte // write/fill payload
	length int    // read length
	chunk  int    // payload bytes per fabric packet
	// done is the owning batch's resolution hook, fired once on the
	// gateway shard.
	done func(Response)

	// Target-shard-owned progress.
	remaining int    // burst packets still to arrive at the target
	result    []byte // read result
	failed    bool   // SDRAM store/load failed at the target

	// Gateway-shard-owned state.
	launched bool
	launchAt sim.Time
	timeout  sim.Time
	resolved bool
	timedOut bool
	// unreachable marks a command resolved synchronously at launch
	// because the gateway chip itself is dead — no pipe to serialise
	// onto, so no timeout is spent discovering it.
	unreachable bool
	chips       int // OpFill: chips covered by the flood (partial on timeout)
	// respRemaining counts response-stream packets still expected at the
	// gateway; 0 means the header has not arrived yet (the header, which
	// arrives first, announces the stream length).
	respRemaining int

	// stripped marks a resolved command whose payload buffers were
	// released at a later sequential quiescence point; straggler packets
	// of a stripped command must not store (nothing left to store).
	stripped bool

	// fill is an OpFill's per-chip state, allocated at registration.
	fill *fillState
}

// chunks reports how many payload packets the command's data spans.
func (c *command) chunks() int {
	if len(c.data) == 0 {
		return 0
	}
	return (len(c.data) + c.chunk - 1) / c.chunk
}

// respChunks reports how many payload packets the command's response
// stream carries beyond its header — read results travel back through
// the fabric chunked exactly like the outbound burst, so a read of N
// bytes costs the same number of fabric packets in each direction.
func (c *command) respChunks() int {
	if len(c.result) == 0 {
		return 0
	}
	return (len(c.result) + c.chunk - 1) / c.chunk
}

// fillChunks reports a fill's chunk count, which outlives its payload:
// register sets the burst counter to 1 + chunks, and a fill's never
// counts down, since fills complete over the convergecast.
func (c *command) fillChunks() int { return c.remaining - 1 }

// fillState is every chip's reassembly and acknowledgement state for
// one flood-fill command, in dense arrays indexed by torus index and
// allocated once, when the command registers: a machine-wide fill
// touches every chip, and an allocation per chip per fill was the
// largest term of a booted chip's heap. Each chip's entries are touched
// only by its own shard. A chip's assembly survives completion as a
// tombstone so late duplicate chunks are absorbed without re-storing or
// re-acknowledging.
type fillState struct {
	seq    uint32
	chunks int
	seg    int // the payload's entry in the machine's SDRAM Segments
	// copies[i*chunks+b] counts the copies of chunk b chip i accepted so
	// far, saturating at the configured redundancy: a chip forwards each
	// of the first Config.Redundancy copies on all six links, then
	// absorbs the rest.
	copies     []uint8
	chunksLeft []int32
	childAcks  []int32 // acknowledged children in the convergecast tree
	subtree    []int32 // chips covered by the children's aggregated acks
	flags      []uint8 // fillTouched: the chip holds an assembly; fillAcked
}

const (
	fillTouched = 1 << iota
	fillAcked
)

func newFillState(seq uint32, chips, chunks int) *fillState {
	fs := &fillState{seq: seq, chunks: chunks, seg: -1,
		copies:     make([]uint8, chips*chunks),
		chunksLeft: make([]int32, chips),
		childAcks:  make([]int32, chips),
		subtree:    make([]int32, chips),
		flags:      make([]uint8, chips),
	}
	for i := range fs.chunksLeft {
		fs.chunksLeft[i] = int32(chunks)
	}
	return fs
}

// Flood-fill wire encoding. Fill chunks travel as nn packets whose key
// carries the command sequence and chunk index (the payload word is the
// chunk's leading word; full content rides the out-of-band table like
// every other payload). Acknowledgements are nn packets too — one hop up
// the convergecast tree, payload carrying the aggregated subtree count —
// marked by a second flag bit.
const (
	fillFlag      = uint32(1) << 31
	fillAckFlag   = uint32(1) << 30
	fillSeqShift  = 12
	fillSeqMask   = uint32(1)<<18 - 1
	fillChunkMask = uint32(1)<<fillSeqShift - 1
	// MaxFillChunks bounds one FillMem's payload packets (the chunk
	// index field width).
	MaxFillChunks = int(fillChunkMask)
)

func fillKey(seq uint32, chunk int) uint32 {
	return fillFlag | (seq&fillSeqMask)<<fillSeqShift | uint32(chunk)&fillChunkMask
}

func fillAckKey(seq uint32) uint32 {
	return fillFlag | fillAckFlag | (seq&fillSeqMask)<<fillSeqShift
}

func fillParts(key uint32) (seq uint32, chunk int) {
	return (key >> fillSeqShift) & fillSeqMask, int(key & fillChunkMask)
}

// Host drives the machine through its Ethernet gateway chip.
type Host struct {
	eng    sim.Scheduler // the gateway chip's scheduling domain
	fab    *router.Fabric
	ctl    *boot.Controller
	cfg    Config
	origin topo.Coord

	// cmds is the append-only command table, indexed by seq-1. It grows
	// only from sequential context (no window in flight), so reads from
	// any shard during a run are safe. strip is the release cursor:
	// payload buffers of commands resolved before the current
	// sequential instant are freed (see register), so bulk loads do not
	// pin their images for the machine's lifetime.
	cmds  []*command
	strip int

	// Gateway-shard-owned accounting.
	inflight  int
	ethFreeAt sim.Time

	// Per-chip state, indexed by torus index; each entry is touched only
	// by its chip's owning shard.
	started []bool
	// fills holds every flood-fill command's per-chip state, in sequence
	// order.
	fills []*fillState

	// Convergecast tree for flood-fill acknowledgement aggregation,
	// rooted at the gateway: fillParent is each chip's one-hop uplink
	// (the p2p next-hop toward the gateway), fillChildren how many
	// aggregated acknowledgements the chip waits for before sending its
	// own. Computed once at attach; read-only from then on, so any shard
	// may consult it. Aggregation is what makes machine-wide completion
	// scale: every link carries exactly one acknowledgement per fill,
	// where per-chip acks converging on the gateway overflowed the
	// funnel links' queues at a thousand chips.
	fillParent   []topo.Dir
	fillChildren []int
	fillAlive    int
	// fillsUnresolved counts registered flood-fills not yet resolved;
	// the tree may only be rebuilt when it is zero (no chip still holds
	// per-fill state keyed to the old tree). Incremented in register
	// (sequential), decremented in complete (gateway shard) — both
	// ordered before any sequential read.
	fillsUnresolved int

	// PacketsSent counts packets injected on the machine side (p2p burst
	// packets and locally-injected flood chunks; flood forwards between
	// chips are fabric traffic, counted by the fabric).
	PacketsSent uint64
}

// New attaches a host to a booted machine's fabric. eng must be the
// scheduling domain of the gateway chip cfg.Origin, so that all host
// bookkeeping runs on the shard that owns the gateway.
func New(eng sim.Scheduler, fab *router.Fabric, ctl *boot.Controller, cfg Config) *Host {
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = 4
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.Redundancy <= 0 {
		cfg.Redundancy = 1
	}
	size := fab.Params().Torus.Size()
	h := &Host{
		eng: eng, fab: fab, ctl: ctl, cfg: cfg,
		origin:  cfg.Origin,
		started: make([]bool, size),
	}
	fab.OnDeliverP2P = h.onP2P
	// Flood-fill traffic shares the nn fabric with the boot protocol;
	// non-fill traffic is delegated to whatever handler (the boot
	// controller's) was installed first.
	prevNN := fab.OnNN
	fab.OnNN = func(n *router.Node, from topo.Dir, pkt packet.Packet) {
		switch {
		case pkt.Key&fillFlag == 0:
			if prevNN != nil {
				prevNN(n, from, pkt)
			}
		case pkt.Key&fillAckFlag != 0:
			h.fillAckArrive(n, pkt.Key, int(pkt.Payload))
		default:
			h.fillArrive(n, pkt.Key)
		}
	}
	h.rebuildFillTree()
	return h
}

// rebuildFillTree recomputes the flood-fill acknowledgement tree: a
// breadth-first tree rooted at the gateway over the alive chips,
// traversing only links healthy in both directions (chunks flow down,
// the ack flows up), so every chip's uplink is a usable direct
// neighbour strictly closer to the root. Acks therefore survive dead
// chips and failed links as long as the alive machine stays
// bidirectionally connected, and FillAlive — what completion certifies
// — is exactly the tree's span. Called at attach and again at fill
// registration whenever no fill is in flight, so the tree tracks link
// failures between bulk loads. Sequential context only: during a run
// every shard reads these arrays.
func (h *Host) rebuildFillTree() {
	torus := h.fab.Params().Torus
	size := torus.Size()
	h.fillParent = make([]topo.Dir, size)
	h.fillChildren = make([]int, size)
	h.fillAlive = 0
	visited := make([]bool, size)
	queue := []topo.Coord{h.origin}
	if h.ctl.Alive(h.origin) {
		visited[torus.Index(h.origin)] = true
		h.fillAlive = 1
	} else {
		queue = nil
	}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for d := topo.Dir(0); int(d) < topo.NumDirs; d++ {
			nb := torus.Neighbor(c, d)
			i := torus.Index(nb)
			if visited[i] || !h.ctl.Alive(nb) ||
				h.fab.LinkFailed(c, d) || h.fab.LinkFailed(nb, d.Opposite()) {
				continue
			}
			visited[i] = true
			h.fillAlive++
			h.fillParent[i] = d.Opposite()
			h.fillChildren[torus.Index(c)]++
			queue = append(queue, nb)
		}
	}
}

// FillAlive reports how many chips the flood-fill acknowledgement tree
// spans: the alive chips bidirectionally reachable from the gateway,
// which is what a completed FillMem certifies as covered.
func (h *Host) FillAlive() int { return h.fillAlive }

// ethTime is the Ethernet serialisation plus latency for n bytes.
func (h *Host) ethTime(n int) sim.Time {
	return h.cfg.EthLatency + sim.Time(float64(n)/h.cfg.EthBytesPerUS*float64(sim.Microsecond))
}

// ethChunkTime is the Ethernet serialisation time of one payload chunk
// of the given size — the pacing at which a command's packets enter the
// fabric. This must use the command's own chunk size: pacing a
// large-chunk stream at the small-chunk interval would inject fixed
// per-packet wire overhead faster than a slow board-to-board link can
// serialise it, overflowing its queue.
func (h *Host) ethChunkTime(bytes int) sim.Time {
	return sim.Time(float64(bytes) / h.cfg.EthBytesPerUS * float64(sim.Microsecond))
}

// register adds a command to the table. Sequential context only — no
// window is in flight, which is also the moment it is safe to release
// the payload buffers of already-resolved earlier commands: no shard
// can be reading them, and any straggler packet of a stripped command
// finds the mark and stores nothing.
func (h *Host) register(cmd *command) uint32 {
	h.StripResolved()
	if cmd.op == OpFill {
		if h.fillsUnresolved == 0 {
			// No chip holds state keyed to the old tree: re-route the
			// acknowledgement tree around links failed since last time.
			h.rebuildFillTree()
		}
		h.fillsUnresolved++
	}
	cmd.seq = uint32(len(h.cmds) + 1)
	if cmd.chunk <= 0 {
		cmd.chunk = h.cfg.ChunkBytes
	}
	cmd.remaining = 1 + cmd.chunks()
	if cmd.timeout <= 0 {
		cmd.timeout = h.cfg.Timeout
	}
	h.cmds = append(h.cmds, cmd)
	if cmd.op == OpFill {
		h.addFillState(cmd)
	}
	return cmd.seq
}

// StripResolved releases the payload buffers of commands resolved
// before the current sequential instant — no window is in flight, so no
// shard can be reading them, and a straggler packet of a stripped
// command finds the mark and stores nothing. Called on registration and
// after a batch completes, so bulk loads do not pin their images for
// the machine's lifetime.
func (h *Host) StripResolved() {
	for h.strip < len(h.cmds) && h.cmds[h.strip].resolved {
		c := h.cmds[h.strip]
		c.stripped = true
		c.data, c.result = nil, nil
		h.strip++
	}
}

// addFillState gives a registered fill command its per-chip state, and
// an unstripped one's payload its entry in the machine's Segments table.
// Sequential context only.
func (h *Host) addFillState(cmd *command) {
	cmd.fill = newFillState(cmd.seq, len(h.started), cmd.fillChunks())
	if !cmd.stripped {
		cmd.fill.seg = h.ctl.Segments().Add(cmd.addr, cmd.data)
	}
	h.fills = append(h.fills, cmd.fill)
}

// cmd resolves a sequence number against the table; nil for unknown.
func (h *Host) cmd(seq uint32) *command {
	if seq == 0 || int(seq) > len(h.cmds) {
		return nil
	}
	return h.cmds[seq-1]
}

// launch starts a registered command. The command header and payload
// chunks serialise over the single shared Ethernet pipe (ethFreeAt), and
// each chunk is injected into the fabric as it arrives at the gateway —
// streaming, so the fabric sees host traffic at Ethernet pace rather
// than as a burst, and a batch's commands pipeline on the wire while
// earlier commands' round trips are still in flight. The per-command
// deadline is an event on the gateway domain, so an expiry resolves in
// canonical event order like any completion. Gateway-shard context
// (sequential, or inside a gateway event).
func (h *Host) launch(cmd *command) {
	if !h.ctl.Alive(h.origin) {
		// The Ethernet attachment died with its gateway chip: there is
		// no pipe to serialise onto, so the command resolves here and
		// now with ErrUnreachable instead of hanging out its timeout.
		cmd.launched = true
		cmd.launchAt = h.eng.Now()
		cmd.unreachable = true
		h.inflight++
		h.complete(cmd)
		return
	}
	start := h.eng.Now()
	if h.ethFreeAt > start {
		start = h.ethFreeAt
	}
	hdr := h.ethTime(16)
	per := h.ethChunkTime(cmd.chunk)
	n := cmd.chunks()
	h.ethFreeAt = start + hdr + sim.Time(n)*per
	cmd.launched = true
	cmd.launchAt = start
	h.inflight++
	// The deadline event outlives normal resolution (it fires as a no-op
	// on a resolved command), so it is a described event: it is the one
	// piece of host work legally pending in a snapshot.
	h.eng.AtP(start+cmd.timeout, expireEv{h, cmd})
	if cmd.op != OpFill {
		h.eng.AtP(start+hdr, sim.Func(func() { h.injectBurst(cmd, -1) }))
	}
	if n > 0 {
		p := &chunkPump{h: h, cmd: cmd, first: start + hdr + per, per: per, seq: h.eng.Reserve(), n: n}
		for c := 1; c < n; c++ {
			h.eng.Reserve()
		}
		h.eng.AtReserved(p.first, p.seq, p)
	}
}

// chunkPump streams a command's payload chunks onto the fabric with one
// event pending at a time. Launch reserves every chunk's key, the
// consecutive keys scheduling them all at once would have drawn, and
// each chunk arms the next under its own: the order, the instants and
// the gateway's key count are those of one event a chunk, but a load no
// longer parks thousands of events in the gateway's queue. Like the
// closures it replaces it has no descriptor: a snapshot waits for host
// commands to finish.
type chunkPump struct {
	h          *Host
	cmd        *command
	first, per sim.Time // chunk c runs at first + c*per
	seq        uint64   // chunk c's key is seq + c
	next, n    int
}

func (p *chunkPump) Run() {
	c := p.next
	p.next++
	if p.next < p.n {
		p.h.eng.AtReserved(p.first+sim.Time(p.next)*p.per, p.seq+uint64(p.next), p)
	}
	p.h.injectBurst(p.cmd, c)
}

func (p *chunkPump) EventDesc() *sim.Desc { return nil }

// injectBurst puts one command packet onto the fabric at the gateway:
// chunk -1 is the burst header, others are payload chunks. Flood-fill
// chunks enter through the gateway chip's own flood handler, everything
// else as a p2p packet toward the target.
func (h *Host) injectBurst(cmd *command, chunk int) {
	h.PacketsSent++
	if cmd.op == OpFill {
		h.fillArrive(h.fab.Node(h.origin), fillKey(cmd.seq, chunk))
		return
	}
	h.fab.InjectP2P(h.origin, cmd.target, cmd.seq)
}

// expire resolves a command as lost when its deadline passes before the
// response (or the last flood acknowledgement) arrives. Only this
// command is affected — per-command timeout isolation: the engine keeps
// running, later packets of the expired command find it resolved at the
// gateway and are ignored, and every other in-flight command proceeds
// untouched. (The old sequential await loop instead froze the whole
// machine per command and aborted globally.)
func (h *Host) expire(cmd *command) {
	if cmd.resolved {
		return
	}
	cmd.timedOut = true
	if cmd.op == OpFill {
		// Report the partial coverage certified by deadline: the root's
		// aggregated subtree counts plus its own stored copy. Children
		// only acknowledge complete subtrees, so this is a lower bound on
		// the chips actually holding the payload. The root assembly is
		// gateway-chip state, owned by this (gateway) shard.
		root := h.fab.Params().Torus.Index(h.origin)
		if fs := cmd.fill; fs != nil && fs.flags[root]&fillTouched != 0 {
			cmd.chips = int(fs.subtree[root])
			if fs.chunksLeft[root] == 0 {
				cmd.chips++
			}
		}
	}
	h.complete(cmd)
}

// onP2P handles p2p deliveries machine-wide: command bursts arriving at
// their target chip's monitor, responses and flood acknowledgements
// arriving back at the gateway. Target-side handling touches only
// target-chip-owned state; gateway-side handling only gateway-owned
// state — never both in one branch, which is what keeps the handler
// race-free under parallel windows.
func (h *Host) onP2P(n *router.Node, pkt packet.Packet, _ sim.Time) {
	cmd := h.cmd(pkt.Key)
	if cmd == nil || cmd.op == OpFill {
		return // fills complete over the nn convergecast, not p2p
	}
	if n.Coord == h.origin && cmd.target != h.origin {
		// Response-stream packet back at the gateway. A stray response of
		// an expired command dies here, touching nothing.
		if cmd.resolved {
			return
		}
		if cmd.respRemaining == 0 {
			// The header arrives first and announces the stream length.
			// The result was fully written on the target before its first
			// response packet was injected, so the happens-before edge the
			// packet itself provides makes this read shard-safe.
			cmd.respRemaining = 1 + cmd.respChunks()
		}
		cmd.respRemaining--
		if cmd.respRemaining > 0 {
			return
		}
		// Whole stream received: forward over Ethernet and complete.
		h.eng.AfterP(h.ethTime(len(cmd.result)+4), sim.Func(func() { h.complete(cmd) }))
		return
	}
	if n.Coord != cmd.target {
		return
	}
	cmd.remaining--
	if cmd.remaining > 0 {
		return
	}
	// Whole burst received: the monitor executes the command. A very
	// late burst still executes — the monitor has no way to know the
	// host gave up — but its response is ignored at the gateway.
	resp := h.execute(cmd, n.Coord)
	if cmd.target == h.origin {
		// Local gateway command: only the Ethernet hop remains. (The
		// gateway is the target here, so reading resolution state is
		// shard-safe.)
		if cmd.resolved {
			return
		}
		h.eng.AfterP(h.ethTime(len(resp)+4), sim.Func(func() { h.complete(cmd) }))
		return
	}
	h.sendResponse(cmd)
}

// sendResponse streams the command's response from its target back to
// the gateway: one header packet immediately, then one packet per result
// chunk, paced like the outbound burst. This is the symmetric cost model
// the pricing audit demanded — a ReadMem response used to collapse into
// a single fabric packet regardless of size, making reads look free on
// the return path. Target-shard context; the delayed chunk injections
// are described events because they can outlive the command (a read
// whose deadline expires mid-stream leaves them pending).
func (h *Host) sendResponse(cmd *command) {
	h.fab.InjectP2P(cmd.target, h.origin, cmd.seq)
	per := h.ethChunkTime(cmd.chunk)
	dom := h.fab.DomainAt(cmd.target)
	for c := 0; c < cmd.respChunks(); c++ {
		dom.AfterP(sim.Time(c+1)*per, rchunkEv{h, cmd})
	}
}

// execute performs the command on the chip and returns read data. Runs
// on the target chip's shard; touches only that chip's state.
func (h *Host) execute(cmd *command, at topo.Coord) []byte {
	ch := h.ctl.Chip(at)
	switch cmd.op {
	case OpWrite:
		if cmd.stripped {
			cmd.failed = true // straggler of a long-resolved command: payload gone
		} else if err := ch.SDRAM.Store(cmd.addr, cmd.data); err != nil {
			cmd.failed = true
		}
	case OpRead:
		if data, ok := ch.SDRAM.Load(cmd.addr); ok {
			if cmd.length < len(data) {
				data = data[:cmd.length]
			}
			cmd.result = data
		} else {
			cmd.failed = true
		}
	case OpStart:
		h.started[h.fab.Params().Torus.Index(at)] = true
	}
	return cmd.result
}

// fillArrive handles one flood-fill chunk reaching a chip: record it,
// forward each of the first Config.Redundancy copies on all six links
// (like the boot image flood), and store the assembled payload when
// the last chunk lands. All mutable state here is owned by the chip's
// shard; the command's registered fields are immutable in flight.
func (h *Host) fillArrive(n *router.Node, key uint32) {
	seq, chunk := fillParts(key)
	cmd := h.cmd(seq)
	if cmd == nil || cmd.fill == nil || !h.ctl.Alive(n.Coord) {
		return
	}
	fs, idx := cmd.fill, n.Index()
	fs.flags[idx] |= fillTouched
	if chunk >= fs.chunks {
		return
	}
	copies := &fs.copies[idx*fs.chunks+chunk]
	if int(*copies) >= h.cfg.Redundancy {
		return // forward budget spent: absorbed, not re-forwarded
	}
	*copies++
	first := *copies == 1
	if first {
		fs.chunksLeft[idx]--
	}
	word := leadWord(cmd.data, chunk*cmd.chunk)
	for d := topo.Dir(0); int(d) < topo.NumDirs; d++ {
		h.fab.SendNN(n.Coord, d, packet.NewNN(key, word))
	}
	if first && fs.chunksLeft[idx] == 0 {
		// Store failures (SDRAM overflow) still acknowledge: the monitor
		// reports receipt; verification is the host's business. A
		// straggler completing after the command was stripped has no
		// payload left to store. Every chip stores the command's one
		// payload, registered in the machine's Segments table, rather
		// than a copy of it: a machine-size image load costs one image,
		// not n.
		if !cmd.stripped {
			_ = h.ctl.Chip(n.Coord).SDRAM.StoreShared(fs.seg)
		}
		h.fillMaybeAck(n, cmd)
	}
}

// fillAckArrive handles an aggregated acknowledgement reaching a chip
// from one of its convergecast children. Chip-shard context; an
// acknowledgement may reach a chip before any chunk does.
func (h *Host) fillAckArrive(n *router.Node, key uint32, count int) {
	seq, _ := fillParts(key)
	cmd := h.cmd(seq)
	if cmd == nil || cmd.fill == nil || !h.ctl.Alive(n.Coord) {
		return
	}
	fs, idx := cmd.fill, n.Index()
	fs.flags[idx] |= fillTouched
	fs.childAcks[idx]++
	fs.subtree[idx] += int32(count)
	h.fillMaybeAck(n, cmd)
}

// fillMaybeAck sends the chip's single aggregated acknowledgement — one
// hop up the tree, counting itself plus every descendant — once its own
// copy is stored and all children have reported. At the gateway root the
// count is the machine-wide coverage and completes the command (the
// root runs on the gateway shard, so touching command state is safe).
func (h *Host) fillMaybeAck(n *router.Node, cmd *command) {
	fs, idx := cmd.fill, n.Index()
	if fs.flags[idx]&fillAcked != 0 || fs.chunksLeft[idx] != 0 || int(fs.childAcks[idx]) < h.fillChildren[idx] {
		return
	}
	fs.flags[idx] |= fillAcked
	count := int(fs.subtree[idx]) + 1
	if n.Coord == h.origin {
		if cmd.resolved {
			return
		}
		cmd.chips = count
		h.eng.AfterP(h.ethTime(4), sim.Func(func() { h.complete(cmd) }))
		return
	}
	h.fab.SendNN(n.Coord, h.fillParent[idx], packet.NewNN(fillAckKey(cmd.seq), uint32(count)))
}

// leadWord packs the first four payload bytes at off for the nn wire.
func leadWord(data []byte, off int) uint32 {
	var w uint32
	for i := 0; i < 4 && off+i < len(data); i++ {
		w |= uint32(data[off+i]) << (8 * (3 - i))
	}
	return w
}

// complete retires the command and fires its batch's hook. Gateway
// shard only; idempotent, so a response racing the expiry event in the
// canonical order resolves exactly once.
func (h *Host) complete(cmd *command) {
	if cmd.resolved {
		return
	}
	cmd.resolved = true
	h.inflight--
	if cmd.op == OpFill {
		h.fillsUnresolved--
	}
	resp := Response{Seq: cmd.seq, Op: cmd.op, From: cmd.target,
		At: h.eng.Now(), RTT: h.eng.Now() - cmd.launchAt}
	switch {
	case cmd.unreachable:
		resp.Err = fmt.Errorf("%w: gateway chip %v is dead", ErrUnreachable, h.origin)
	case cmd.timedOut:
		resp.Err = fmt.Errorf("%w: %v command %d", ErrTimeout, cmd.op, cmd.seq)
		resp.Chips = cmd.chips
	case cmd.op == OpRead:
		if cmd.failed {
			resp.Err = fmt.Errorf("host: read from %v failed", cmd.target)
		} else {
			resp.Data = cmd.result
		}
	case cmd.op == OpWrite:
		if cmd.failed {
			resp.Err = fmt.Errorf("host: write to %v failed", cmd.target)
		}
	case cmd.op == OpFill:
		resp.Chips = cmd.chips
	}
	if cmd.done != nil {
		cmd.done(resp)
	}
}

// newFill builds a flood-fill command chunked at chunk bytes per packet
// (<=0 means the attachment default). Completion is the gateway root of
// the convergecast tree reporting full subtree coverage. A machine where
// no chip is reachable at all fails synchronously with ErrUnreachable;
// a partially reachable one lets the command expire, reporting the
// partial coverage in Response.Chips with ErrTimeout.
func (h *Host) newFill(addr uint32, data []byte, chunk int) (*command, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("host: empty flood-fill payload")
	}
	if chunk <= 0 {
		chunk = h.cfg.ChunkBytes
	}
	if h.fillsUnresolved == 0 {
		// No fill in flight: refresh the tree now so the reachability
		// verdict below reflects current link health. (register would
		// rebuild it again; the rebuild is idempotent.)
		h.rebuildFillTree()
	}
	if h.fillAlive == 0 {
		// Not even the gateway is reachable: launching would only burn
		// the timeout to certify zero coverage. Report it synchronously,
		// distinguishable from a timeout.
		return nil, fmt.Errorf("%w: flood-fill tree spans no chips", ErrUnreachable)
	}
	cmd := &command{op: OpFill, addr: addr, chunk: chunk,
		data: append([]byte(nil), data...)}
	if cmd.chunks() > MaxFillChunks {
		return nil, fmt.Errorf("host: flood-fill payload of %d bytes exceeds %d chunks of %d bytes",
			len(data), MaxFillChunks, chunk)
	}
	// The fill wire key carries the sequence in fillSeqMask bits; an
	// aliased sequence would resolve chips' chunks against the wrong
	// command, so refuse rather than corrupt.
	if next := uint32(len(h.cmds) + 1); next > fillSeqMask {
		return nil, fmt.Errorf("host: flood-fill sequence space exhausted after %d commands", len(h.cmds))
	}
	return cmd, nil
}

// Inflight reports launched commands awaiting resolution.
func (h *Host) Inflight() int { return h.inflight }
