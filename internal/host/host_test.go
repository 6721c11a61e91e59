package host

import (
	"bytes"
	"errors"
	"testing"

	"spinngo/internal/boot"
	"spinngo/internal/router"
	"spinngo/internal/sim"
	"spinngo/internal/topo"
)

// newFabric builds an unbooted w x h fabric.
func newFabric(t *testing.T, seed uint64, w, h int) (*sim.Engine, *router.Fabric) {
	t.Helper()
	eng := sim.New(seed)
	fab, err := router.NewFabric(eng, router.DefaultParams(w, h))
	if err != nil {
		t.Fatal(err)
	}
	return eng, fab
}

// bootedMachine brings up a w x h fabric with a completed boot.
func bootedMachine(t *testing.T, w, h int) (*sim.Engine, *router.Fabric, *boot.Controller) {
	t.Helper()
	eng, fab := newFabric(t, 1, w, h)
	ctl := boot.NewController(eng, fab, boot.DefaultConfig())
	ctl.Run()
	return eng, fab, ctl
}

// issue launches a batch and steps the engine until every command has
// resolved, returning the responses.
func issue(t *testing.T, eng *sim.Engine, b *Batch) []Response {
	t.Helper()
	b.Launch()
	for !b.Done() && eng.Step() {
	}
	if !b.Done() {
		t.Fatal("batch never completed")
	}
	return b.Responses()
}

func TestPingEveryChip(t *testing.T) {
	eng, fab, ctl := bootedMachine(t, 4, 4)
	h := New(eng, fab, ctl, DefaultConfig())
	b := h.NewBatch(16)
	for i := 0; i < 16; i++ {
		b.Ping(fab.Params().Torus.CoordOf(i))
	}
	got := map[topo.Coord]bool{}
	for _, r := range issue(t, eng, b) {
		if r.Err != nil {
			t.Errorf("ping %v: %v", r.From, r.Err)
		}
		got[r.From] = true
	}
	if len(got) != 16 {
		t.Errorf("pinged %d chips, want 16", len(got))
	}
	if h.Inflight() != 0 {
		t.Errorf("%d commands stuck in flight", h.Inflight())
	}
}

func TestWriteThenReadBack(t *testing.T) {
	eng, fab, ctl := bootedMachine(t, 4, 4)
	h := New(eng, fab, ctl, DefaultConfig())
	target := topo.Coord{X: 3, Y: 2}
	payload := []byte("synaptic data block for core 7")

	// Window 1: the read launches when the write resolves.
	b := h.NewBatch(1)
	b.WriteMem(target, 0x7000_0000, payload)
	b.ReadMem(target, 0x7000_0000, len(payload))
	resp := issue(t, eng, b)
	for _, r := range resp {
		if r.Err != nil {
			t.Errorf("%v: %v", r.Op, r.Err)
		}
	}
	if read := resp[1].Data; !bytes.Equal(read, payload) {
		t.Errorf("read back %q, want %q", read, payload)
	}
	// The data must actually live in the target chip's SDRAM.
	stored, ok := ctl.Chip(target).SDRAM.Load(0x7000_0000)
	if !ok || !bytes.Equal(stored, payload) {
		t.Error("payload not present in target SDRAM")
	}
}

func TestReadMissingAddressFails(t *testing.T) {
	eng, fab, ctl := bootedMachine(t, 2, 2)
	h := New(eng, fab, ctl, DefaultConfig())
	b := h.NewBatch(1)
	b.ReadMem(topo.Coord{X: 1, Y: 1}, 0xdead0000, 16)
	if issue(t, eng, b)[0].Err == nil {
		t.Error("read of unwritten address succeeded")
	}
}

func TestStartSignal(t *testing.T) {
	eng, fab, ctl := bootedMachine(t, 3, 3)
	h := New(eng, fab, ctl, DefaultConfig())
	target := topo.Coord{X: 2, Y: 2}
	b := h.NewBatch(1)
	b.Start(target)
	if issue(t, eng, b)[0].Err != nil || !h.Started(target) {
		t.Error("start signal not delivered")
	}
	if h.Started(topo.Coord{X: 0, Y: 1}) {
		t.Error("unrelated chip marked started")
	}
}

func TestCommandToOriginItself(t *testing.T) {
	eng, fab, ctl := bootedMachine(t, 2, 2)
	h := New(eng, fab, ctl, DefaultConfig())
	b := h.NewBatch(1)
	b.Ping(topo.Coord{X: 0, Y: 0})
	if r := issue(t, eng, b)[0]; r.Err != nil {
		t.Errorf("self-ping of the gateway: %v", r.Err)
	}
}

func TestLatencyGrowsWithDistanceButEthernetDominates(t *testing.T) {
	eng, fab, ctl := bootedMachine(t, 8, 8)
	h := New(eng, fab, ctl, DefaultConfig())
	b := h.NewBatch(1)
	b.Ping(topo.Coord{X: 1, Y: 0})
	b.Ping(topo.Coord{X: 4, Y: 4})
	resp := issue(t, eng, b)
	near, far := resp[0].RTT, resp[1].RTT
	if far <= 0 || near <= 0 {
		t.Fatal("pings missing")
	}
	// Both should be dominated by the two Ethernet hops (~100 us), with
	// the fabric contributing microseconds.
	if far > 2*near+sim.Millisecond {
		t.Errorf("far ping %v wildly slower than near %v", far, near)
	}
}

func TestBurstAccounting(t *testing.T) {
	eng, fab, ctl := bootedMachine(t, 2, 2)
	h := New(eng, fab, ctl, DefaultConfig())
	b := h.NewBatch(1)
	b.WriteMem(topo.Coord{X: 1, Y: 0}, 0x100, make([]byte, 64))
	issue(t, eng, b)
	// 1 header + 16 data words.
	if h.PacketsSent != 17 {
		t.Errorf("packets sent = %d, want 17", h.PacketsSent)
	}
}

// TestChunkPumpKeepsQueueShallow: a command's payload chunks are pumped
// one pending event at a time, so a long write never parks its chunks in
// the queue, and every chunk still goes out.
func TestChunkPumpKeepsQueueShallow(t *testing.T) {
	eng, fab, ctl := bootedMachine(t, 2, 2)
	h := New(eng, fab, ctl, DefaultConfig())
	b := h.NewBatch(1)
	b.WriteMem(topo.Coord{X: 1, Y: 1}, 0x100, make([]byte, 4096))
	b.Launch()
	deepest := eng.Pending()
	for !b.Done() && eng.Step() {
		deepest = max(deepest, eng.Pending())
	}
	if !b.Done() || h.PacketsSent != 1+1024 {
		t.Fatalf("done %v after %d packets; want 1 header and 1024 chunks", b.Done(), h.PacketsSent)
	}
	if deepest > 32 {
		t.Errorf("%d events pending at once during a 1024-chunk write; want the chunks pumped one at a time", deepest)
	}
}

func TestFillMemReachesEveryChip(t *testing.T) {
	eng, fab, ctl := bootedMachine(t, 4, 4)
	h := New(eng, fab, ctl, DefaultConfig())
	payload := []byte("common runtime image, one Ethernet transfer")
	b := h.NewBatch(1)
	if _, err := b.FillMem(0x5000_0000, payload); err != nil {
		t.Fatal(err)
	}
	resp := issue(t, eng, b)[0]
	if resp.Err != nil {
		t.Fatalf("fill failed: %v", resp.Err)
	}
	if resp.Chips != 16 {
		t.Errorf("fill acknowledged by %d chips, want 16", resp.Chips)
	}
	for i := 0; i < 16; i++ {
		c := fab.Params().Torus.CoordOf(i)
		data, ok := ctl.Chip(c).SDRAM.Load(0x5000_0000)
		if !ok || !bytes.Equal(data, payload) {
			t.Errorf("chip %v missing or corrupt flood payload", c)
		}
	}
	if h.Inflight() != 0 {
		t.Errorf("%d commands stuck in flight", h.Inflight())
	}
}

// TestFillMemSurvivesDeadChip: the convergecast tree is built over the
// alive chips, so a dead chip in the middle of the machine neither
// swallows its neighbours' acknowledgements nor inflates the coverage
// count.
func TestFillMemSurvivesDeadChip(t *testing.T) {
	eng, fab := newFabric(t, 1, 4, 4)
	cfg := boot.DefaultConfig()
	cfg.HardDeadChips = map[topo.Coord]bool{{X: 1, Y: 1}: true}
	ctl := boot.NewController(eng, fab, cfg)
	ctl.Run()
	h := New(eng, fab, ctl, DefaultConfig())
	if got := h.FillAlive(); got != 15 {
		t.Fatalf("ack tree spans %d chips, want 15 (one hard-dead)", got)
	}
	payload := []byte("routes around the corpse")
	b := h.NewBatch(1)
	if _, err := b.FillMem(0x5300_0000, payload); err != nil {
		t.Fatal(err)
	}
	resp := issue(t, eng, b)[0]
	if resp.Err != nil {
		t.Fatalf("fill on a machine with a dead chip failed: %v", resp.Err)
	}
	if resp.Chips != 15 {
		t.Errorf("fill acknowledged by %d chips, want exactly the 15 alive", resp.Chips)
	}
	for i := 0; i < 16; i++ {
		c := fab.Params().Torus.CoordOf(i)
		data, ok := ctl.Chip(c).SDRAM.Load(0x5300_0000)
		if c == (topo.Coord{X: 1, Y: 1}) {
			if ok {
				t.Error("dead chip stored the flood payload")
			}
			continue
		}
		if !ok || !bytes.Equal(data, payload) {
			t.Errorf("alive chip %v missing flood payload", c)
		}
	}
}

func TestFillMemRejectsBadPayloads(t *testing.T) {
	eng, fab, ctl := bootedMachine(t, 2, 2)
	h := New(eng, fab, ctl, DefaultConfig())
	b := h.NewBatch(1)
	if _, err := b.FillMem(0x100, nil); err == nil {
		t.Error("empty flood payload accepted")
	}
	// ChunkBytes=4 bounds a fill at MaxFillChunks words.
	if _, err := b.FillMem(0x100, make([]byte, (MaxFillChunks+1)*4)); err == nil {
		t.Error("oversized flood payload accepted")
	}
}

// TestBatchPipelinesCommands: a windowed batch overlaps command round
// trips — total elapsed time is far below the sum of individual RTTs —
// while every command still completes correctly.
func TestBatchPipelinesCommands(t *testing.T) {
	eng, fab, ctl := bootedMachine(t, 4, 4)
	h := New(eng, fab, ctl, DefaultConfig())

	// Serial floor: one ping at a time pays at least two Ethernet
	// latencies per command.
	serialElapsed := 8 * 2 * DefaultConfig().EthLatency

	b := h.NewBatch(8)
	for i := 0; i < 8; i++ {
		b.Ping(fab.Params().Torus.CoordOf(i))
	}
	b.Launch()
	batchStart := eng.Now()
	for !b.Done() && eng.Step() {
	}
	batchElapsed := eng.Now() - batchStart
	if !b.Done() {
		t.Fatal("batch never completed")
	}
	for i, r := range b.Responses() {
		if r.Err != nil {
			t.Errorf("command %d: %v", i, r.Err)
		}
	}
	if batchElapsed >= serialElapsed {
		t.Errorf("windowed batch took %v, serial floor is %v — no pipelining happened",
			batchElapsed, serialElapsed)
	}
}

// TestBatchWindowLimitsInflight: a window of 2 never has more than two
// commands outstanding, and completions launch the queue in order.
func TestBatchWindowLimitsInflight(t *testing.T) {
	eng, fab, ctl := bootedMachine(t, 4, 4)
	h := New(eng, fab, ctl, DefaultConfig())
	b := h.NewBatch(2)
	for i := 0; i < 6; i++ {
		b.Ping(fab.Params().Torus.CoordOf(i))
	}
	b.Launch()
	maxInflight := h.Inflight()
	for !b.Done() && eng.Step() {
		if h.Inflight() > maxInflight {
			maxInflight = h.Inflight()
		}
	}
	if !b.Done() {
		t.Fatal("batch never completed")
	}
	if maxInflight != 2 {
		t.Errorf("max inflight = %d, want exactly the window of 2", maxInflight)
	}
	var prev sim.Time
	for i, r := range b.Responses() {
		if r.At < prev {
			t.Errorf("command %d completed at %v, before its predecessor at %v", i, r.At, prev)
		}
		prev = r.At
	}
}

func TestAccessorsAndBounds(t *testing.T) {
	eng, fab, ctl := bootedMachine(t, 2, 2)
	cfg := DefaultConfig()
	cfg.Origin = topo.Coord{X: 1, Y: 1}
	h := New(eng, fab, ctl, cfg)
	if h.Origin() != cfg.Origin {
		t.Errorf("Origin() = %v, want %v", h.Origin(), cfg.Origin)
	}
	// Unknown sequence numbers (stray packets of a previous attachment)
	// resolve to nothing.
	if h.cmd(0) != nil || h.cmd(99) != nil {
		t.Error("out-of-range sequence numbers resolved to commands")
	}
	for op, want := range map[Op]string{OpPing: "ping", OpWrite: "write",
		OpRead: "read", OpStart: "start", OpFill: "fill", Op(9): "op(9)"} {
		if op.String() != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, op.String(), want)
		}
	}
	// A sub-1 window clamps to 1; batch bookkeeping accessors agree.
	b := h.NewBatch(0)
	b.SetTimeout(3 * sim.Millisecond)
	b.Ping(topo.Coord{X: 0, Y: 0})
	b.Ping(topo.Coord{X: 1, Y: 0})
	if b.Len() != 2 || b.Resolved() != 0 || b.Done() {
		t.Errorf("pre-launch batch state: len=%d resolved=%d done=%v", b.Len(), b.Resolved(), b.Done())
	}
	if b.Timeout() != 3*sim.Millisecond {
		t.Errorf("Timeout() = %v, want the 3ms override", b.Timeout())
	}
	// An invalid fill is refused without joining the batch.
	if _, err := b.FillMem(0x10, nil); err == nil {
		t.Error("batched empty flood payload accepted")
	}
	b.Launch()
	for !b.Done() && eng.Step() {
	}
	if !b.Done() || b.Resolved() != 2 {
		t.Errorf("post-run batch state: resolved=%d done=%v", b.Resolved(), b.Done())
	}
}

func TestStartedTracksPerChip(t *testing.T) {
	eng, fab, ctl := bootedMachine(t, 3, 3)
	h := New(eng, fab, ctl, DefaultConfig())
	b := h.NewBatch(4)
	b.Start(topo.Coord{X: 1, Y: 2})
	b.Start(topo.Coord{X: 2, Y: 0})
	b.Launch()
	eng.Run()
	if !h.Started(topo.Coord{X: 1, Y: 2}) || !h.Started(topo.Coord{X: 2, Y: 0}) {
		t.Error("batched start signals not recorded")
	}
	if h.Started(topo.Coord{X: 0, Y: 0}) {
		t.Error("unrelated chip marked started")
	}
}

// TestReadMemChunkSymmetry pins the host-path pricing fix: a ReadMem of
// N bytes is the exact mirror image of a WriteMem of N bytes on the
// fabric. The write streams its payload toward the target chunk by
// chunk and gets a one-packet acknowledgement back; the read sends a
// one-packet request and streams the same number of response chunks
// back through the same Ethernet pipe. The old response path returned
// the whole read in a single packet — bulk reads travelled the fabric
// essentially for free, and read-heavy host traffic was priced
// asymmetrically to write-heavy traffic.
func TestReadMemChunkSymmetry(t *testing.T) {
	eng, fab, ctl := bootedMachine(t, 4, 4)
	h := New(eng, fab, ctl, DefaultConfig())
	target := topo.Coord{X: 2, Y: 1}
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	chunks := uint64((len(payload) + DefaultConfig().ChunkBytes - 1) / DefaultConfig().ChunkBytes)

	s0, d0 := h.PacketsSent, fab.DeliveredP2P()
	b := h.NewBatch(1)
	b.WriteMem(target, 0x900, payload)
	if wr := issue(t, eng, b)[0]; wr.Err != nil {
		t.Fatalf("write: %v", wr.Err)
	}
	s1, d1 := h.PacketsSent, fab.DeliveredP2P()
	writeOut, writeBack := s1-s0, (d1-d0)-(s1-s0)

	b = h.NewBatch(1)
	b.ReadMem(target, 0x900, len(payload))
	rd := issue(t, eng, b)[0]
	if rd.Err != nil {
		t.Fatalf("read: %v", rd.Err)
	}
	if !bytes.Equal(rd.Data, payload) {
		t.Fatalf("read returned %d bytes, want the %d written", len(rd.Data), len(payload))
	}
	s2, d2 := h.PacketsSent, fab.DeliveredP2P()
	readOut, readBack := s2-s1, (d2-d1)-(s2-s1)

	// The write: header + payload chunks out, one acknowledgement back.
	if writeOut != 1+chunks || writeBack != 1 {
		t.Errorf("write of %d bytes: %d packets out / %d back, want %d / 1",
			len(payload), writeOut, writeBack, 1+chunks)
	}
	// The read mirrors it exactly, direction by direction.
	if readOut != writeBack || readBack != writeOut {
		t.Errorf("read of %d bytes: %d packets out / %d back, want the write mirrored (%d / %d)",
			len(payload), readOut, readBack, writeBack, writeOut)
	}
}

// TestFillMemUnreachableOrigin pins the timed-out/unreachable
// distinction: a flood fill whose gateway chip is dead cannot reach any
// chip, and the host reports that synchronously with ErrUnreachable —
// before anything launches, without burning the 100 ms deadline. (A fill
// that reaches some chips but not all resolves by deadline with
// ErrTimeout and its partial coverage instead.)
func TestFillMemUnreachableOrigin(t *testing.T) {
	eng, fab := newFabric(t, 1, 4, 4)
	cfg := boot.DefaultConfig()
	cfg.HardDeadChips = map[topo.Coord]bool{{X: 2, Y: 2}: true}
	ctl := boot.NewController(eng, fab, cfg)
	ctl.Run()
	hcfg := DefaultConfig()
	hcfg.Origin = topo.Coord{X: 2, Y: 2}
	h := New(eng, fab, ctl, hcfg)
	if got := h.FillAlive(); got != 0 {
		t.Fatalf("ack tree from a dead gateway spans %d chips, want 0", got)
	}
	start := eng.Now()
	_, err := h.NewBatch(1).FillMem(0x100, []byte("never arrives"))
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("fill from a dead gateway returned %v, want ErrUnreachable", err)
	}
	if eng.Now() != start {
		t.Errorf("unreachable fill burned %v of simulated time, want 0", eng.Now()-start)
	}
}

// imageLoad is one flood fill of the boot image: the per-block
// responses, the time from launch to the last acknowledgement, and the
// link traversals the fill cost once its redundant forwards drained.
type imageLoad struct {
	resp       []Response
	time       sim.Time
	traversals uint64
}

// loadImage boots fab under cfg and flood-fills the boot image's blocks
// from (0,0) the way Machine.Boot does: one window-8 batch of 32-byte
// chunks.
func loadImage(t *testing.T, eng *sim.Engine, fab *router.Fabric, cfg boot.Config, redundancy int) (*boot.Controller, imageLoad) {
	t.Helper()
	ctl := boot.NewController(eng, fab, cfg)
	ctl.Run()
	hcfg := DefaultConfig()
	hcfg.Redundancy = redundancy
	h := New(eng, fab, ctl, hcfg)
	b := h.NewBatch(8)
	b.SetChunk(32)
	for blk := 0; blk < cfg.ImageBlocks; blk++ {
		if _, err := b.FillMem(boot.BlockAddr(uint32(blk)), boot.BlockContent(uint32(blk), cfg.BlockBytes)); err != nil {
			t.Fatal(err)
		}
	}
	start, before := eng.Now(), fab.LinkTraversals()
	load := imageLoad{resp: issue(t, eng, b)}
	for _, r := range load.resp {
		if r.Err != nil {
			t.Fatalf("image block: %v", r.Err)
		}
		load.time = max(load.time, r.At-start)
	}
	eng.Run()
	load.traversals = fab.LinkTraversals() - before
	return ctl, load
}

// TestImageIntegrityEverywhere: every chip, the one its neighbours
// rescued at boot included, ends the image fill holding every block
// intact.
func TestImageIntegrityEverywhere(t *testing.T) {
	eng, fab := newFabric(t, 1, 5, 5)
	cfg := boot.DefaultConfig()
	rescued := topo.Coord{X: 2, Y: 2}
	cfg.DeadChips = map[topo.Coord]bool{rescued: true}
	ctl, load := loadImage(t, eng, fab, cfg, 1)
	if !ctl.Rescued(rescued) {
		t.Fatal("the dead chip was not rescued")
	}
	for blk, r := range load.resp {
		if r.Chips != 25 {
			t.Errorf("block %d acknowledged by %d chips, want 25", blk, r.Chips)
		}
	}
	for i := 0; i < 25; i++ {
		if err := ctl.VerifyImage(fab.Params().Torus.CoordOf(i)); err != nil {
			t.Error(err)
		}
	}
}

// TestLoadTimeNearlyIndependentOfMachineSize is E9's headline: 12x12 has
// 9x the chips of 4x4, and its image loads in little more time (the
// flood's pipeline depth), far below 9x.
func TestLoadTimeNearlyIndependentOfMachineSize(t *testing.T) {
	loadTime := func(w, h int) sim.Time {
		eng, fab := newFabric(t, 1, w, h)
		_, load := loadImage(t, eng, fab, boot.DefaultConfig(), 1)
		return load.time
	}
	small, large := loadTime(4, 4), loadTime(12, 12)
	if ratio := float64(large) / float64(small); ratio > 2.5 {
		t.Errorf("load time grew %.2fx from 4x4 to 12x12; paper says almost independent", ratio)
	}
}

// TestRedundancyCostsTraffic: the paper's trade-off — more copies per
// chunk buy fault tolerance at the price of flood traffic.
func TestRedundancyCostsTraffic(t *testing.T) {
	traffic := func(r int) uint64 {
		eng, fab := newFabric(t, 1, 6, 6)
		_, load := loadImage(t, eng, fab, boot.DefaultConfig(), r)
		return load.traversals
	}
	if p1, p3 := traffic(1), traffic(3); p3 <= p1 {
		t.Errorf("redundancy 3 traffic (%d) not above redundancy 1 (%d)", p3, p1)
	}
}

// TestRedundancySurvivesLinkFailures: the trade-off's other side — with
// failed links, a redundant flood still reaches every chip.
func TestRedundancySurvivesLinkFailures(t *testing.T) {
	eng, fab := newFabric(t, 3, 6, 6)
	fab.FailLinkPair(topo.Coord{X: 1, Y: 1}, topo.East)
	fab.FailLinkPair(topo.Coord{X: 2, Y: 3}, topo.North)
	fab.FailLinkPair(topo.Coord{X: 4, Y: 4}, topo.NorthEast)
	_, load := loadImage(t, eng, fab, boot.DefaultConfig(), 2)
	for blk, r := range load.resp {
		if r.Chips != 36 {
			t.Errorf("block %d acknowledged by %d/36 chips with failed links at redundancy 2", blk, r.Chips)
		}
	}
}

// Started reports whether the chip has received a start signal.
func (h *Host) Started(at topo.Coord) bool {
	return h.started[h.fab.Params().Torus.Index(at)]
}

// Origin reports the gateway chip.
func (h *Host) Origin() topo.Coord { return h.origin }
