package spinngo

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"spinngo/internal/sim"
	"spinngo/internal/topo"
)

// TestHostTimeoutStopsAtDeadline pins the await deadline fix: when the
// response is never coming and the only pending event lies far beyond
// the timeout (a long quiet gap), the link must report the loss with
// every shard clock at exactly the timeout instant — not execute the
// far event first and drag the whole machine past the deadline, which
// is what testing the clock after stepping used to do.
func TestHostTimeoutStopsAtDeadline(t *testing.T) {
	m := buildSmallMachine(t, MachineConfig{Width: 4, Height: 4, Seed: 9})
	defer m.Close()
	hl, err := m.AttachHost()
	if err != nil {
		t.Fatal(err)
	}
	// Sever the gateway chip: no command can leave (0,0), so no response
	// can ever arrive.
	for _, dir := range []string{"E", "NE", "N", "W", "SW", "S"} {
		if err := m.FailLink(0, 0, dir); err != nil {
			t.Fatal(err)
		}
	}
	// The next event after the command's debris drains: one lone tick
	// long after the timeout. The buggy loop executed it.
	start := m.pe.Now()
	far := start + 50*hostOpTimeout
	fired := false
	m.domAt(topo.Coord{X: 2, Y: 2}).AtP(far, sim.Func(func() { fired = true }))

	if _, err := hl.Ping(3, 3); err == nil {
		t.Fatal("ping through a severed gateway should time out")
	}
	if fired {
		t.Error("event beyond the deadline executed during a host wait")
	}
	if got := m.pe.Now() - start; got != hostOpTimeout {
		t.Errorf("clock advanced %v during the timed-out command, want exactly %v",
			got, hostOpTimeout)
	}
	// Every shard agrees (the clocks were re-synchronised), and the far
	// event is still pending for the next run phase.
	next, ok := nextEventAt(m.pe)
	if !ok || next != far {
		t.Errorf("pending event at %v, want the far tick at %v", next, far)
	}
}

// severChip cuts every link of chip (x, y).
func severChip(t *testing.T, m *Machine, x, y int) {
	t.Helper()
	for _, dir := range []string{"E", "NE", "N", "W", "SW", "S"} {
		if err := m.FailLink(x, y, dir); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchTimeoutIsolation pins per-command timeout isolation: in a
// batch where one target is unreachable, only that command expires —
// at its own deadline — while every other command completes, and stray
// state of the expired command cannot leak into host results. This is
// the batched generalisation of TestHostTimeoutStopsAtDeadline's
// single-command case.
func TestBatchTimeoutIsolation(t *testing.T) {
	m := buildSmallMachine(t, MachineConfig{Width: 4, Height: 4, Seed: 10, Workers: 4})
	defer m.Close()
	hl, err := m.AttachHost()
	if err != nil {
		t.Fatal(err)
	}
	// Island chip (3,3): commands to it can never complete.
	severChip(t, m, 3, 3)

	payload := []byte("survivor payload")
	p := hl.Batch(4).Timeout(10 * time.Millisecond)
	okWrite := p.WriteMem(1, 1, 0x100, payload)
	lost := p.Ping(3, 3)
	okPing := p.Ping(2, 2)
	okRead := p.ReadMem(1, 1, 0x100, len(payload))
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res[lost].Err == nil {
		t.Error("command to the severed chip did not time out")
	}
	for _, i := range []int{okWrite, okPing, okRead} {
		if res[i].Err != nil {
			t.Errorf("command %d failed alongside the timeout: %v", i, res[i].Err)
		}
	}
	if !bytes.Equal(res[okRead].Data, payload) {
		t.Errorf("read back %q, want %q — the timed-out command corrupted a neighbour", res[okRead].Data, payload)
	}
	// The expired command paid exactly its own deadline, not the global
	// one, and did not stall the batch: the survivors' round trips are
	// far shorter.
	if got := res[lost].RTTUS; got != (10*time.Millisecond).Seconds()*1e6 {
		t.Errorf("expired command RTT %v us, want exactly the 10ms deadline", got)
	}
	if res[okPing].RTTUS >= res[lost].RTTUS {
		t.Error("a surviving command waited out the lost command's deadline")
	}
	if m.host.Inflight() != 0 {
		t.Errorf("%d commands stuck in flight", m.host.Inflight())
	}
}

// TestBatchWindowOneMatchesSerial pins the strategy-equivalence
// contract the batch API rests on: a window-1 batch issues each command
// at the exact instant the previous one resolved — precisely what
// calling the synchronous single-command API in a loop does — so the
// two leave byte-identical machines behind, even though one drove the
// engine once and the other once per command.
func TestBatchWindowOneMatchesSerial(t *testing.T) {
	run := func(batched bool) (string, uint64) {
		m := buildSmallMachine(t, MachineConfig{Width: 4, Height: 4, Seed: 11, Workers: 4})
		defer m.Close()
		hl, err := m.AttachHost()
		if err != nil {
			t.Fatal(err)
		}
		payload := []byte("identical trajectories")
		var out string
		if batched {
			p := hl.Batch(1)
			p.WriteMem(2, 1, 0x200, payload)
			ri := p.ReadMem(2, 1, 0x200, len(payload))
			p.Ping(3, 3)
			res, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			out = fmt.Sprintf("%q", res[ri].Data)
		} else {
			if err := hl.WriteMem(2, 1, 0x200, payload); err != nil {
				t.Fatal(err)
			}
			data, err := hl.ReadMem(2, 1, 0x200, len(payload))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := hl.Ping(3, 3); err != nil {
				t.Fatal(err)
			}
			out = fmt.Sprintf("%q", data)
		}
		return fmt.Sprintf("%s now=%d pending=%d sent=%d", out,
			m.pe.Now(), m.pe.Pending(), m.host.PacketsSent), m.pe.Processed()
	}
	serial, serialEvents := run(false)
	batched, batchedEvents := run(true)
	if serial != batched || serialEvents != batchedEvents {
		t.Errorf("window-1 batch diverged from serial issue:\nserial:  %s (%d events)\nbatched: %s (%d events)",
			serial, serialEvents, batched, batchedEvents)
	}
}

// TestHostOriginConfigurable pins the satellite fix: the host attach
// chip is configuration, not a hardcoded (0,0), and moving it changes
// only round-trip times — the model's behaviour (spike rasters, boot
// shape) is byte-identical modulo RTT, because model time is measured
// from load completion wherever the gateway sits.
func TestHostOriginConfigurable(t *testing.T) {
	type outcome struct {
		raster string
		rtt    float64
		boot   BootReport
	}
	run := func(origin string) outcome {
		m, err := NewMachine(MachineConfig{Width: 4, Height: 4, Seed: 12, Workers: 2, HostOrigin: origin})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		br, err := m.Boot()
		if err != nil {
			t.Fatal(err)
		}
		hl, err := m.AttachHost()
		if err != nil {
			t.Fatal(err)
		}
		// RTT to a chip adjacent to (0,0) but far from (2,2).
		rtt, err := hl.Ping(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		model := NewModel()
		stim := model.AddPoisson("stim", 60, 200)
		exc := model.AddLIF("exc", 150, DefaultLIFConfig())
		if err := model.Connect(stim, exc, Conn{Rule: RandomRule, P: 0.2, WeightNA: 1.2, DelayMS: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Load(model); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(60); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		for _, s := range m.Spikes(exc) {
			fmt.Fprintf(&b, "%d@%d ", s.Neuron, s.TimeMS)
		}
		o := outcome{raster: b.String(), rtt: rtt, boot: *br}
		o.boot.LoadTimeMS = 0 // flood time legitimately varies with the gateway
		return o
	}
	def := run("")
	far := run("2,2")
	if def.raster != far.raster {
		t.Errorf("moving the host gateway changed the model:\n(0,0): %s\n(2,2): %s", def.raster, far.raster)
	}
	if def.boot != far.boot {
		t.Errorf("boot shape changed with the gateway: %+v vs %+v", def.boot, far.boot)
	}
	if def.rtt == far.rtt {
		t.Error("RTT identical from both gateways; the attach point is not being modelled")
	}
}

// TestHostOriginValidation: bad attach points are rejected up front.
func TestHostOriginValidation(t *testing.T) {
	for _, origin := range []string{"4,0", "0,4", "-1,0", "x", "1", "1,2,3", "1,2x"} {
		cfg := MachineConfig{Width: 4, Height: 4, HostOrigin: origin}
		if err := cfg.Validate(); err == nil {
			t.Errorf("HostOrigin %q accepted", origin)
		}
		if _, err := NewMachine(cfg); err == nil {
			t.Errorf("NewMachine accepted HostOrigin %q", origin)
		}
	}
	cfg := MachineConfig{Width: 4, Height: 4, HostOrigin: "3,2"}
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid HostOrigin rejected: %v", err)
	}
}

// TestFillMemReroutesAroundFailedLink: the acknowledgement tree is
// rebuilt over the live links at the next fill, so a link failure
// between bulk loads neither loses a subtree's acknowledgements nor
// fakes the coverage count.
func TestFillMemReroutesAroundFailedLink(t *testing.T) {
	m := buildSmallMachine(t, MachineConfig{Width: 4, Height: 4, Seed: 14, Workers: 2})
	defer m.Close()
	hl, err := m.AttachHost()
	if err != nil {
		t.Fatal(err)
	}
	// Cut several links around the gateway; the alive machine stays
	// connected, so the rebuilt tree must still span all 16 chips.
	for _, l := range []struct {
		x, y int
		d    string
	}{{0, 0, "E"}, {0, 0, "N"}, {1, 1, "NE"}} {
		if err := m.FailLink(l.x, l.y, l.d); err != nil {
			t.Fatal(err)
		}
	}
	payload := []byte("rerouted acknowledgements")
	chips, err := hl.FillMem(0x5400_0000, payload)
	if err != nil {
		t.Fatalf("fill after link failures: %v", err)
	}
	if chips != 16 {
		t.Errorf("fill acknowledged by %d chips, want 16 via rerouted tree", chips)
	}
	back, err := hl.ReadMem(2, 3, 0x5400_0000, len(payload))
	if err != nil || !bytes.Equal(back, payload) {
		t.Errorf("payload not delivered across the damaged fabric: %v", err)
	}
}

// TestFillMemBulkLoad: the flood-fill write loads every chip from one
// Ethernet transfer, in one engine transition, and the payload is
// readable back from an arbitrary chip.
func TestFillMemBulkLoad(t *testing.T) {
	m := buildSmallMachine(t, MachineConfig{Width: 4, Height: 4, Seed: 13, Workers: 4})
	defer m.Close()
	hl, err := m.AttachHost()
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("runtime-"), 64) // 512 B
	before := m.SimStats().HostTransitions
	chips, err := hl.FillMem(0x5100_0000, payload)
	if err != nil {
		t.Fatal(err)
	}
	if chips != 16 {
		t.Errorf("flood acknowledged by %d chips, want 16", chips)
	}
	if got := m.SimStats().HostTransitions - before; got != 1 {
		t.Errorf("machine-wide fill cost %d engine transitions, want 1", got)
	}
	back, err := hl.ReadMem(3, 2, 0x5100_0000, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, payload) {
		t.Error("flood payload not readable back from a far chip")
	}
}

// TestFillMemReleasesReplacedPayloads: every chip replaces a fill's
// segment with the next fill's at the same address, so after 50 fills of
// 4 KiB at one address the machine's segment table holds that one
// payload beside the system image, not 50, and a checkpoint's segment
// table grows by no more than the one payload across them.
func TestFillMemReleasesReplacedPayloads(t *testing.T) {
	const fills, size, addr = 50, 4 << 10, 0x5200_0000
	m := buildSmallMachine(t, MachineConfig{Width: 4, Height: 4, Seed: 13})
	defer m.Close()
	model := NewModel()
	stim := model.AddPoisson("stim", 4, 100)
	exc := model.AddLIF("exc", 8, DefaultLIFConfig())
	if err := model.Connect(stim, exc, Conn{Rule: AllToAllRule, WeightNA: 1, DelayMS: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	table := func() int {
		image, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		table, memory, _ := memoryCuts(t, m, image)
		return memory - table
	}
	segs := m.boot.Segments()
	booted, bootTable := segs.Bytes(), table()
	hl, err := m.AttachHost()
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, size)
	for i := 0; i < fills; i++ {
		payload[0] = byte(i + 1) // no two payloads alike
		if chips, err := hl.FillMem(addr, payload); err != nil || chips != 16 {
			t.Fatalf("fill %d reached %d chips: %v", i, chips, err)
		}
	}
	if got := segs.Bytes() - booted; got != size {
		t.Errorf("after %d fills of %d B at one address the segment table holds %d B beside the system image, want %d",
			fills, size, got, size)
	}
	if got := table() - bootTable; got > size+8 {
		t.Errorf("the image's segment table grew by %d B across the fills, want at most one payload and its entry header (%d B)", got, size+8)
	}
	back, err := hl.ReadMem(3, 2, addr, size)
	if err != nil || !bytes.Equal(back, payload) {
		t.Errorf("the last fill's payload not readable back: %v", err)
	}
}

// TestFillMemPartialCoverage pins the flood-fill coverage report: a fill
// whose acknowledgement tree was built while the whole machine was
// reachable, but whose chunks can no longer reach an islanded chip,
// resolves at its deadline with ErrHostTimeout — distinguishable with
// errors.Is from ErrHostUnreachable — and reports the coverage actually
// certified: at least the gateway's own copy, strictly fewer than all 16
// chips. The old path reported zero chips for any timed-out fill,
// indistinguishable from one that never left the host.
func TestFillMemPartialCoverage(t *testing.T) {
	m := buildSmallMachine(t, MachineConfig{Width: 4, Height: 4, Seed: 12, Workers: 4})
	defer m.Close()
	hl, err := m.AttachHost()
	if err != nil {
		t.Fatal(err)
	}
	// Register the fill first — the acknowledgement tree spans all 16
	// chips — then island (2,2) before any chunk moves.
	p := hl.Batch(1).Timeout(5 * time.Millisecond)
	fi := p.FillMem(0x2000, []byte("partial coverage payload"))
	severChip(t, m, 2, 2)
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := res[fi]
	if !errors.Is(r.Err, ErrHostTimeout) {
		t.Fatalf("islanded fill resolved with %v, want ErrHostTimeout", r.Err)
	}
	if errors.Is(r.Err, ErrHostUnreachable) {
		t.Error("timed-out fill also matches ErrHostUnreachable; the two must be distinguishable")
	}
	if r.Chips < 1 || r.Chips >= 16 {
		t.Errorf("timed-out fill certified %d chips, want partial coverage in [1,16)", r.Chips)
	}
	if m.host.Inflight() != 0 {
		t.Errorf("%d commands stuck in flight", m.host.Inflight())
	}
}

// TestHostLoadBatchWins pins what batching buys the host path — the
// paper's concern of feeding a massively-parallel fabric from a scalar
// front end: loading one 1 KiB block onto every chip of an 8x8 machine
// through Batch, or through one FillMem flood, costs at least 5x fewer
// engine stop/start transitions than one synchronous WriteMem per chip,
// at identical delivered bytes. Transitions are a deterministic
// property of the trajectory, so this is not a timing assertion.
func TestHostLoadBatchWins(t *testing.T) {
	const (
		side  = 8
		chips = side * side
		addr  = 0x5200_0000
	)
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	// measure boots a fresh machine, runs one load mode (which reports
	// how many chips took the block) and verifies delivery by reading
	// the far corner back.
	measure := func(mode string, load func(hl *HostLink) int) (transitions, windows uint64, bytesLoaded int) {
		t.Helper()
		m := buildSmallMachine(t, MachineConfig{Width: side, Height: side, Seed: 1, Workers: 4,
			Partition: PartitionBands, MaxAppCoresPerChip: 2})
		defer m.Close()
		hl, err := m.AttachHost()
		if err != nil {
			t.Fatal(err)
		}
		before := m.SimStats()
		loaded := load(hl)
		after := m.SimStats()
		back, err := hl.ReadMem(side-1, side-1, addr, len(payload))
		if err != nil {
			t.Fatalf("%s: verify read: %v", mode, err)
		}
		if !bytes.Equal(back, payload) {
			t.Errorf("%s: far-corner read-back differs from the payload", mode)
		}
		return after.HostTransitions - before.HostTransitions, after.Windows - before.Windows,
			loaded * len(payload)
	}

	serialT, serialW, serialB := measure("serial", func(hl *HostLink) int {
		for i := 0; i < chips; i++ {
			if err := hl.WriteMem(i%side, i/side, addr, payload); err != nil {
				t.Fatalf("serial write %d: %v", i, err)
			}
		}
		return chips
	})
	batchT, batchW, batchB := measure("batch", func(hl *HostLink) int {
		p := hl.Batch(8)
		for i := 0; i < chips; i++ {
			p.WriteMem(i%side, i/side, addr, payload)
		}
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("batched write %d: %v", i, r.Err)
			}
		}
		return len(res)
	})
	fillT, fillW, fillB := measure("fill", func(hl *HostLink) int {
		acked, err := hl.FillMem(addr, payload)
		if err != nil {
			t.Fatal(err)
		}
		if acked != chips {
			t.Fatalf("flood acknowledged by %d of %d chips", acked, chips)
		}
		return acked
	})

	if serialB != batchB || serialB != fillB {
		t.Fatalf("modes delivered different byte totals: serial=%d batch=%d fill=%d",
			serialB, batchB, fillB)
	}
	// 64 chips: the serial path pays a transition per command, the
	// batch one for the whole load.
	if serialT < chips {
		t.Errorf("serial load paid %d transitions; expected one per chip (>= %d)", serialT, chips)
	}
	if batchT*5 > serialT {
		t.Errorf("batched load paid %d transitions vs serial %d; want >= 5x fewer", batchT, serialT)
	}
	if fillT*5 > serialT {
		t.Errorf("flood-fill load paid %d transitions vs serial %d; want >= 5x fewer", fillT, serialT)
	}
	t.Logf("transitions per %d-byte load: serial=%d batch=%d fill=%d (windows %d/%d/%d)",
		serialB, serialT, batchT, fillT, serialW, batchW, fillW)
}
