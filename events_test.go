package spinngo

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"spinngo/internal/chip"
	"spinngo/internal/host"
	"spinngo/internal/kernel"
	"spinngo/internal/packet"
	"spinngo/internal/router"
	"spinngo/internal/sim"
	"spinngo/internal/topo"
)

// The kind table (Machine.eventKinds) is the single source of event
// kinds: every pending event a machine can hold must decode through it
// into a payload that describes itself exactly as recorded — that is
// what makes a restored machine re-snapshot byte-identically — and no
// malformed record may get past a constructor, let alone panic in one.

func descEqual(a, b *sim.Desc) bool {
	return a != nil && a.Kind == b.Kind && slices.Equal(a.Args, b.Args) && bytes.Equal(a.Blob, b.Blob)
}

// kindSamples collects one valid record per kind while checking every
// pending event of a machine against the table.
type kindSamples map[string]sim.EventRecord

// check decodes every pending event of m through m's kind table and
// asserts the rebuilt payload's descriptor equals the recorded one.
// Decoding on the live machine is harmless: the cached payloads it
// re-arms (timers, DMA completions, drains) are set to the values they
// already hold. Completions are settled first, as Snapshot does, so the
// export holds every event an image taken here would.
func (s kindSamples) check(t *testing.T, m *Machine) {
	t.Helper()
	m.syncCompletions()
	recs, err := m.pe.ExportEvents()
	if err != nil {
		t.Fatal(err)
	}
	kinds := m.eventKinds()
	for i := range recs {
		rec := &recs[i]
		build, ok := kinds[rec.Desc.Kind]
		if !ok {
			t.Fatalf("pending event of kind %q is not in the kind table", rec.Desc.Kind)
		}
		ev, err := build(rec)
		if err != nil {
			t.Fatalf("%s %v: %v", rec.Desc.Kind, rec.Desc.Args, err)
		}
		if got := ev.EventDesc(); !descEqual(got, &rec.Desc) {
			t.Fatalf("%s decoded to a payload describing itself as %+v, recorded %+v", rec.Desc.Kind, got, rec.Desc)
		}
		if _, have := s[rec.Desc.Kind]; !have {
			s[rec.Desc.Kind] = *rec
		}
	}
}

// nextEventAt reports the earliest pending timestamp across pe's shards.
func nextEventAt(pe *sim.ParallelEngine) (sim.Time, bool) {
	next, found := sim.Forever, false
	for i := 0; i < pe.Shards(); i++ {
		if t, ok := pe.Shard(i).NextAt(); ok && t < next {
			next, found = t, true
		}
	}
	return next, found
}

// walk advances m one event instant at a time for span, checking the
// pending set after each: every event is pending right after the instant
// that scheduled it, so no kind occurring in the span escapes.
func (s kindSamples) walk(t *testing.T, m *Machine, span sim.Time) {
	t.Helper()
	end := m.pe.Now() + span
	for {
		next, ok := nextEventAt(m.pe)
		if !ok || next > end {
			break
		}
		m.pe.RunUntil(next)
		s.check(t, m)
	}
	m.pe.RunUntil(end)
}

func TestEventKindsTable(t *testing.T) {
	samples := kindSamples{}

	// Plastic cell: the snapshot reference workload. Fresh from Load every
	// unit's start event is pending; at 40 ms a spike injection and a
	// migration watchdog are; walking on through the watchdog (45 ms) and
	// the injection (55 ms) passes every kernel, DMA, migration and
	// multicast-route kind.
	plastic := snapPrepare(t, 17, 1, PartitionBands, false)
	defer plastic.Close()
	samples.check(t, plastic)
	samples.walk(t, plastic, 16*sim.Millisecond)
	fresh, err := NewMachine(MachineConfig{Width: 2, Height: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := fresh.Boot(); err != nil {
		t.Fatal(err)
	}
	model := NewModel()
	model.AddLIF("exc", 8, DefaultLIFConfig())
	if _, err := fresh.Load(model); err != nil {
		t.Fatal(err)
	}
	samples.check(t, fresh)

	// The fabric's congestion kinds, provoked directly at a quiescent
	// instant: two same-instant p2p packets contend for one link (the
	// second waits behind the drain event), a p2p packet bound for a dead
	// link retries, and a recovered packet re-enters through fab.fwd.
	fab := plastic.fab
	fab.InjectP2P(topo.Coord{X: 0, Y: 0}, topo.Coord{X: 1, Y: 0}, 0xFFFFFF)
	fab.InjectP2P(topo.Coord{X: 0, Y: 0}, topo.Coord{X: 1, Y: 0}, 0xFFFFFF)
	fab.FailLink(topo.Coord{X: 2, Y: 2}, topo.East)
	fab.InjectP2P(topo.Coord{X: 2, Y: 2}, topo.Coord{X: 3, Y: 2}, 0xFFFFFF)
	n := fab.Node(topo.Coord{X: 1, Y: 3})
	if !n.Reinject(router.DroppedPacket{Pkt: packet.NewMC(1), Dir: topo.North}) {
		t.Fatal("Reinject did not re-issue the planted packet")
	}
	samples.check(t, plastic)
	samples.walk(t, plastic, 10*sim.Microsecond)

	// Campaign cell: one scripted fault of each kind, pending.
	if err := fresh.ScheduleFailLink(5, 0, 0, "E"); err != nil {
		t.Fatal(err)
	}
	if err := fresh.ScheduleRepairLink(7, 0, 0, "E"); err != nil {
		t.Fatal(err)
	}
	if err := fresh.ScheduleFailChip(9, 1, 1); err != nil {
		t.Fatal(err)
	}
	samples.check(t, fresh)

	// Host-debris cell: resolved commands' deadlines and the chunk stream
	// of a read that expired mid-response, walked until the stream's
	// packets have entered the fabric.
	debris := hostDebrisPrepare(t, 31, 1, PartitionBands)
	defer debris.Close()
	samples.check(t, debris)
	samples.walk(t, debris, 50*sim.Microsecond)

	kinds := plastic.eventKinds()
	var missing []string
	for kind := range kinds {
		if _, ok := samples[kind]; !ok {
			missing = append(missing, kind)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Fatalf("no pending event of kind %v was exercised; extend the cells above", missing)
	}

	// Error rows. A record is rejected — never a panic — when its
	// argument count is off by one in either direction (every kind, from
	// its valid sample) and for each specific out-of-range field below.
	type row struct {
		name string
		m    *Machine
		rec  sim.EventRecord
	}
	var rows []row
	machineOf := func(kind string) *Machine {
		switch {
		case strings.HasPrefix(kind, "host."):
			return debris
		case strings.HasPrefix(kind, "campaign."):
			return fresh
		}
		return plastic
	}
	for kind, rec := range samples {
		long, short := rec, rec
		long.Desc.Args = append(slices.Clone(rec.Desc.Args), 0)
		rows = append(rows, row{kind + " with an extra arg", machineOf(kind), long})
		if len(rec.Desc.Args) > 0 {
			short.Desc.Args = rec.Desc.Args[:len(rec.Desc.Args)-1]
			rows = append(rows, row{kind + " with an arg missing", machineOf(kind), short})
		}
	}
	mutate := func(kind, name string, f func(rec *sim.EventRecord)) {
		rec := samples[kind]
		rec.Desc.Args = slices.Clone(rec.Desc.Args)
		rec.Desc.Blob = slices.Clone(rec.Desc.Blob)
		f(&rec)
		rows = append(rows, row{kind + " " + name, machineOf(kind), rec})
	}
	arg := func(i int, v uint64) func(*sim.EventRecord) {
		return func(rec *sim.EventRecord) { rec.Desc.Args[i] = v }
	}
	for _, kind := range []string{kernel.KindTimer, kernel.KindDispatch, chip.KindRowDone, chip.KindWriteBackDone,
		kindCoreStart, kindMigrate, kindMigrated} {
		mutate(kind, "fragment out of range", arg(0, 1<<40))
		mutate(kind, "generation out of range", arg(1, 99))
	}
	mutate(chip.KindRowDone, "request tag wider than 32 bits", arg(2, 1<<32))
	mutate(kindMigrated, "spare slot out of range", arg(2, 1<<63))
	mutate(kindInjectMC, "chip out of range", arg(0, 4))
	mutate(kindInjectMC, "key wider than 32 bits", arg(2, 1<<32))
	mutate(campaignFailChip, "chip out of range", arg(1, 1<<33))
	mutate(campaignFailLink, "chip out of range", arg(0, 2))
	mutate(campaignFailLink, "direction out of range", arg(2, uint64(topo.NumDirs)))
	mutate(campaignRepairLink, "direction out of range", arg(2, 1<<62))
	for _, kind := range []string{host.KindExpire, host.KindRChunk} {
		mutate(kind, "command out of range", arg(0, 1<<20))
		mutate(kind, "command aliasing seq 1 modulo 2^32", arg(0, 1<<32+1))
	}
	for _, kind := range []string{router.KindArrive, router.KindTxDrain, router.KindRetry, router.KindFwd} {
		mutate(kind, "direction out of range", arg(0, uint64(topo.NumDirs)))
		mutate(kind, "node out of range", func(rec *sim.EventRecord) { rec.Domain = 16 })
	}
	for _, kind := range []string{router.KindArrive, router.KindRouteMC, router.KindRouteP2P, router.KindRetry, router.KindFwd} {
		mutate(kind, "truncated flit", func(rec *sim.EventRecord) { rec.Desc.Blob = rec.Desc.Blob[:len(rec.Desc.Blob)-1] })
		mutate(kind, "trailing flit bytes", func(rec *sim.EventRecord) { rec.Desc.Blob = append(rec.Desc.Blob, 0) })
	}
	// Retries no run can produce: the wait starts after the attempt, the
	// attempt is off the wait's grid or past its drop, or the wait
	// starts so far back that now - t0 overflows.
	retryAt, grid := samples[router.KindRetry].At, plastic.fab.Params().RetryInterval
	mutate(router.KindRetry, "waiting from after its attempt", arg(1, uint64(retryAt+grid)))
	mutate(router.KindRetry, "off its attempt grid", arg(1, uint64(retryAt-grid-1)))
	mutate(router.KindRetry, "past its drop", arg(1, uint64(retryAt-21*grid)))
	mutate(router.KindRetry, "waiting since the dawn of time", arg(1, 1<<63))
	mutate(router.KindRouteMC, "not locally injected", arg(0, 2))
	mutate(router.KindRouteMC, "carrying a p2p packet", func(rec *sim.EventRecord) {
		rec.Desc.Blob = samples[router.KindRouteP2P].Desc.Blob
	})

	for _, r := range rows {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: constructor panicked: %v", r.name, p)
				}
			}()
			if ev, err := r.m.eventKinds()[r.rec.Desc.Kind](&r.rec); err == nil {
				t.Errorf("%s: accepted as %+v", r.name, ev.EventDesc())
			}
		}()
	}

	// And the lookup itself: a kind nobody registered fails the restore.
	image, err := fresh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	known := []byte(campaignFailChip)
	at := bytes.Index(image, known)
	if at < 0 {
		t.Fatalf("image holds no %s event", campaignFailChip)
	}
	image[at+len(known)-1] ^= 1
	if _, err := Restore(image); err == nil || !strings.Contains(err.Error(), "unknown event kind") {
		t.Errorf("Restore of an image with an unregistered kind: %v, want an unknown-event-kind error", err)
	}
}

// TestFuncContainment keeps sim.Func — an event no snapshot can describe
// — out of the model proper: non-test code may construct one only in the
// phases where a snapshot is illegal anyway (boot, host commands in
// flight) and in the stand-alone sub-simulations.
func TestFuncContainment(t *testing.T) {
	allowed := []string{"internal/boot/", "internal/host/", "internal/phy/", "internal/experiments/"}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if bytes.Contains(src, []byte("sim.Func(")) &&
			!slices.ContainsFunc(allowed, func(dir string) bool { return strings.HasPrefix(path, dir) }) {
			t.Errorf("%s constructs a sim.Func; outside %v every event must be a described payload", path, allowed)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
