package spinngo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"

	"spinngo/internal/router"
	"spinngo/internal/sim"
	"spinngo/internal/topo"
)

// A packet bound for a failed link sleeps until an attempt can end
// differently, and a repair committed at quiescence wakes it (router
// retryEv.attempt and Node.wake). Sleepers live a few microseconds and a
// run's chunk boundaries fall on whole milliseconds, so the test reaches
// them through host commands, whose batches halt at their deadlines: a
// bulk read whose response streams back over a failed link halts with
// response packets asleep on it.

// sleepTarget is the chip whose SDRAM the test reads back over a failed
// link. Its request route from the gateway and its response route back
// share no link, so failing the response's first hop leaves the request
// path intact.
var sleepTarget = topo.Coord{X: 2, Y: 1}

// sleepersOn counts the retries pending on chip c more than one
// RetryInterval ahead: a polling packet is never due later than that, so
// these are sleepers. It settles completions and exports the pending
// events as Snapshot does.
func sleepersOn(t testing.TB, m *Machine, c topo.Coord) int {
	t.Helper()
	m.syncCompletions()
	recs, err := m.pe.ExportEvents()
	if err != nil {
		t.Fatal(err)
	}
	idx := m.part.Torus().Index(c)
	horizon := m.pe.Now() + m.fab.Params().RetryInterval
	n := 0
	for _, rec := range recs {
		if rec.Desc.Kind == router.KindRetry && int(rec.Domain) == idx && rec.At > horizon {
			n++
		}
	}
	return n
}

// readTimingOut runs a one-read batch whose deadline lands while the
// read's response is still streaming back.
func readTimingOut(t testing.TB, hl *HostLink, n int, deadline time.Duration) {
	t.Helper()
	p := hl.Batch(1).Timeout(deadline)
	ri := p.ReadMem(sleepTarget.X, sleepTarget.Y, 0x800, n)
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res[ri].Err, ErrHostTimeout) {
		t.Fatalf("read under a %v deadline resolved with %v, want ErrHostTimeout", deadline, res[ri].Err)
	}
}

// sleepPrepare loads the snapshot reference network on a uniform 4x4
// machine, writes 32 KiB into the target's SDRAM, fails the link its
// responses leave by, and halts a read of it 70 us in: the response
// packets of the last 5 us sleep on the failed link toward their drop.
func sleepPrepare(t testing.TB, workers int, partition string) (*Machine, topo.Dir) {
	t.Helper()
	m, err := NewMachine(MachineConfig{
		Width: 4, Height: 4, Seed: 29, Workers: workers, Partition: partition, MaxAppCoresPerChip: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	model := NewModel()
	stim := model.AddPoisson("stim", 80, 150)
	exc := model.AddLIF("exc", 300, DefaultLIFConfig())
	if err := model.Connect(stim, exc, Conn{Rule: RandomRule, P: 0.2, WeightNA: 1.2, DelayMS: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	hl, err := m.AttachHost()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	bulk := make([]byte, 32<<10)
	for i := range bulk {
		bulk[i] = byte(i)
	}
	w := hl.Batch(1)
	wi := w.WriteMem(sleepTarget.X, sleepTarget.Y, 0x800, bulk)
	res, err := w.Run()
	if err != nil || res[wi].Err != nil {
		t.Fatalf("bulk write: %v, %v", err, res[wi].Err)
	}
	d, _ := m.part.Torus().NextDir(sleepTarget, m.hostOrigin)
	if err := m.FailLink(sleepTarget.X, sleepTarget.Y, d.String()); err != nil {
		t.Fatal(err)
	}
	readTimingOut(t, hl, 512, 70*time.Microsecond)
	return m, d
}

// sleepRepairPending scripts the repair of the failed link at the next
// whole millisecond and halts a second, longer read 2 ms in — after the
// repair event, with its response asleep on the link that is still down
// and the repair only marked, awaiting its commit.
func sleepRepairPending(t *testing.T, m *Machine, d topo.Dir) *HostLink {
	t.Helper()
	hl, err := m.AttachHost()
	if err != nil {
		t.Fatal(err)
	}
	next := int((m.pe.Now()-m.epoch)/sim.Millisecond) + 1
	if err := m.ScheduleRepairLink(next, sleepTarget.X, sleepTarget.Y, d.String()); err != nil {
		t.Fatal(err)
	}
	readTimingOut(t, hl, 32<<10, 2*time.Millisecond)
	if n := sleepersOn(t, m, sleepTarget); n == 0 || !m.fab.LinkFailed(sleepTarget, d) {
		t.Fatalf("the repair commit finds %d sleepers on %v, link failed %v; want sleepers on a failed link",
			n, sleepTarget, m.fab.LinkFailed(sleepTarget, d))
	}
	return hl
}

// sleepFinish leaves the repair pending as sleepRepairPending does; the
// next batch commits it at that instant and wakes the sleepers, and the
// run then goes on for 40 ms and is fingerprinted.
func sleepFinish(t *testing.T, m *Machine, d topo.Dir) string {
	t.Helper()
	hl := sleepRepairPending(t, m, d)
	p := hl.Batch(1)
	p.Ping(m.hostOrigin.X, m.hostOrigin.Y)
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if m.fab.LinkFailed(sleepTarget, d) || sleepersOn(t, m, sleepTarget) != 0 {
		t.Fatalf("after the commit the link is failed %v with %d sleepers, want it repaired and none asleep",
			m.fab.LinkFailed(sleepTarget, d), sleepersOn(t, m, sleepTarget))
	}
	return snapFinish(t, m)
}

// corruptRetry returns a copy of image whose first fab.retry record
// starts its wait at the dawn of time, where now - t0 overflows: a
// record no run can produce.
func corruptRetry(t testing.TB, image []byte) []byte {
	t.Helper()
	kind := []byte(router.KindRetry)
	at := bytes.Index(image, kind)
	if at < 0 {
		t.Fatalf("image holds no %s record", router.KindRetry)
	}
	bad := bytes.Clone(image)
	// The kind is followed by the argument count and the direction.
	binary.LittleEndian.PutUint64(bad[at+len(kind)+4+8:], 1<<63)
	return bad
}

// TestRepairWakesSleepers pins sleeping and waking to the determinism
// contract: straight runs on {bands, blocks} x {1, 2, 4} workers, and
// the same runs restored from an image taken while response packets
// sleep on the failed link, all finish byte-identical to the straight
// one-worker run.
func TestRepairWakesSleepers(t *testing.T) {
	m, d := sleepPrepare(t, 1, PartitionBands)
	ref := sleepFinish(t, m, d)
	m.Close()

	src, _ := sleepPrepare(t, 1, PartitionBands)
	if n := sleepersOn(t, src, sleepTarget); n == 0 {
		t.Fatal("no packet sleeps on the failed link at the snapshot instant")
	}
	image, err := src.Snapshot()
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(corruptRetry(t, image)); err == nil || !strings.Contains(err.Error(), router.KindRetry) {
		t.Fatalf("Restore of a retry waiting since the dawn of time: %v, want a %s error", err, router.KindRetry)
	}
	for _, partition := range []string{PartitionBands, PartitionBlocks} {
		for _, workers := range []int{1, 2, 4} {
			if partition != PartitionBands || workers != 1 {
				m, d := sleepPrepare(t, workers, partition)
				got := sleepFinish(t, m, d)
				m.Close()
				if got != ref {
					t.Errorf("straight run on %s/%d diverged from bands/1:\n--- bands/1 ---\n%s--- %s/%d ---\n%s",
						partition, workers, ref, partition, workers, got)
				}
			}
			m, err := RestoreOn(image, workers, partition)
			if err != nil {
				t.Fatalf("restore onto %s/%d: %v", partition, workers, err)
			}
			got := sleepFinish(t, m, d)
			m.Close()
			if got != ref {
				t.Errorf("restore onto %s/%d diverged from the straight run:\n--- straight ---\n%s--- restored ---\n%s",
					partition, workers, ref, got)
			}
		}
	}
}

// TestSnapshotCarriesPendingRepair: a repair_link event that fires
// inside a host batch only marks its link, which comes back at the next
// Run's commit. An image taken with the two marks pending records them,
// and restores of it onto bands and blocks x {1, 2} workers commit them
// at their first Run as the straight run does, and finish equal to it.
func TestSnapshotCarriesPendingRepair(t *testing.T) {
	m, d := sleepPrepare(t, 1, PartitionBands)
	defer m.Close()
	sleepRepairPending(t, m, d)
	// The scripted repair marks the failed link and its reverse.
	if n := m.fab.PendingRepairs(); n != 2 {
		t.Fatalf("%d repairs pending after the batch, want 2", n)
	}
	image, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot with the repairs pending: %v", err)
	}
	ref := snapFinish(t, m)
	if m.fab.LinkFailed(sleepTarget, d) {
		t.Fatal("Run did not commit the pending repair")
	}
	for _, partition := range []string{PartitionBands, PartitionBlocks} {
		for _, workers := range []int{1, 2} {
			r, err := RestoreOn(image, workers, partition)
			if err != nil {
				t.Fatalf("restore onto %s/%d: %v", partition, workers, err)
			}
			if n := r.fab.PendingRepairs(); n != 2 || !r.fab.LinkFailed(sleepTarget, d) {
				t.Errorf("restore onto %s/%d: %d repairs pending, link failed %v; want 2 on a failed link",
					partition, workers, n, r.fab.LinkFailed(sleepTarget, d))
			}
			if got := snapFinish(t, r); got != ref {
				t.Errorf("restore onto %s/%d diverged from the straight run:\n--- straight ---\n%s--- restored ---\n%s",
					partition, workers, ref, got)
			}
			if r.fab.LinkFailed(sleepTarget, d) || r.fab.PendingRepairs() != 0 {
				t.Errorf("restore onto %s/%d: the first Run left the link failed %v, %d repairs pending",
					partition, workers, r.fab.LinkFailed(sleepTarget, d), r.fab.PendingRepairs())
			}
			r.Close()
		}
	}
}
