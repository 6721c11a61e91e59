package kernel

import (
	"testing"

	"spinngo/internal/packet"
	"spinngo/internal/sim"
)

func TestTimerTicksArrive(t *testing.T) {
	eng := sim.New(1)
	c := NewCore(eng, DefaultConfig())
	var ticks []uint64
	c.On(EvTimer, func(ev Event) uint64 {
		ticks = append(ticks, ev.Tick)
		return 1000
	})
	c.Start()
	eng.RunUntil(10 * sim.Millisecond)
	c.Stop()
	if len(ticks) != 10 {
		t.Fatalf("got %d ticks, want 10", len(ticks))
	}
	for i, k := range ticks {
		if k != uint64(i) {
			t.Errorf("tick %d numbered %d", i, k)
		}
	}
	if !c.RealTime() {
		t.Errorf("overruns = %d with light load", c.Overruns)
	}
}

func TestPriorityOrder(t *testing.T) {
	// Post a timer, a DMA-done and a packet while the core is busy;
	// they must run packet first, then DMA, then timer (Fig 7).
	eng := sim.New(1)
	cfg := DefaultConfig()
	cfg.TimerPeriod = sim.Second // keep the automatic timer away
	c := NewCore(eng, cfg)
	var order []EventType
	rec := func(ev Event) uint64 { order = append(order, ev.Type); return 100 }
	c.On(EvPacket, rec)
	c.On(EvDMADone, rec)
	c.On(EvTimer, rec)
	c.Start()
	// First event occupies the core; the rest queue behind it.
	c.Post(Event{Type: EvDMADone, Tag: 0})
	c.Post(Event{Type: EvTimer})
	c.Post(Event{Type: EvDMADone, Tag: 1})
	c.Post(Event{Type: EvPacket})
	eng.RunUntil(10 * sim.Millisecond)
	c.Stop()
	want := []EventType{EvDMADone, EvPacket, EvDMADone, EvTimer}
	if len(order) < 4 {
		t.Fatalf("ran %d events, want >= 4", len(order))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v...", order[:4], want)
		}
	}
}

func TestSleepAccounting(t *testing.T) {
	eng := sim.New(1)
	cfg := DefaultConfig()
	c := NewCore(eng, cfg)
	c.On(EvTimer, func(Event) uint64 { return 20000 }) // 100us at 200 MIPS
	c.Start()
	eng.RunUntil(100 * sim.Millisecond)
	c.Stop()
	// Each 1 ms tick costs ~100.5 us busy; sleep fraction ~0.9.
	sf := c.SleepFraction()
	if sf < 0.85 || sf > 0.95 {
		t.Errorf("sleep fraction = %.3f, want ~0.9", sf)
	}
	total := c.BusyTime + c.SleepTime
	elapsed := 100 * sim.Millisecond
	if total < elapsed-sim.Millisecond || total > elapsed+sim.Millisecond {
		t.Errorf("busy+sleep = %v, want ~%v", total, elapsed)
	}
}

func TestOverrunDetection(t *testing.T) {
	eng := sim.New(1)
	cfg := DefaultConfig()
	c := NewCore(eng, cfg)
	// Each tick needs 1.5 ms of work: guaranteed overrun.
	c.On(EvTimer, func(Event) uint64 { return 300000 })
	c.Start()
	eng.RunUntil(20 * sim.Millisecond)
	c.Stop()
	if c.Overruns == 0 {
		t.Error("no overruns detected despite 150% load")
	}
	if c.RealTime() {
		t.Error("RealTime() true despite overruns")
	}
}

func TestPacketToDMAChain(t *testing.T) {
	// The canonical Fig-7 flow: packet arrival schedules a DMA; the
	// DMA completion processes the row.
	eng := sim.New(1)
	cfg := DefaultConfig()
	cfg.TimerPeriod = sim.Second
	c := NewCore(eng, cfg)
	var processed []uint32
	c.On(EvPacket, func(ev Event) uint64 {
		// Model: look up the spiking neuron, schedule the fetch.
		tag := ev.Pkt.Key
		eng.AfterP(300*sim.Nanosecond, sim.Func(func() { c.PostDMADone(tag) }))
		return 80
	})
	c.On(EvDMADone, func(ev Event) uint64 {
		processed = append(processed, ev.Tag)
		return 1200
	})
	c.Start()
	for i := uint32(0); i < 5; i++ {
		c.PostPacket(packet.NewMC(i))
	}
	eng.RunUntil(sim.Millisecond)
	c.Stop()
	if len(processed) != 5 {
		t.Fatalf("processed %d rows, want 5", len(processed))
	}
	if c.EventCounts[EvPacket] != 5 || c.EventCounts[EvDMADone] != 5 {
		t.Errorf("event counts = %v", c.EventCounts)
	}
}

func TestInstructionAccounting(t *testing.T) {
	eng := sim.New(1)
	cfg := DefaultConfig()
	cfg.TimerPeriod = sim.Second
	cfg.DispatchOverhead = 0
	c := NewCore(eng, cfg)
	c.On(EvPacket, func(Event) uint64 { return 1000 })
	c.Start()
	c.PostPacket(packet.NewMC(1))
	c.PostPacket(packet.NewMC(2))
	eng.RunUntil(sim.Millisecond)
	c.Stop()
	if c.Instructions != 2000 {
		t.Errorf("instructions = %d, want 2000", c.Instructions)
	}
	// 2000 instructions at 200 MIPS = 10 us busy.
	if c.BusyTime != 10*sim.Microsecond {
		t.Errorf("busy = %v, want 10us", c.BusyTime)
	}
}

func TestPostAfterStopIgnored(t *testing.T) {
	eng := sim.New(1)
	c := NewCore(eng, DefaultConfig())
	ran := false
	c.On(EvPacket, func(Event) uint64 { ran = true; return 1 })
	c.Start()
	c.Stop()
	c.PostPacket(packet.NewMC(1))
	eng.Run()
	if ran {
		t.Error("handler ran after Stop")
	}
}

func TestBacklogHighWaterMark(t *testing.T) {
	eng := sim.New(1)
	cfg := DefaultConfig()
	cfg.TimerPeriod = sim.Second
	c := NewCore(eng, cfg)
	c.On(EvPacket, func(Event) uint64 { return 100000 }) // slow: 0.5ms
	c.Start()
	for i := 0; i < 10; i++ {
		c.PostPacket(packet.NewMC(uint32(i)))
	}
	if c.MaxBacklog < 9 {
		t.Errorf("MaxBacklog = %d, want >= 9", c.MaxBacklog)
	}
	eng.RunUntil(10 * sim.Millisecond)
	c.Stop()
	if c.Backlog() != 0 {
		t.Errorf("backlog = %d after drain", c.Backlog())
	}
}

func TestNewCoreValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-MIPS core accepted")
		}
	}()
	NewCore(sim.New(1), Config{MIPS: 0, TimerPeriod: 1})
}
