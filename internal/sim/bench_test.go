package sim

import (
	"fmt"
	"testing"
)

// The two queue shapes that matter, driven through the public scheduling
// surface. CI runs them once each so they cannot rot; run them with
// -benchtime and -count to compare queue changes.

// holdBench is the hold model: each executed event schedules itself a
// pseudo-random delay ahead, so the pending count stays constant.
type holdBench struct {
	eng *Engine
	rng uint64
}

func (p *holdBench) Run() {
	p.rng = p.rng*6364136223846793005 + 1442695040888963407
	p.eng.AtP(p.eng.Now()+Time(1+p.rng>>54), p)
}
func (p *holdBench) EventDesc() *Desc { return nil }

// BenchmarkQueueHold keeps 4096 events pending in ONE domain (the
// engine's anonymous one): the shape a per-domain list must not have a
// cliff on.
func BenchmarkQueueHold(b *testing.B) {
	const pending = 4096
	eng := New(1)
	evs := make([]holdBench, pending)
	for i := range evs {
		evs[i] = holdBench{eng: eng, rng: uint64(i)*2654435761 + 1}
		eng.AtP(Time(1+i%1024), &evs[i])
	}
	eng.RunUntil(pending / 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// domainHold is the hold model on one chip's domain: each executed event
// schedules itself a pseudo-random delay ahead on the domain it ran on.
type domainHold struct {
	d   *Domain
	rng uint64
}

func (p *domainHold) Run() {
	p.rng = p.rng*6364136223846793005 + 1442695040888963407
	p.d.AtP(p.d.Now()+Time(1+p.rng>>54), p)
}
func (p *domainHold) EventDesc() *Desc { return nil }

// BenchmarkQueueReplaceHead keeps 40 events pending on one chip's domain,
// beside three quiet chips, and every event reschedules itself there: each
// pop is followed by a push into the hole it left, the deep-domain shape
// of a plastic chip's cores.
func BenchmarkQueueReplaceHead(b *testing.B) {
	const pending = 40
	eng := New(1)
	for i := 1; i <= 3; i++ {
		eng.Domain(i).AtP(Forever, Func(func() {}))
	}
	d := eng.Domain(0)
	evs := make([]domainHold, pending)
	for i := range evs {
		evs[i] = domainHold{d: d, rng: uint64(i)*2654435761 + 1}
		d.AtP(Time(1+i), &evs[i])
	}
	eng.RunUntil(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// hopBench is a packet crossing the machine: each delivery schedules the
// next one on the neighbouring domain a fixed latency ahead, so packets
// launched together stay a same-instant burst across many domains.
type hopBench struct {
	doms []*Domain
	at   int
	seq  uint64
}

func (p *hopBench) Run() {
	from := p.doms[p.at]
	p.at = (p.at + 1) % len(p.doms)
	p.seq++
	p.doms[p.at].DeliverAtP(from.Now()+150, from.id, p.seq, p)
}
func (p *hopBench) EventDesc() *Desc { return nil }

// tickBench is a core timer: it re-arms itself a millisecond ahead.
type tickBench struct{ d *Domain }

func (p *tickBench) Run()             { p.d.AfterP(Millisecond, p) }
func (p *tickBench) EventDesc() *Desc { return nil }

// BenchmarkQueueBursty is the shape of a machine spread over an 8x8
// torus: four millisecond timers parked on each of 64 domains, and 96
// packet events a few hundred nanoseconds ahead that arrive in four
// same-instant bursts of 24.
func BenchmarkQueueBursty(b *testing.B) {
	eng := New(1)
	doms := make([]*Domain, 64)
	for i := range doms {
		doms[i] = eng.Domain(i)
	}
	for i := 0; i < 256; i++ {
		d := doms[i%64]
		d.AtP(Time(1+i)*3*Microsecond, &tickBench{d: d})
	}
	for i := 0; i < 96; i++ {
		at := (i * 37) % 64
		doms[at].AtP(Time(1+i/24*40), &hopBench{doms: doms, at: at})
	}
	eng.RunUntil(2 * Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// BenchmarkHandoff prices one two-shard lookahead window, ns per window:
// shared with a resident helper (pooled) against both shards run back to
// back on the coordinator (inline), at k events per shard per window.
// k=0 is the hand-off alone — publish, claim, count down — with
// nothing to run; in the mail rows every event crosses the cut instead
// of re-arming at home, so both lanes append to their arenas all window
// long and the barrier drains 2k envelopes. The events are bare re-arms,
// several times cheaper than a model event, so the crossover read off
// this table in events is an upper bound on the one in model events.
func BenchmarkHandoff(b *testing.B) {
	const la = 100
	b.Run("k=0/pooled", func(b *testing.B) {
		pe := NewParallel(1, 2, 2)
		defer pe.Close()
		pool := pe.pool.Load()
		if pool == nil {
			b.Skip("one processor: no helper to hand off to")
		}
		both := []int{0, 1}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool.run(pe.shards, both, -1, 0)
		}
	})
	for _, c := range []struct {
		k    int
		mail bool
	}{{1, false}, {4, false}, {16, false}, {64, false}, {16, true}} {
		for _, workers := range []int{2, 1} {
			name := fmt.Sprintf("k=%d", c.k)
			if c.mail {
				name += "/mail"
			}
			if workers == 1 {
				name += "/inline"
			} else {
				name += "/pooled"
			}
			b.Run(name, func(b *testing.B) {
				pe := NewParallel(1, 2, workers)
				defer pe.Close()
				pe.SetLookahead(la)
				// One shard's domains, lists and payloads are built before
				// the other's, so the allocator does not lay the two
				// shards' hot words side by side on shared cache lines.
				evs := make([]*windowBench, 0, 2*c.k)
				for shard := 0; shard < 2; shard++ {
					for j := 0; j < c.k; j++ {
						ev := &windowBench{pe: pe, shard: shard, d: pe.Shard(shard).Domain(len(evs))}
						ev.d.AtP(0, ev)
						evs = append(evs, ev)
					}
				}
				if c.mail {
					for j, ev := range evs {
						ev.peer = evs[(j+c.k)%len(evs)]
					}
				}
				pe.RunUntil(64*la - 1) // warm queues and arenas, wake the helper
				b.ReportAllocs()
				b.ResetTimer()
				pe.RunUntil(Time(64+b.N)*la - 1)
			})
		}
	}
}

// windowBench is one event per lookahead window on its domain: it
// re-arms itself there, or with a peer hands the peer across the cut —
// which does the same back — so each domain still runs one per window.
type windowBench struct {
	pe    *ParallelEngine
	shard int
	d     *Domain
	peer  *windowBench
	seq   uint64
}

func (p *windowBench) Run() {
	if p.peer == nil {
		p.d.AfterP(100, p)
		return
	}
	p.seq++
	p.pe.PostP(p.shard, p.peer.shard, p.peer.d, p.d.Now()+100, p.d.id, p.seq, p.peer)
}
func (p *windowBench) EventDesc() *Desc { return nil }

// BenchmarkEachBool makes a million Bernoulli trials at the sparse
// connectors' p = 0.0125, as a loop of Bool calls and as one EachBool
// run: the same draws, so the difference is what each trial costs
// beyond its generator step.
func BenchmarkEachBool(b *testing.B) {
	const trials, p = 1_000_000, 0.0125
	var hits int
	b.Run("Bool", func(b *testing.B) {
		r := NewRNG(1)
		for b.Loop() {
			for range trials {
				if r.Bool(p) {
					hits++
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*trials), "ns/draw")
	})
	b.Run("EachBool", func(b *testing.B) {
		r := NewRNG(1)
		for b.Loop() {
			r.EachBool(trials, p, func(int) { hits++ })
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*trials), "ns/draw")
	})
}
