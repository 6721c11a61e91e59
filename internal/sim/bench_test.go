package sim

import "testing"

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
