package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"spinngo"
	"spinngo/internal/workload"
)

const (
	// Set-up and restore take a tenth of a second, so each is sampled
	// 1+phaseRounds and phaseRounds times and its median reported. The
	// samples are taken in rounds after the timed phase — one set-up, one
	// restore, then the next round — so that the samples of one metric are
	// spread over seconds: a slow spell of the shared host, which lasts a
	// fraction of a second to a few seconds, lands on a few samples of
	// each metric and the medians pass it by. Nine samples back to back
	// fit into one second, and one spell moved them all (README, "Short
	// phases").
	phaseRounds = 20
	// verifyChunks is how much of the timed phase the exec-strategy
	// cross-check re-runs.
	verifyChunks = 10
	// baselineChunks is how much of the traced timed phase is repeated
	// untraced to measure the tracing overhead.
	baselineChunks = 40
)

// sampled times fn after a forced collection.
func sampled(fn func()) time.Duration {
	runtime.GC()
	start := time.Now()
	fn()
	return time.Since(start)
}

// harness drives one workload through the public surface: workload.Parse,
// spinngo.PrepareWorkload[On], WorkloadChunks, Machine.Run / SimStats /
// Snapshot / Close / InstantiatedChips and spinngo.Restore.
type harness struct {
	bm      *benchmark
	spec    spec
	seed    uint64
	seconds float64
	smoke   bool
	chunks  int
	doc     []byte
	tr      *tracer

	ops      int
	failed   int
	failures []string
}

func newHarness(bm *benchmark, s spec, seed uint64, secs float64, traced, smoke bool) (*harness, error) {
	h := &harness{bm: bm, spec: s, seed: seed, seconds: secs, smoke: smoke}
	h.chunks = s.chunks(secs, smoke)
	doc, err := s.document(seed, h.chunks, smoke)
	if err != nil {
		return nil, err
	}
	h.doc = doc
	if traced {
		h.tr = newTracer(s.Name)
	}
	return h, nil
}

// op counts one operation and records why it failed, if it did.
func (h *harness) op(ok bool, format string, args ...any) bool {
	h.ops++
	if !ok {
		h.failed++
		h.failures = append(h.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

// setUp goes from document bytes to a runnable machine.
func (h *harness) setUp(tr *tracer) (wl *workload.Workload, m *spinngo.Machine, parse, prepare time.Duration, err error) {
	parse = tr.timed("workload.parse", func() { wl, err = workload.Parse(h.doc) })
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("bench: %s: parse: %w", h.spec.Name, err)
	}
	prepare = tr.timed("machine.prepare", func() { m, err = spinngo.PrepareWorkload(wl) })
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("bench: %s: prepare: %w", h.spec.Name, err)
	}
	return wl, m, parse, prepare, nil
}

// phase is what one closed-loop pass over the first n chunks measured.
type phase struct {
	chunkWall []time.Duration
	wall      time.Duration
	cpu       time.Duration
	// reports holds the %+v of the report each chunk returned.
	reports []string
	final   *spinngo.RunReport
	stats   [2]spinngo.SimStats
	mem     [2]runtime.MemStats
}

// run issues Run(chunk) back to back for the first n chunks of the
// schedule, one caller, timing each call. Everything else in the loop —
// report checks, spans' bookkeeping, counter samples — happens between
// the timed calls.
func (h *harness) run(m *spinngo.Machine, steps []int, n int, tr *tracer) phase {
	var p phase
	p.chunkWall = make([]time.Duration, 0, n)
	runtime.GC()
	runtime.ReadMemStats(&p.mem[0])
	p.stats[0] = m.SimStats()
	tr.begin("run")
	tr.sampleAt(0, m)
	cpu0 := cpuTime()
	bio := uint64(0)
	for i := 0; i < n; i++ {
		var rep *spinngo.RunReport
		var err error
		d := tr.timed("machine.run", func() { rep, err = m.Run(steps[i]) })
		bio += uint64(steps[i])
		if !h.op(err == nil, "chunk %d: %v", i, err) {
			break
		}
		if rep.BioTimeMS != bio {
			h.op(false, "chunk %d: report at %d bio-ms, want %d", i, rep.BioTimeMS, bio)
			break
		}
		p.chunkWall = append(p.chunkWall, d)
		p.wall += d
		p.final = rep
		p.reports = append(p.reports, fmt.Sprintf("%+v", *rep))
		tr.sampleAt(i+1, m)
	}
	p.cpu = cpuTime() - cpu0
	tr.end()
	p.stats[1] = m.SimStats()
	runtime.ReadMemStats(&p.mem[1])
	if p.final != nil {
		h.op(p.final.TotalSpikes > 0, "no spikes in %d chunks", n)
	}
	return p
}

func (h *harness) newRow() *row {
	declared := h.bm.EndToEnd
	if h.tr != nil {
		declared = h.bm.PerLayer
	}
	return &row{
		declared: declared,
		Workload: h.spec.Name, Traced: h.tr != nil, Seed: h.seed, Seconds: h.seconds,
		Chunks: h.chunks, ChunkMS: h.spec.ChunkMS,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Metrics: map[string]metric{},
	}
}

func (h *harness) finish(r *row) *row {
	r.Ops, r.OpsFailed, r.Failures = h.ops, h.failed, h.failures
	return r
}

func (h *harness) bioSeconds(n int) float64 { return float64(n*h.spec.ChunkMS) / 1000 }

// endToEnd is the untraced run: the eight end-to-end metrics, then the
// verify checks off the clock.
func (h *harness) endToEnd() (*row, error) {
	r := h.newRow()

	// The first set-up builds the machine that is measured; it is also
	// the first sample of setup_s, a cold one.
	var wl *workload.Workload
	var m *spinngo.Machine
	var err error
	setups := []time.Duration{sampled(func() { wl, m, _, _, err = h.setUp(nil) })}
	if err != nil {
		return nil, err
	}
	defer func() { m.Close() }()
	steps := spinngo.WorkloadChunks(wl)

	p := h.run(m, steps, h.chunks, nil)
	if h.failed > 0 {
		return h.finish(r), nil
	}
	bio := h.bioSeconds(h.chunks)
	r.setChunks(p.chunkWall)
	r.set("run_s_per_bio_s", seconds(p.wall)/bio)
	r.set("cpu_s_per_bio_s", seconds(p.cpu)/bio)
	r.set("chunk_ms_p50", millis(percentile(p.chunkWall, 50)))

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("heap_live_mb", float64(ms.HeapAlloc)/1e6)
	// Read before the snapshot, the repeated set-ups and restores and the
	// verify checks pile an image and extra machines on top: this is the
	// peak of one set-up and the timed phase, which moves with what the
	// run itself allocates.
	r.set("peak_rss_mb", peakRSSMB())

	// One snapshot: the machine is quiescent between chunks, so every
	// call would write this same image. How long it takes is a per-layer
	// metric (snapshot.encode_ms), see README, "snapshot_s".
	image, err := m.Snapshot()
	if !h.op(err == nil, "snapshot: %v", err) {
		return h.finish(r), nil
	}
	r.set("image_mb", float64(len(image))/1e6)

	// Set-up and restore, in rounds (see phaseRounds). A set-up builds a
	// machine that is closed at once; of the restored machines the last
	// is kept for the check below.
	rounds := phaseRounds
	if h.smoke {
		rounds = 2
	}
	var restored *spinngo.Machine
	var restores []time.Duration
	for i := 0; i < rounds; i++ {
		var fresh *spinngo.Machine
		setups = append(setups, sampled(func() { _, fresh, _, _, err = h.setUp(nil) }))
		if err != nil {
			return nil, err
		}
		fresh.Close()
		if restored != nil {
			restored.Close()
		}
		restores = append(restores, sampled(func() { restored, err = spinngo.Restore(image) }))
		if !h.op(err == nil, "restore: %v", err) {
			return h.finish(r), nil
		}
	}
	defer func() { restored.Close() }()
	r.set("setup_s", seconds(percentile(setups, 50)))
	r.set("restore_s", seconds(percentile(restores, 50)))

	// Verify (b): the restored machine and the original each run one
	// more chunk and must agree.
	next := steps[h.chunks]
	repA, errA := m.Run(next)
	h.op(errA == nil, "post-snapshot chunk on the original: %v", errA)
	repB, errB := restored.Run(next)
	h.op(errB == nil, "post-snapshot chunk on the restored machine: %v", errB)
	if errA == nil && errB == nil {
		h.op(fmt.Sprintf("%+v", *repA) == fmt.Sprintf("%+v", *repB),
			"restored machine diverged from the original:\n  original %+v\n  restored %+v", *repA, *repB)
	}

	// Verify (a): the first chunks under the other exec strategy give
	// byte-equal reports.
	h.verifyExec(wl, steps, p.reports[:min(verifyChunks, len(p.reports))])
	return h.finish(r), nil
}

// verifyExec re-runs the first chunks on the exec strategy the document
// does not use and compares every report with the timed run's.
func (h *harness) verifyExec(wl *workload.Workload, steps []int, want []string) {
	workers, partition := 2, "blocks"
	if wl.Machine.Workers > 1 {
		workers, partition = 1, ""
	}
	m, err := spinngo.PrepareWorkloadOn(wl, workers, partition)
	if err != nil {
		h.op(false, "exec-strategy check: set-up at workers=%d: %v", workers, err)
		return
	}
	defer m.Close()
	for i := range want {
		rep, err := m.Run(steps[i])
		if !h.op(err == nil, "exec-strategy check: chunk %d at workers=%d: %v", i, workers, err) {
			return
		}
		if got := fmt.Sprintf("%+v", *rep); got != want[i] {
			h.op(false, "exec-strategy check: chunk %d differs at workers=%d:\n  document's %s\n  other      %s", i, workers, want[i], got)
			return
		}
	}
	h.op(true, "")
}

// traced is the traced run: the timed phase again with spans and counter
// samples, one snapshot and restore, the same chunks untraced for the
// overhead, then the layer drives.
func (h *harness) traced() (*row, *traceFile, error) {
	r := h.newRow()
	h.tr.begin("workload")
	wl, m, parse, prepare, err := h.setUp(h.tr)
	if err != nil {
		return nil, nil, err
	}
	defer m.Close()
	steps := spinngo.WorkloadChunks(wl)
	r.set("workload.parse_ms", millis(parse))
	r.set("machine.prepare_ms", millis(prepare))
	r.set("machine.prepare_us_per_chip", millis(prepare)*1e3/float64(m.InstantiatedChips()))

	p := h.run(m, steps, h.chunks, h.tr)
	if h.failed > 0 {
		h.tr.end()
		return h.finish(r), h.traceFile(), nil
	}
	r.setChunks(p.chunkWall)
	// The tail of the timed phase is reported here, without a bound: see
	// README, "chunk_ms_p90".
	r.set("chunk_ms_p90", millis(percentile(p.chunkWall, 90)))
	bio := h.bioSeconds(h.chunks)
	h.counters(r, &p, bio)

	var image []byte
	var alloc [2]runtime.MemStats
	runtime.ReadMemStats(&alloc[0])
	enc := h.tr.timed("snapshot.encode", func() { image, err = m.Snapshot() })
	runtime.ReadMemStats(&alloc[1])
	if h.op(err == nil, "snapshot: %v", err) {
		var restored *spinngo.Machine
		dec := h.tr.timed("snapshot.restore", func() { restored, err = spinngo.Restore(image) })
		if h.op(err == nil, "restore: %v", err) {
			restored.Close()
		}
		mb := float64(len(image)) / 1e6
		r.set("snapshot.alloc_mb", float64(alloc[1].TotalAlloc-alloc[0].TotalAlloc)/1e6)
		r.set("snapshot.encode_ms", millis(enc))
		r.set("snapshot.restore_ms", millis(dec))
		r.set("snapshot.encode_mb_per_s", mb/seconds(enc))
		r.set("snapshot.restore_mb_per_s", mb/seconds(dec))
	}

	// The tracing overhead: the same first chunks on a fresh machine
	// with no spans and no samples.
	n := min(baselineChunks, h.chunks)
	h.tr.begin("baseline")
	_, base, _, _, err := h.setUp(nil)
	if err != nil {
		return nil, nil, err
	}
	q := h.run(base, steps, n, nil)
	base.Close()
	h.tr.end()
	if len(q.chunkWall) == n {
		var tracedWall time.Duration
		for _, d := range p.chunkWall[:n] {
			tracedWall += d
		}
		r.set("trace.overhead_pct", 100*(seconds(tracedWall)-seconds(q.wall))/seconds(q.wall))
		h.op(q.reports[n-1] == p.reports[n-1], "untraced and traced runs disagree after %d chunks", n)
	}

	h.tr.begin("drives")
	err = runDrives(r, h)
	h.tr.end()
	h.tr.end()
	if err != nil {
		return nil, nil, err
	}
	return h.finish(r), h.traceFile(), nil
}

func (h *harness) traceFile() *traceFile {
	return &traceFile{Workload: h.spec.Name, Spans: h.tr.spans, Samples: h.tr.samples}
}

// counters fills the per-layer counters: deltas of SimStats and MemStats
// over the timed phase and the final report (the machine was fresh, so
// the report's cumulative counts are the phase's own).
func (h *harness) counters(r *row, p *phase, bio float64) {
	a, b := p.stats[0], p.stats[1]
	events := b.Events - a.Events
	handoffs := b.Handoffs - a.Handoffs
	r.set("sim.events", float64(events))
	r.set("sim.windows", float64(b.Windows-a.Windows))
	r.set("sim.handoffs", float64(handoffs))
	r.set("sim.batch_runs", float64(b.BatchRuns-a.BatchRuns))
	r.set("sim.batched_windows", float64(b.BatchedWindows-a.BatchedWindows))
	r.set("sim.parallel_windows", float64(b.ParallelWindows-a.ParallelWindows))
	r.set("sim.repartitions", float64(b.Repartitions-a.Repartitions))
	r.set("sim.lookahead_ns", float64(b.Lookahead))
	r.set("sim.cut_links", float64(b.CutLinks))
	r.set("sim.ns_per_event", float64(p.wall.Nanoseconds())/float64(events))
	perHandoff := 0.0
	if handoffs > 0 {
		perHandoff = float64(p.wall.Nanoseconds()) / 1e3 / float64(handoffs)
	}
	r.set("sim.us_per_handoff", perHandoff)

	rep := p.final
	r.set("router.packets_delivered", float64(rep.PacketsDelivered))
	r.set("router.packets_dropped", float64(rep.PacketsDropped))
	r.set("router.emergency_invocations", float64(rep.EmergencyInvocations))
	r.set("router.drop_share", 100*float64(rep.PacketsDropped)/float64(rep.PacketsDelivered+rep.PacketsDropped))
	r.set("neural.spikes", float64(rep.TotalSpikes))
	r.set("neural.stdp_updates", float64(rep.Potentiations+rep.Depressions))
	r.set("neural.synapse_writebacks", float64(rep.SynapseWriteBacks))
	r.set("kernel.instructions", float64(rep.Instructions))
	r.set("kernel.overruns", float64(rep.Overruns))

	m0, m1 := &p.mem[0], &p.mem[1]
	r.set("go.mallocs_per_bio_ms", float64(m1.Mallocs-m0.Mallocs)/(bio*1e3))
	r.set("go.gc_cycles", float64(m1.NumGC-m0.NumGC))
	r.set("go.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("go.heap_growth_mb_per_bio_s", (float64(ms.HeapAlloc)-float64(m0.HeapAlloc))/1e6/bio)

	// FNV-64 of the report, cut to the 53 bits a JSON number carries
	// exactly.
	f := fnv.New64a()
	f.Write([]byte(p.reports[len(p.reports)-1]))
	r.set("model.report_hash", float64(f.Sum64()>>11))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}
