package phy

import "spinngo/internal/sim"

// This file models the Fig-6 phase converter experiment of section 5.1.
//
// An inter-chip link carries 2-phase (transition) signalling; on-chip
// logic wants 4-phase (level) signalling. The conventional converter
// XORs the wire level with locally generated state; a glitch on the wire
// flips phase parity, the local state goes stale, and the handshake
// deadlocks. The SpiNNaker converter senses true transitions (immune to
// phase parity) and ignores further input transitions until re-enabled by
// the acknowledge, which also protects downstream circuits from spurious
// inputs. The paper reports that this circuit, with other enhancements,
// reduced deadlock occurrences in glitch simulations by a factor ~1,000.
//
// Both converters here are driven by the same Poisson glitch process
// superimposed on a periodic data stream; a watchdog detects stalls,
// counts a deadlock, resets the link (see token.go for the reset
// protocol) and carries on, so each run yields a deadlock *rate*:
//
//   - Unprotected: a wire transition while the acknowledge is pending
//     corrupts the local phase state; the next real datum is then
//     invisible and the handshake stalls.
//   - Protected: transitions while disabled are absorbed harmlessly; the
//     residual vulnerability is a transition catching the enable latch
//     inside its metastability window, which can leave the converter
//     stuck disabled with no token in flight.

// ConverterKind selects the circuit under test.
type ConverterKind int

const (
	// Unprotected is the conventional XOR-with-local-state converter.
	Unprotected ConverterKind = iota
	// Protected is the SpiNNaker transition-sensing converter (Fig 6).
	Protected
)

func (k ConverterKind) String() string {
	if k == Protected {
		return "protected"
	}
	return "unprotected"
}

// GlitchConfig parameterises one glitch-injection run.
type GlitchConfig struct {
	Kind ConverterKind
	// DataPeriod is the interval between real data transitions.
	DataPeriod sim.Time
	// AckDelay is the downstream processing time before the acknowledge
	// re-enables the converter. The unprotected converter is vulnerable
	// for this whole window each cycle.
	AckDelay sim.Time
	// GlitchRate is the mean rate of injected spurious transitions, in
	// events per second of simulated time.
	GlitchRate float64
	// MetaProb is the per-transition probability that a transition
	// arriving while the protected converter is enabled catches the
	// enable latch inside its metastability window and leaves it stuck.
	// Physically this is (window / enabled time) / 2; with the ~100 ps
	// window of the silicon and a ~100 ns enabled phase, about 5e-4.
	MetaProb float64
	// Duration is how long to run.
	Duration sim.Time
	// WatchdogTimeout declares a deadlock when the sender has been
	// waiting with no handshake progress for this long.
	WatchdogTimeout sim.Time
}

// DefaultGlitchConfig returns the baseline used by experiment E2.
func DefaultGlitchConfig(kind ConverterKind) GlitchConfig {
	return GlitchConfig{
		Kind:            kind,
		DataPeriod:      100 * sim.Nanosecond,
		AckDelay:        50 * sim.Nanosecond,
		GlitchRate:      2e5,
		MetaProb:        5e-4,
		Duration:        50 * sim.Millisecond,
		WatchdogTimeout: 2 * sim.Microsecond,
	}
}

// GlitchResult summarises one run.
type GlitchResult struct {
	Kind             ConverterKind
	HandshakesOK     uint64 // completed handshakes
	GlitchesInjected uint64
	SpuriousTokens   uint64 // corrupt data passed downstream
	LostData         uint64 // real data absorbed while converter disabled
	Deadlocks        uint64 // watchdog-detected stalls (link reset each time)
	Duration         sim.Time
}

type converter struct {
	cfg GlitchConfig
	eng *sim.Engine
	res GlitchResult

	enabled       bool // protected: accepting input transitions
	ackPending    bool // a token is downstream awaiting acknowledge
	senderWaiting bool // sender has issued data and awaits handshake
	phaseOK       bool // unprotected: local state parity agrees with wire
	lastProgress  sim.Time
	onHandshake   func()
}

// RunGlitchTrial simulates one link under glitch injection and reports
// the outcome. Deterministic given the seed.
func RunGlitchTrial(cfg GlitchConfig, seed uint64) GlitchResult {
	eng := sim.New(seed)
	c := &converter{cfg: cfg, eng: eng, enabled: true, phaseOK: true}
	c.res.Kind = cfg.Kind
	c.res.Duration = cfg.Duration

	// Sender: sends a datum, then waits for the handshake to complete
	// before sending the next, DataPeriod later.
	var sendNext func()
	sendNext = func() {
		c.senderWaiting = true
		c.inputTransition(true)
	}
	eng.AfterP(cfg.DataPeriod, sim.Func(sendNext))
	c.onHandshake = func() {
		c.res.HandshakesOK++
		c.lastProgress = eng.Now()
		if c.senderWaiting {
			c.senderWaiting = false
			eng.AfterP(cfg.DataPeriod, sim.Func(sendNext))
		}
	}

	// Glitch process: Poisson spurious transitions on the wire.
	var glitch func()
	glitch = func() {
		c.res.GlitchesInjected++
		c.inputTransition(false)
		eng.AfterP(sim.Time(eng.RNG().Exp(cfg.GlitchRate)*float64(sim.Second)), sim.Func(glitch))
	}
	eng.AfterP(sim.Time(eng.RNG().Exp(cfg.GlitchRate)*float64(sim.Second)), sim.Func(glitch))

	// Watchdog: count a deadlock when the sender stalls, then reset the
	// link (both ends reinject; see token.go) and resume.
	var watchdog func()
	watchdog = func() {
		if c.senderWaiting && eng.Now()-c.lastProgress > cfg.WatchdogTimeout {
			c.res.Deadlocks++
			c.reset()
		}
		eng.AfterP(cfg.WatchdogTimeout/2, sim.Func(watchdog))
	}
	eng.AfterP(cfg.WatchdogTimeout/2, sim.Func(watchdog))

	eng.RunUntil(cfg.Duration)
	return c.res
}

// reset restores a wedged link, as the reset protocol of section 5.1
// would, and retries the outstanding datum.
func (c *converter) reset() {
	c.enabled = true
	c.ackPending = false
	c.phaseOK = true
	c.lastProgress = c.eng.Now()
	if c.senderWaiting {
		c.inputTransition(true)
	}
}

// inputTransition models one transition arriving at the converter input;
// real reports whether it is genuine sender data.
func (c *converter) inputTransition(real bool) {
	switch c.cfg.Kind {
	case Protected:
		c.protectedInput(real)
	default:
		c.unprotectedInput(real)
	}
}

func (c *converter) protectedInput(real bool) {
	if !c.enabled {
		// Absorbed harmlessly (Fig 6: input ignored until ¬ack
		// re-enables). Real data lost this way still completes the
		// handshake via the in-flight token, so flow continues.
		if real {
			c.res.LostData++
		}
		return
	}
	if !real && c.eng.RNG().Bool(c.cfg.MetaProb) {
		// The glitch caught the enable latch metastable; it resolves
		// disabled with no token in flight — stuck until reset.
		c.enabled = false
		return
	}
	if !real {
		c.res.SpuriousTokens++
	}
	c.emitToken()
}

func (c *converter) unprotectedInput(real bool) {
	if c.ackPending {
		// No input gating: the transition flips the perceived request
		// level while the previous token is outstanding, corrupting
		// the locally generated phase state.
		c.phaseOK = !c.phaseOK
		if !real {
			c.res.SpuriousTokens++
		}
		return
	}
	if !c.phaseOK {
		// Parity lost: the XOR output stays low even though a
		// transition arrived — the datum vanishes. Parity is restored
		// for subsequent transitions, but if this was real data the
		// sender now waits on an acknowledge that never comes.
		c.phaseOK = true
		if real {
			c.res.LostData++
		}
		return
	}
	if !real {
		c.res.SpuriousTokens++
	}
	c.emitToken()
}

// emitToken passes a 4-phase request downstream and schedules the
// acknowledge that re-enables the converter.
func (c *converter) emitToken() {
	c.enabled = false
	c.ackPending = true
	c.eng.AfterP(c.cfg.AckDelay, sim.Func(func() {
		c.ackPending = false
		c.enabled = true
		if c.onHandshake != nil {
			c.onHandshake()
		}
	}))
}

// GlitchExperiment aggregates E2 over paired trials.
type GlitchExperiment struct {
	Trials               int
	UnprotectedDeadlocks uint64
	ProtectedDeadlocks   uint64
	UnprotectedRate      float64 // deadlocks per second
	ProtectedRate        float64
}

// RunGlitchExperiment executes the E2 experiment deterministically: the
// same glitch statistics drive both converter kinds.
func RunGlitchExperiment(trials int, seed uint64) GlitchExperiment {
	ex := GlitchExperiment{Trials: trials}
	var du, dp sim.Time
	for i := 0; i < trials; i++ {
		ru := RunGlitchTrial(DefaultGlitchConfig(Unprotected), seed+uint64(i)*2)
		ex.UnprotectedDeadlocks += ru.Deadlocks
		du += ru.Duration
		rp := RunGlitchTrial(DefaultGlitchConfig(Protected), seed+uint64(i)*2+1)
		ex.ProtectedDeadlocks += rp.Deadlocks
		dp += rp.Duration
	}
	if du > 0 {
		ex.UnprotectedRate = float64(ex.UnprotectedDeadlocks) / du.Seconds()
	}
	if dp > 0 {
		ex.ProtectedRate = float64(ex.ProtectedDeadlocks) / dp.Seconds()
	}
	return ex
}

// DeadlockRatio reports the unprotected:protected deadlock-rate ratio.
// exact is false when the protected circuit never deadlocked in the run,
// in which case the ratio is a lower bound computed with one notional
// protected deadlock.
func (ex GlitchExperiment) DeadlockRatio() (ratio float64, exact bool) {
	if ex.ProtectedDeadlocks == 0 {
		return float64(ex.UnprotectedDeadlocks), false
	}
	return float64(ex.UnprotectedDeadlocks) / float64(ex.ProtectedDeadlocks), true
}
