package phy

import "spinngo/internal/sim"

// Token-reset protocol (section 5.1): an inter-chip link is a cycle with
// a single token passed from end to end. Resetting one end can destroy
// the token (deadlock) or, naively repaired, create a second token
// (malfunction). SpiNNaker's solution is to have *both* transmitter and
// receiver inject a token when they exit reset — deliberately creating
// the two-token problem — and rely on the Fig-6 circuit to absorb a
// second token that arrives while the first awaits data.
//
// The model below is a four-stage token pipeline:
//
//	TxHold -> TxToRx (wire) -> RxHold -> RxToTx (ack wire) -> TxHold
//
// A reset clears the token latches at the reset end (wires are not
// resettable) and then applies the chosen injection strategy. The
// experiment subjects each strategy to random reset storms and classifies
// the settled link as live (exactly one token), deadlocked (zero) or
// malfunctioning (two or more surviving).

// ResetStrategy selects the recovery behaviour on reset-exit.
type ResetStrategy int

const (
	// NoInject: reset clears latches and injects nothing.
	NoInject ResetStrategy = iota
	// InjectNoAbsorb: each reset end injects a token, but duplicate
	// tokens are not absorbed.
	InjectNoAbsorb
	// InjectAbsorb is the SpiNNaker protocol: each reset end injects a
	// token, and a token arriving at the transmitter while one is
	// already held is absorbed and ignored (Fig 6).
	InjectAbsorb
)

func (s ResetStrategy) String() string {
	switch s {
	case NoInject:
		return "no-inject"
	case InjectNoAbsorb:
		return "inject-no-absorb"
	default:
		return "inject-absorb"
	}
}

// tokenSlot is a stage of the link cycle.
type tokenSlot int

const (
	slotTxHold tokenSlot = iota
	slotTxToRx
	slotRxHold
	slotRxToTx
	numSlots
)

// TokenLink is the four-stage pipeline with token counts per stage.
type TokenLink struct {
	strategy ResetStrategy
	tokens   [numSlots]int
	// Malfunctions counts unabsorbed token collisions observed.
	Malfunctions int
	// Absorbed counts duplicate tokens removed by the Fig-6 absorber.
	Absorbed int
	// Handshakes counts complete cycles (a token re-entering TxHold).
	Handshakes int
}

// NewTokenLink returns a live link holding its single token at the
// transmitter.
func NewTokenLink(strategy ResetStrategy) *TokenLink {
	l := &TokenLink{strategy: strategy}
	l.tokens[slotTxHold] = 1
	return l
}

// Tokens reports the total number of tokens in the cycle.
func (l *TokenLink) Tokens() int {
	n := 0
	for _, c := range l.tokens {
		n += c
	}
	return n
}

// Deadlocked reports whether the link has no token left.
func (l *TokenLink) Deadlocked() bool { return l.Tokens() == 0 }

// Step advances the handshake one stage. The wires and receiver forward
// unconditionally; the transmitter releases a token into the link only
// when the link is idle (the previous handshake's ack has returned) —
// this is what makes a second token *arrive at the transmitter while it
// is awaiting data to send with the first*, the situation the Fig-6
// absorber handles.
func (l *TokenLink) Step() {
	prev := l.tokens
	var next [numSlots]int
	// Forward the in-flight stages.
	next[slotRxHold] = prev[slotTxToRx]
	next[slotRxToTx] = prev[slotRxHold]
	// Acks arriving back at the transmitter complete handshakes.
	next[slotTxHold] = prev[slotTxHold] + prev[slotRxToTx]
	l.Handshakes += prev[slotRxToTx]
	// Transmitter release: only when no token is anywhere in flight.
	if next[slotTxHold] > 0 && prev[slotTxToRx] == 0 && prev[slotRxHold] == 0 && prev[slotRxToTx] == 0 {
		next[slotTxHold]--
		next[slotTxToRx]++
	}
	l.tokens = next
	l.settleCollisions()
}

// settleCollisions applies the transmitter-latch rule: wire and receiver
// stages are delay elements that may transiently carry several tokens,
// but the transmitter latch holds one. A second token reaching it is
// absorbed by the Fig-6 circuit, or — without the absorber — produces a
// spurious request, which we record as a malfunction and collapse so the
// simulation can continue.
func (l *TokenLink) settleCollisions() {
	for l.tokens[slotTxHold] > 1 {
		l.tokens[slotTxHold]--
		if l.strategy == InjectAbsorb {
			l.Absorbed++
		} else {
			l.Malfunctions++
		}
	}
}

// ResetEnd models a hardware reset of one or both ends: latches at the
// reset end(s) lose their tokens; wires keep theirs; then reset-exit
// injection runs per the strategy.
func (l *TokenLink) ResetEnd(tx, rx bool) {
	if tx {
		l.tokens[slotTxHold] = 0
	}
	if rx {
		l.tokens[slotRxHold] = 0
	}
	if l.strategy == NoInject {
		return
	}
	if tx {
		l.tokens[slotTxHold]++
	}
	if rx {
		// The receiver's injected token enters the ack path back to
		// the transmitter.
		l.tokens[slotRxToTx]++
	}
	l.settleCollisions()
}

// TokenExperimentResult summarises a reset-storm run for one strategy.
type TokenExperimentResult struct {
	Strategy     ResetStrategy
	Trials       int
	Deadlocks    int // settled with zero tokens
	Malfunctions int // settled with a recorded collision outside the absorber
	Recovered    int // settled live with exactly one token
}

// RunTokenExperiment subjects a link to `trials` random reset events
// (transmitter, receiver, or both simultaneously, at a random pipeline
// phase) and classifies the settled state after each. Deterministic
// given the seed.
func RunTokenExperiment(strategy ResetStrategy, trials int, seed uint64) TokenExperimentResult {
	rng := sim.NewRNG(seed)
	res := TokenExperimentResult{Strategy: strategy, Trials: trials}
	for i := 0; i < trials; i++ {
		l := NewTokenLink(strategy)
		// Advance to a random phase so the token may be anywhere.
		for s := rng.Intn(int(numSlots)); s > 0; s-- {
			l.Step()
		}
		switch rng.Intn(3) {
		case 0:
			l.ResetEnd(true, false)
		case 1:
			l.ResetEnd(false, true)
		default:
			l.ResetEnd(true, true)
		}
		// Let the pipeline settle for two full cycles so duplicate
		// tokens reach the transmitter and are absorbed (or collide).
		for s := 0; s < 2*int(numSlots); s++ {
			l.Step()
		}
		switch {
		case l.Deadlocked():
			res.Deadlocks++
		case l.Tokens() == 1 && l.Malfunctions == 0:
			res.Recovered++
		default:
			res.Malfunctions++
		}
	}
	return res
}
