package phy

import "testing"

func TestTokenLinkCirculates(t *testing.T) {
	l := NewTokenLink(InjectAbsorb)
	for i := 0; i < 40; i++ {
		l.Step()
	}
	if !l.Live() {
		t.Fatalf("healthy link not live: %d tokens", l.Tokens())
	}
	if l.Handshakes == 0 {
		t.Error("no handshakes completed")
	}
}

func TestResetBothEndsAbsorbed(t *testing.T) {
	// Paper: resetting both ends deliberately creates the 2-token
	// problem; the Fig-6 circuit absorbs the duplicate.
	l := NewTokenLink(InjectAbsorb)
	l.Step() // token in flight
	l.ResetEnd(true, true)
	for i := 0; i < 8; i++ {
		l.Step()
	}
	if !l.Live() {
		t.Errorf("link not live after dual reset: tokens=%d malfunctions=%d",
			l.Tokens(), l.Malfunctions)
	}
	if l.Absorbed == 0 {
		t.Error("expected the duplicate token to be absorbed")
	}
}

func TestNoInjectDeadlocksWhenTokenDestroyed(t *testing.T) {
	l := NewTokenLink(NoInject)
	// Token starts at the transmitter latch; resetting tx destroys it.
	l.ResetEnd(true, false)
	for i := 0; i < 8; i++ {
		l.Step()
	}
	if !l.Deadlocked() {
		t.Errorf("expected deadlock, have %d tokens", l.Tokens())
	}
}

func TestInjectNoAbsorbMalfunctions(t *testing.T) {
	l := NewTokenLink(InjectNoAbsorb)
	l.Step() // token leaves the latch
	l.ResetEnd(true, true)
	for i := 0; i < 8; i++ {
		l.Step()
	}
	if l.Malfunctions == 0 {
		t.Error("expected a malfunction from unabsorbed duplicate tokens")
	}
}

func TestE3TokenExperiment(t *testing.T) {
	const trials = 2000
	abs := RunTokenExperiment(InjectAbsorb, trials, 7)
	if abs.Recovered != trials {
		t.Errorf("inject-absorb recovered %d/%d (deadlocks=%d malfunctions=%d); the SpiNNaker protocol must always recover",
			abs.Recovered, trials, abs.Deadlocks, abs.Malfunctions)
	}
	no := RunTokenExperiment(NoInject, trials, 7)
	if no.Deadlocks == 0 {
		t.Error("no-inject strategy never deadlocked; experiment is not exercising token destruction")
	}
	raw := RunTokenExperiment(InjectNoAbsorb, trials, 7)
	if raw.Malfunctions == 0 {
		t.Error("inject-no-absorb never malfunctioned; experiment is not exercising duplication")
	}
}

func TestTokenInvariantNeverExceedsTwoAfterSingleReset(t *testing.T) {
	for phase := 0; phase < 4; phase++ {
		l := NewTokenLink(InjectAbsorb)
		for i := 0; i < phase; i++ {
			l.Step()
		}
		l.ResetEnd(true, true)
		if l.Tokens() > 3 {
			t.Errorf("phase %d: %d tokens right after reset", phase, l.Tokens())
		}
		for i := 0; i < 8; i++ {
			l.Step()
		}
		if l.Tokens() != 1 {
			t.Errorf("phase %d: settled with %d tokens", phase, l.Tokens())
		}
	}
}

// Live reports whether the link holds exactly one token.
func (l *TokenLink) Live() bool { return l.Tokens() == 1 && l.Malfunctions == 0 }
