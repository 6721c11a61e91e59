package phy

import (
	"testing"
	"testing/quick"
)

func TestCodebookShape(t *testing.T) {
	for _, code := range []Code{RTZ3of6, NRZ2of7} {
		cb := NewCodebook(code)
		seen := make(map[uint8]bool)
		for s := 0; s <= EOP; s++ {
			m := cb.Mask(s)
			if popcount8(m) != code.Weight() {
				t.Errorf("%v symbol %d mask %#b has weight %d, want %d",
					code, s, m, popcount8(m), code.Weight())
			}
			if int(m) >= 1<<code.Wires() {
				t.Errorf("%v symbol %d mask %#b uses wires beyond %d", code, s, m, code.Wires())
			}
			if seen[m] {
				t.Errorf("%v mask %#b assigned twice", code, m)
			}
			seen[m] = true
		}
	}
}

func TestCodebookRoundTrip(t *testing.T) {
	for _, code := range []Code{RTZ3of6, NRZ2of7} {
		cb := NewCodebook(code)
		for s := 0; s <= EOP; s++ {
			got, ok := cb.Symbol(cb.Mask(s))
			if !ok || got != s {
				t.Errorf("%v: decode(encode(%d)) = %d, %v", code, s, got, ok)
			}
		}
	}
}

func TestCodebookRejectsInvalidMasks(t *testing.T) {
	cb := NewCodebook(NRZ2of7)
	if _, ok := cb.Symbol(0); ok {
		t.Error("zero mask decoded")
	}
	if _, ok := cb.Symbol(0x7f); ok {
		t.Error("all-wires mask decoded")
	}
}

func TestPaperTransitionCounts(t *testing.T) {
	// Section 5.1: "a 2-of-7 NRZ code uses 3 off-chip wire transitions
	// to send 4 bits of data; a 3-of-6 RTZ code uses 8 wire transitions
	// to send the same 4 bits."
	if got := NRZ2of7.TransitionsPerSymbol(); got != 3 {
		t.Errorf("NRZ transitions/symbol = %d, want 3", got)
	}
	if got := RTZ3of6.TransitionsPerSymbol(); got != 8 {
		t.Errorf("RTZ transitions/symbol = %d, want 8", got)
	}
}

func TestPaperRoundTrips(t *testing.T) {
	// Section 5.1: RTZ needs two complete out-and-return loops per
	// symbol, NRZ one — "effectively doubling the throughput".
	if NRZ2of7.RoundTripsPerSymbol() != 1 || RTZ3of6.RoundTripsPerSymbol() != 2 {
		t.Error("round-trip counts do not match the paper")
	}
}

func TestSymbolPanicsOutOfRange(t *testing.T) {
	cb := NewCodebook(NRZ2of7)
	defer func() {
		if recover() == nil {
			t.Error("Mask(17+1) did not panic")
		}
	}()
	cb.Mask(EOP + 1)
}

func TestTxRxStream(t *testing.T) {
	for _, code := range []Code{RTZ3of6, NRZ2of7} {
		tx := NewTx(code)
		rx := NewRx(code)
		frame := []byte{0x00, 0xff, 0xa5, 0x3c, 0x01}
		// Wire the two directly: replay change masks into the receiver.
		replay := func(sym int) { rx.Receive(tx.book.Mask(sym)) }
		for _, b := range frame {
			replay(int(b & 0xf))
			replay(int(b >> 4))
		}
		replay(EOP)
		frames := rx.Frames()
		if len(frames) != 1 {
			t.Fatalf("%v: got %d frames, want 1", code, len(frames))
		}
		got := frames[0]
		if len(got) != len(frame) {
			t.Fatalf("%v: frame length %d, want %d", code, len(got), len(frame))
		}
		for i := range frame {
			if got[i] != frame[i] {
				t.Errorf("%v: byte %d = %#x, want %#x", code, i, got[i], frame[i])
			}
		}
	}
}

func TestTxTransitionAccounting(t *testing.T) {
	tx := NewTx(NRZ2of7)
	tx.SendFrame([]byte{0x12, 0x34})
	// 4 data symbols + EOP = 5 symbols, 2 transitions each (NRZ data
	// wires only; the ack is counted by the link model).
	if tx.Symbols != 5 {
		t.Errorf("symbols = %d, want 5", tx.Symbols)
	}
	if tx.Transitions != 10 {
		t.Errorf("transitions = %d, want 10", tx.Transitions)
	}

	tx = NewTx(RTZ3of6)
	tx.SendFrame([]byte{0x12, 0x34})
	if tx.Transitions != 30 { // 5 symbols x 3 wires x up+down
		t.Errorf("RTZ transitions = %d, want 30", tx.Transitions)
	}

	// The analytic figures E1 reads are the encoder's data-wire
	// transitions plus the acknowledge's: one toggle per NRZ symbol, a
	// rise and a fall per RTZ symbol.
	frame := []byte{0x00, 0xff, 0xa5, 0x3c, 0x01}
	for code, ack := range map[Code]int{NRZ2of7: 1, RTZ3of6: 2} {
		tx := NewTx(code)
		tx.SendFrame(frame)
		cost := LinkParams{Code: code}.FrameCost(len(frame))
		if got := tx.Transitions + ack*tx.Symbols; got != cost.Transitions || tx.Symbols != cost.Symbols {
			t.Errorf("%v: encoder made %d transitions in %d symbols, FrameCost says %d in %d",
				code, got, tx.Symbols, cost.Transitions, cost.Symbols)
		}
	}
}

func TestNRZStateEvolution(t *testing.T) {
	// NRZ wire levels must toggle by exactly the codeword mask.
	tx := NewTx(NRZ2of7)
	prev := tx.State()
	for s := 0; s < 16; s++ {
		mask := tx.SendSymbol(s)
		if tx.State()^prev != mask {
			t.Fatalf("state delta %#b, want %#b", tx.State()^prev, mask)
		}
		prev = tx.State()
	}
}

func TestRxErrorCounting(t *testing.T) {
	rx := NewRx(NRZ2of7)
	rx.Receive(0)    // invalid
	rx.Receive(0x7f) // invalid
	if rx.Errors != 2 {
		t.Errorf("Errors = %d, want 2", rx.Errors)
	}
}

func TestStreamRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) > 256 {
			data = data[:256]
		}
		tx := NewTx(NRZ2of7)
		rx := NewRx(NRZ2of7)
		for _, b := range data {
			rx.Receive(tx.book.Mask(int(b & 0xf)))
			rx.Receive(tx.book.Mask(int(b >> 4)))
		}
		rx.Receive(tx.book.Mask(EOP))
		frames := rx.Frames()
		if len(frames) != 1 || len(frames[0]) != len(data) {
			return false
		}
		for i := range data {
			if frames[0][i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
