package sim

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.AtP(30, Func(func() { got = append(got, 3) }))
	e.AtP(10, Func(func() { got = append(got, 1) }))
	e.AtP(20, Func(func() { got = append(got, 2) }))
	e.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.AtP(5, Func(func() { got = append(got, i) }))
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("events at equal time not FIFO: got[%d]=%d", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New(1)
	count := 0
	var recur func()
	recur = func() {
		count++
		if count < 10 {
			e.AfterP(7, Func(recur))
		}
	}
	e.AfterP(7, Func(recur))
	e.Run()
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
	if e.Now() != 70 {
		t.Errorf("Now() = %v, want 70", e.Now())
	}
}

// TestZeroDelayOntoLowerDomain: an event scheduled at the running
// event's own instant on a domain with a lower id runs next. Its new
// head climbs the tournament while the running domain's leaf still shows
// the event being run; only then does that leaf catch up.
func TestZeroDelayOntoLowerDomain(t *testing.T) {
	e := New(1)
	doms := make([]*Domain, 8)
	for i := range doms {
		doms[i] = e.Domain(i)
	}
	type fired struct {
		at Time
		id int
	}
	var got []fired
	mark := func(d *Domain) Payload {
		return Func(func() { got = append(got, fired{e.Now(), d.ID()}) })
	}
	doms[2].AtP(50, mark(doms[2]))
	doms[6].AtP(10, mark(doms[6]))
	doms[5].AtP(10, Func(func() {
		got = append(got, fired{e.Now(), 5})
		doms[2].AtP(e.Now(), mark(doms[2]))
		doms[5].AfterP(10, mark(doms[5]))
	}))
	e.Run()
	want := []fired{{10, 5}, {10, 2}, {10, 6}, {20, 5}, {50, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fired %v, want %v", got, want)
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := New(1)
	e.AtP(100, Func(func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.AtP(50, Func(func() {}))
	}))
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	ran := 0
	e.AtP(10, Func(func() { ran++ }))
	e.AtP(20, Func(func() { ran++ }))
	e.AtP(30, Func(func() { ran++ }))
	e.RunUntil(20)
	if ran != 2 {
		t.Errorf("ran = %d, want 2", ran)
	}
	if e.Now() != 20 {
		t.Errorf("Now() = %v, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", e.Pending())
	}
	// Deadline beyond all events advances the clock to the deadline.
	e.RunUntil(100)
	if e.Now() != 100 || ran != 3 {
		t.Errorf("Now()=%v ran=%d, want 100, 3", e.Now(), ran)
	}
}

func TestStop(t *testing.T) {
	e := New(1)
	ran := 0
	e.AtP(10, Func(func() { ran++; e.Stop() }))
	e.AtP(20, Func(func() { ran++ }))
	e.Run()
	if ran != 1 {
		t.Errorf("ran = %d, want 1 (Stop should halt Run)", ran)
	}
	e.Run() // resumes
	if ran != 2 {
		t.Errorf("ran = %d, want 2 after resume", ran)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed uint64) []float64 {
		e := New(seed)
		var out []float64
		for i := 0; i < 50; i++ {
			d := Time(e.RNG().Intn(1000))
			e.AfterP(d, Func(func() { out = append(out, e.RNG().Float64()) }))
		}
		e.Run()
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs with equal seed diverged at %d", i)
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.5us"},
		{2 * Millisecond, "2ms"},
		{3 * Second, "3s"},
		{Forever, "forever"},
		{-1500, "-1.5us"},
		{-Forever - 1, "-9223372036854775808ns"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestRNGUniformProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		// Means of 1000 uniform draws should be near 0.5.
		sum := 0.0
		for i := 0; i < 1000; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
			sum += v
		}
		m := sum / 1000
		return m > 0.4 && m < 0.6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for n := 1; n < 40; n++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		p := r.Perm(64)
		seen := make([]bool, 64)
		for _, v := range p {
			if v < 0 || v >= 64 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(9)
	const rate = 4.0
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.Exp(rate)
	}
	got := sum / n
	if got < 0.22 || got > 0.28 {
		t.Errorf("Exp(%g) sample mean %g, want ~0.25", rate, got)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	a := NewRNG(1)
	b := a.Fork()
	// Forked stream must not mirror the parent.
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("fork produced %d/64 identical draws", same)
	}
}

func TestRunUntilEmptyQueueAdvancesClock(t *testing.T) {
	// With nothing queued at all, RunUntil still moves time forward so
	// "run for d" always means what it says.
	e := New(1)
	e.RunUntil(42 * Microsecond)
	if e.Now() != 42*Microsecond {
		t.Errorf("Now() = %v after RunUntil on empty queue, want 42us", e.Now())
	}
	// And never backwards.
	e.RunUntil(10 * Microsecond)
	if e.Now() != 42*Microsecond {
		t.Errorf("Now() = %v, RunUntil with a past deadline moved the clock", e.Now())
	}
}

func TestStopLeavesPendingEventsQueued(t *testing.T) {
	e := New(1)
	ran := 0
	e.AtP(10, Func(func() { ran++; e.Stop() }))
	e.AtP(20, Func(func() { ran++ }))
	e.AtP(30, Func(func() { ran++ }))
	e.Run()
	if ran != 1 {
		t.Fatalf("ran = %d, want 1 (Stop should halt after the current event)", ran)
	}
	if e.Pending() != 2 {
		t.Errorf("Pending() = %d after Stop, want 2 (events must stay queued)", e.Pending())
	}
	if e.Now() != 10 {
		t.Errorf("Now() = %v after Stop, want 10", e.Now())
	}
	e.Run()
	if ran != 3 || e.Pending() != 0 {
		t.Errorf("resume ran %d events with %d pending, want 3 and 0", ran, e.Pending())
	}
}

func TestRunBeforeIsStrictAndKeepsClock(t *testing.T) {
	e := New(1)
	ran := 0
	e.AtP(10, Func(func() { ran++ }))
	e.AtP(20, Func(func() { ran++ }))
	e.RunBefore(20)
	if ran != 1 {
		t.Errorf("ran = %d, want 1 (event at the limit must not run)", ran)
	}
	if e.Now() != 10 {
		t.Errorf("Now() = %v, want 10 (RunBefore must not advance past the last event)", e.Now())
	}
	if at, ok := e.NextAt(); !ok || at != 20 {
		t.Errorf("NextAt() = %v,%v, want 20,true", at, ok)
	}
}

// TestReservedKeys pins the three calls behind an elided completion on
// both schedulers: Reserve draws the sequence number AtP would have (so
// Scheduled and every later key are unchanged), AtReserved runs the
// event exactly where a plain AtP at the time of the reservation would
// have, and Passed places the never-scheduled key against the canonical
// order — other instants, the event now executing on the same domain
// (lower and higher sequence, a class-1 delivery), an event executing on
// another domain, and the quiescent instants RunUntil and Run leave.
func TestReservedKeys(t *testing.T) {
	e := New(1)
	lo, hi := e.Domain(2), e.Domain(5)
	var order []string
	note := func(s string) Payload { return Func(func() { order = append(order, s) }) }

	hi.AtP(100, note("hi-1"))
	reserved := hi.Reserve()
	hi.AtP(100, note("hi-3"))
	if reserved != 2 || hi.Scheduled() != 3 {
		t.Fatalf("Reserve drew %d with %d scheduled, want 2 of 3", reserved, hi.Scheduled())
	}
	anon := e.Reserve()
	e.AtP(100, note("anon-2"))
	e.AtReserved(100, anon, note("anon-1"))

	passed := map[string]bool{}
	ask := func(name string, d *Domain, at Time) Payload {
		return Func(func() {
			order = append(order, name)
			passed[name] = d.Passed(at, reserved)
			passed[name+" earlier"] = d.Passed(at-1, reserved)
			passed[name+" later"] = d.Passed(at+1, reserved)
		})
	}
	hi.Inject(100, 0, 1, 0, ask("same domain, lower sequence", hi, 100)) // shares hi-1's key; runs beside it
	hi.DeliverAtP(100, 7, 1, ask("same domain, class 1", hi, 100))
	lo.AtP(100, ask("lower domain executing", hi, 100))
	e.AtP(100, Func(func() { passed["anonymous executing"] = hi.Passed(100, reserved) }))
	e.RunUntil(99)
	if !hi.Passed(99, reserved) || hi.Passed(100, reserved) {
		t.Error("at quiescence after RunUntil(99): want the key passed at 99 and not at 100")
	}
	hi.AtReserved(100, reserved, note("hi-2"))
	hi.AtP(100, ask("same domain, higher sequence", hi, 100))
	e.Run()

	want := []string{"anon-1", "anon-2", "lower domain executing", "hi-1", "same domain, lower sequence", "hi-2", "hi-3",
		"same domain, higher sequence", "same domain, class 1"}
	// hi-1 and the injected ask share a key; either order of the two is canonical.
	if order[3] != "hi-1" {
		order[3], order[4] = order[4], order[3]
	}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("ran %q\nwant %q", order, want)
	}
	for name, want := range map[string]bool{
		"same domain, lower sequence":  false,
		"same domain, higher sequence": true,
		"same domain, class 1":         true,
		"lower domain executing":       false,
		"anonymous executing":          false,
	} {
		if passed[name] != want {
			t.Errorf("%s: Passed = %v, want %v", name, passed[name], want)
		}
		if name != "anonymous executing" && (!passed[name+" earlier"] || passed[name+" later"]) {
			t.Errorf("%s: an instant earlier passed = %v, an instant later = %v; want true, false", name, passed[name+" earlier"], passed[name+" later"])
		}
	}
	// Drained by Run, the clock stands at the last executed event (the
	// class-1 delivery on hi), not past it.
	if !hi.Passed(100, 99) || !lo.Passed(100, 99) || lo.Passed(101, 1) {
		t.Error("after Run: want local keys at 100 passed on both domains, and nothing at 101")
	}
	if !e.Passed(100, 99) || e.Passed(101, 1) {
		t.Error("after Run: want anonymous keys at 100 passed and at 101 not")
	}
	e.RunUntil(150)
	if !e.Passed(150, 1) || !hi.Passed(150, 1) || hi.Passed(151, 1) {
		t.Error("after RunUntil(150): want every key at 150 passed and none at 151")
	}
}
