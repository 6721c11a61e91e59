package host

import (
	"bytes"
	"testing"

	"spinngo/internal/sim"
	"spinngo/internal/snap"
	"spinngo/internal/topo"
)

// busyHost issues one command of every kind on a 4x4 machine and stops
// mid-flight: resolved and unresolved commands in the table, flood-fill
// assemblies part-built on some chips, start flags set on others.
func busyHost(t *testing.T) *Host {
	t.Helper()
	eng, fab, ctl := bootedMachine(t, 4, 4)
	h := New(eng, fab, ctl, DefaultConfig())
	far := topo.Coord{X: 3, Y: 2}
	b := h.NewBatch(1)
	b.Ping(far)
	b.Start(topo.Coord{X: 1, Y: 1})
	b.WriteMem(far, 0x7000, []byte("synaptic data block"))
	b.ReadMem(far, 0x7000, 19)
	issue(t, eng, b)
	b = h.NewBatch(2)
	if _, err := b.FillMem(0x9000, bytes.Repeat([]byte{0xA5}, 4096)); err != nil {
		t.Fatal(err)
	}
	b.Ping(topo.Coord{X: 2, Y: 3})
	b.Launch()
	assembling := func() (n int) {
		for _, fs := range h.fills {
			for _, f := range fs.flags {
				n += int(f & fillTouched)
			}
		}
		return n
	}
	for step := 0; assembling() < 4; step++ {
		if step == 100000 {
			t.Fatal("the flood fill never reached four chips")
		}
		eng.RunUntil(eng.Now() + sim.Microsecond)
	}
	return h
}

func freshHost(t *testing.T, w, h int) *Host {
	t.Helper()
	eng, fab, ctl := bootedMachine(t, w, h)
	return New(eng, fab, ctl, DefaultConfig())
}

// TestHostSnapRoundTrip pins the one-description contract for the host:
// encode(x) decoded into a freshly attached y re-encodes to the same
// bytes, consuming the image exactly.
func TestHostSnapRoundTrip(t *testing.T) {
	for name, src := range map[string]*Host{"idle": freshHost(t, 4, 4), "busy": busyHost(t)} {
		t.Run(name, func(t *testing.T) {
			enc := snap.NewEncoder()
			src.Snap(enc)
			dec := snap.NewDecoder(enc.Bytes())
			dst := freshHost(t, 4, 4)
			dst.Snap(dec)
			if err := dec.Err(); err != nil {
				t.Fatal(err)
			}
			if dec.Remaining() != 0 {
				t.Fatalf("%d bytes left undecoded", dec.Remaining())
			}
			re := snap.NewEncoder()
			dst.Snap(re)
			if !bytes.Equal(re.Bytes(), enc.Bytes()) {
				t.Fatal("decoded host re-encodes differently")
			}
			if dst.Inflight() != src.Inflight() || len(dst.cmds) != len(src.cmds) {
				t.Fatalf("inflight %d/%d, commands %d/%d", dst.Inflight(), src.Inflight(), len(dst.cmds), len(src.cmds))
			}
		})
	}
}

// TestHostSnapRejectsBadImage: a host attached to another torus, an
// image cut inside each per-chip table, a fill-tree uplink past the six
// links and a strip cursor outside the command table are all errors.
func TestHostSnapRejectsBadImage(t *testing.T) {
	src := busyHost(t)
	enc := snap.NewEncoder()
	src.Snap(enc)
	image := enc.Bytes()

	dec := snap.NewDecoder(image)
	freshHost(t, 3, 3).Snap(dec)
	if dec.Err() == nil {
		t.Error("a 4x4 host image decoded onto a 3x3 torus")
	}

	// The image ends: fill tree (4 + 16 uplink bytes), 16 child counts,
	// two ints and the packet counter. Cut inside each table in turn.
	tail := 4 + 16 + 16*8 + 8 + 8 + 8
	uplinks := len(image) - tail + 4
	for _, cut := range []int{3, len(image) / 3, uplinks - 5, uplinks + 2, len(image) - 1} {
		dec := snap.NewDecoder(image[:cut])
		freshHost(t, 4, 4).Snap(dec)
		if dec.Err() == nil {
			t.Errorf("image cut at %d of %d decoded without error", cut, len(image))
		}
	}

	bad := bytes.Clone(image)
	bad[uplinks] = uint8(topo.NumDirs)
	dec = snap.NewDecoder(bad)
	freshHost(t, 4, 4).Snap(dec)
	if dec.Err() == nil {
		t.Error("a fill-tree uplink of 6 decoded without error")
	}

	src.strip = len(src.cmds) + 1
	enc = snap.NewEncoder()
	src.Snap(enc)
	dec = snap.NewDecoder(enc.Bytes())
	freshHost(t, 4, 4).Snap(dec)
	if dec.Err() == nil {
		t.Error("a strip cursor past the command table decoded without error")
	}
}
