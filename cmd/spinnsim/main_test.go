package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestProfilesWrittenOnBothPaths builds the tool and checks that
// -cpuprofile and -memprofile leave non-empty files whether the run goes
// through the flag-built model or through -workload (which used to
// return before the heap profile was written).
func TestProfilesWrittenOnBothPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "spinnsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for name, args := range map[string][]string{
		"flags":    {"-w", "2", "-h", "2", "-ms", "20"},
		"workload": {"-workload", "quickstart"},
	} {
		cpu, mem := filepath.Join(dir, name+".cpu"), filepath.Join(dir, name+".mem")
		args = append(args, "-cpuprofile", cpu, "-memprofile", mem)
		if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Fatalf("%s: spinnsim %v: %v\n%s", name, args, err, out)
		}
		for _, path := range []string{cpu, mem} {
			if st, err := os.Stat(path); err != nil || st.Size() == 0 {
				t.Errorf("%s: profile %s missing or empty (%v)", name, filepath.Base(path), err)
			}
		}
	}
}
