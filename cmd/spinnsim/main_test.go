package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool builds spinnsim into a temporary directory, returning the
// binary's path and the directory.
func buildTool(t *testing.T) (bin, dir string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir = t.TempDir()
	bin = filepath.Join(dir, "spinnsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin, dir
}

// TestProfilesWrittenOnBothPaths checks that -cpuprofile and
// -memprofile leave non-empty files whether the run goes through
// -workload or through -restore, on a checkpoint round trip: the
// workload run writes the image the restore run resumes from. The
// restore run must report a rate for every population in the image and
// draw its raster over the 20 ms it ran, not over the image's first
// 20 ms.
func TestProfilesWrittenOnBothPaths(t *testing.T) {
	bin, dir := buildTool(t)
	image := filepath.Join(dir, "quickstart.snap")
	for _, run := range []struct {
		name string
		args []string
	}{
		{"workload", []string{"-workload", "quickstart", "-snapshot", image}},
		{"restore", []string{"-restore", image, "-ms", "20", "-raster"}},
	} {
		cpu, mem := filepath.Join(dir, run.name+".cpu"), filepath.Join(dir, run.name+".mem")
		args := append(run.args, "-cpuprofile", cpu, "-memprofile", mem)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s: spinnsim %v: %v\n%s", run.name, args, err, out)
		}
		for _, path := range []string{cpu, mem} {
			if st, err := os.Stat(path); err != nil || st.Size() == 0 {
				t.Errorf("%s: profile %s missing or empty (%v)", run.name, filepath.Base(path), err)
			}
		}
		if run.name != "restore" {
			continue
		}
		for _, line := range []string{"bio time:        220 ms\n", "\nstim rate:", "\nexc rate:"} {
			if !strings.Contains(string(out), line) {
				t.Errorf("restore output lacks %q:\n%s", line, out)
			}
		}
		if drawn := rasterColumns(string(out)); drawn == 0 || drawn > 20 {
			t.Errorf("restore raster draws %d of its 1 ms columns, want 1..20:\n%s", drawn, out)
		}
	}
}

// TestUsageErrors checks that every command line whose flags would be
// ignored, or that names no machine, exits with status 2 before running
// anything.
func TestUsageErrors(t *testing.T) {
	bin, _ := buildTool(t)
	for _, args := range [][]string{
		{},
		{"-raster"},
		{"-workload", "quickstart", "-restore", "q.snap"},
		{"-workloads", "-workload", "quickstart"},
		{"-workload", "quickstart", "-ms", "5"},
		{"-restore", "q.snap", "-ms", "0"},
		{"bogus", "-workload", "quickstart"},
		{"-workload", "quickstart", "bogus"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if code := exitCode(err); code != 2 {
			t.Errorf("spinnsim %v: exit status %d, want 2\n%s", args, code, out)
		} else if !strings.HasPrefix(string(out), "spinnsim: ") {
			t.Errorf("spinnsim %v: the error does not lead the output:\n%s", args, out)
		}
	}
}

// rasterColumns reports one past the last raster column with a spike in
// it (0 for an empty or missing raster).
func rasterColumns(out string) int {
	_, raster, ok := strings.Cut(out, "\nraster of ")
	if !ok {
		return 0
	}
	last := 0
	for _, row := range strings.Split(raster, "\n")[1:] {
		if n := len(strings.TrimRight(row, " ")); n > last {
			last = n
		}
	}
	return last
}

// exitCode reports a finished command's exit status (0 on success).
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return -1
}
