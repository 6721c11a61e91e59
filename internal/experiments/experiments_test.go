package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden experiment tables")

// requireMatch asserts an experiment's verdict confirms the paper claim,
// logs its table (go test -v prints it) and holds the rendered table to
// its golden, testdata/<ID>.txt. A table is a function of its seed, so
// any changed cell is a changed result: regenerate the goldens with
// `go test ./internal/experiments -update` in the change that moves it.
func requireMatch(t *testing.T, tbl *Table, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if tbl == nil {
		t.Fatal("nil table")
	}
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s: empty table", tbl.ID)
	}
	out := tbl.Render()
	t.Log(out)
	if !strings.HasPrefix(tbl.Verdict, "MATCHES PAPER") {
		t.Errorf("%s verdict: %s\n%s", tbl.ID, tbl.Verdict, out)
	}
	golden := filepath.Join("testdata", tbl.ID+".txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%s: no golden table (%v); generate it with `go test ./internal/experiments -update`", tbl.ID, err)
	}
	if out != string(want) {
		t.Errorf("%s table differs from %s (regenerate with -update if the change is intended):\n--- golden ---\n%s--- got ---\n%s",
			tbl.ID, golden, want, out)
	}
}

func TestE1(t *testing.T) { requireMatch(t, E1LinkCodes(), nil) }

func TestE2(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo experiment")
	}
	requireMatch(t, E2GlitchDeadlock(3, 42), nil)
}

func TestE3(t *testing.T) { requireMatch(t, E3TokenReset(500, 7), nil) }

func TestE4(t *testing.T) {
	if testing.Short() {
		t.Skip("long kernel sweep")
	}
	requireMatch(t, E4EventKernel(1), nil)
}

func TestE5(t *testing.T) {
	tbl, err := E5DeliveryLatency([]int{4, 8, 16}, 30, 1)
	requireMatch(t, tbl, err)
}

func TestE6(t *testing.T) {
	tbl, err := E6EmergencyRouting(1)
	requireMatch(t, tbl, err)
}

func TestE7(t *testing.T) {
	tbl, err := E7DropPolicy(1)
	requireMatch(t, tbl, err)
}

func TestE8(t *testing.T) { requireMatch(t, E8MonitorElection(200, 1), nil) }

func TestE9(t *testing.T) {
	if testing.Short() {
		t.Skip("boot sweep")
	}
	tbl, err := E9FloodFill([]int{4, 8, 12}, []int{1, 2}, 1)
	requireMatch(t, tbl, err)
}

func TestE10(t *testing.T) { requireMatch(t, E10Energy(), nil) }

func TestE11(t *testing.T) {
	tbl, err := E11MulticastVsBroadcast(12, []int{10, 100, 1000}, 1)
	requireMatch(t, tbl, err)
}

func TestE12(t *testing.T) {
	tbl, err := E12Retina([]float64{0.05, 0.1, 0.2, 0.4}, 1)
	requireMatch(t, tbl, err)
}

func TestE13(t *testing.T) {
	tbl, err := E13DeferredEvents(1)
	requireMatch(t, tbl, err)
}

func TestE14(t *testing.T) { requireMatch(t, E14BoundedAsynchrony(1), nil) }

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("large mapping sweep")
	}
	tbl, err := AblationTableMinimisation(1)
	requireMatch(t, tbl, err)
	tbl, err = AblationPlacement(1)
	requireMatch(t, tbl, err)
}

func TestTableRender(t *testing.T) {
	tbl := &Table{ID: "X", Title: "t", Claim: "c", Columns: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	out := tbl.Render()
	for _, want := range []string{"== X: t ==", "paper claim: c", "a", "bb", "1", "2"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
