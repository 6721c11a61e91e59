package workload

import (
	"reflect"
	"strings"
	"testing"

	"spinngo/internal/topo"
)

// minimal returns the smallest valid document, for mutation tests.
func minimal() string {
	return `{
  "schema": 1,
  "name": "t",
  "machine": {"width": 4, "height": 4},
  "populations": [{"name": "p", "kind": "poisson", "size": 8, "rate_hz": 10}],
  "run": {"bio_ms": 10}
}`
}

func TestParseMinimal(t *testing.T) {
	w, err := Parse([]byte(minimal()))
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "t" || w.Machine.Width != 4 || len(w.Populations) != 1 {
		t.Fatalf("parsed %+v", w)
	}
}

func TestRegistryAllValid(t *testing.T) {
	names := Names()
	if len(names) < 7 {
		t.Fatalf("registry has %d workloads, want >= 7: %v", len(names), names)
	}
	for _, name := range names {
		w, err := Get(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if w.Name != name {
			t.Errorf("%s: document names itself %q", name, w.Name)
		}
		if w.Campaign != nil {
			// Expansion of a validated campaign must not panic and must
			// produce only concrete kinds.
			for _, f := range w.Campaign.Expand(w.Machine.Width, w.Machine.Height) {
				switch f.Kind {
				case EvFailLink, EvRepairLink, EvFailChip:
				default:
					t.Errorf("%s: expansion left macro kind %q", name, f.Kind)
				}
			}
		}
	}
}

// TestParseRejects pins the strict-parser contract: every malformed or
// out-of-range document fails with an error naming the position (line
// and column for decode errors, the JSON path for semantic ones).
func TestParseRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // substring of the error
	}{
		{"unknown key", `{"schema":1,"bogus":3}`, `unknown field "bogus"`},
		{"unknown key position", "{\n  \"schema\": 1,\n  \"bogus\": 3\n}", "3:"},
		{"syntax error", "{\n  \"schema\": 1,,\n}", "2:"},
		{"type error", `{"schema":1,"name":7}`, "1:"},
		{"trailing data", minimal() + "{}", "trailing data"},
		{"wrong schema", strings.Replace(minimal(), `"schema": 1`, `"schema": 2`, 1), "schema 2"},
		{"no name", strings.Replace(minimal(), `"name": "t",`, ``, 1), "name: required"},
		{"zero machine", strings.Replace(minimal(), `"width": 4`, `"width": 0`, 1), "machine: size"},
		{"no populations", strings.Replace(minimal(), `[{"name": "p", "kind": "poisson", "size": 8, "rate_hz": 10}]`, `[]`, 1), "populations: at least one"},
		{"bad pop kind", strings.Replace(minimal(), `"kind": "poisson"`, `"kind": "hodgkin"`, 1), `populations[0].kind: unknown "hodgkin"`},
		{"bad pop size", strings.Replace(minimal(), `"size": 8`, `"size": -8`, 1), "populations[0].size"},
		{"negative rate", strings.Replace(minimal(), `"rate_hz": 10`, `"rate_hz": -1`, 1), "populations[0].rate_hz"},
		{"zero run", strings.Replace(minimal(), `"bio_ms": 10`, `"bio_ms": 0`, 1), "run.bio_ms"},
		{"bad redundancy", strings.Replace(minimal(), `"width": 4, "height": 4`, `"width": 4, "height": 4, "fill_redundancy": 9`, 1), "fill_redundancy"},
		{"untileable boards", withMachine(`"boards": "3x3"`), "machine.boards:"},
		{"malformed boards", withMachine(`"boards": "4by4"`), "machine.boards:"},
		{"unknown board link", withMachine(`"boards": "2x2", "board_link": "warp"`), `machine.board_link: unknown link preset "warp"`},
		{"board link without boards", withMachine(`"board_link": "slow"`), "machine.board_link:"},
		{"cabinets without boards", withMachine(`"cabinets": "1x1"`), "machine.cabinets: requires machine.boards"},
		{"untileable cabinets", withMachine(`"boards": "2x2", "cabinets": "9x9"`), "machine.cabinets:"},
		{"unknown cabinet link", withMachine(`"boards": "2x2", "cabinets": "1x1", "cabinet_link": "warp"`), "machine.cabinet_link: unknown"},
		{"cabinet link without cabinets", withMachine(`"boards": "2x2", "cabinet_link": "uniform"`), "machine.cabinet_link:"},
		{"removed repartition key", withMachine(`"repartition": true`), `4:40: unknown field "repartition"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("accepted %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// withMachine splices extra machine keys into the minimal document.
func withMachine(keys string) string {
	return strings.Replace(minimal(), `"width": 4, "height": 4`, `"width": 4, "height": 4, `+keys, 1)
}

// TestParseLevels accepts every well-formed packaging hierarchy: boards
// alone, boards in cabinets, and either level's uniform preset.
func TestParseLevels(t *testing.T) {
	for _, keys := range []string{
		`"boards": "2x2"`,
		`"boards": "4x2", "board_link": "uniform"`,
		`"boards": "2x2", "board_link": "slow", "cabinets": "2x1", "cabinet_link": "slow"`,
		`"boards": "2x2", "cabinets": "1x1", "cabinet_link": "uniform"`,
	} {
		if _, err := Parse([]byte(withMachine(keys))); err != nil {
			t.Errorf("%s: %v", keys, err)
		}
	}
}

// withCampaign splices a campaign into the minimal document.
func withCampaign(events string) string {
	return strings.Replace(minimal(), `"run": {"bio_ms": 10}`,
		`"run": {"bio_ms": 10}, "campaign": {"seed": 3, "events": [`+events+`]}`, 1)
}

func TestCampaignRejects(t *testing.T) {
	cases := []struct {
		name string
		ev   string
		want string
	}{
		{"negative time", `{"at_ms": -1, "kind": "fail_chip", "x": 1, "y": 1}`, "events[0].at_ms: -1 is negative"},
		{"beyond run", `{"at_ms": 10, "kind": "fail_chip", "x": 1, "y": 1}`, "beyond the 10ms run"},
		{"chip out of range", `{"at_ms": 1, "kind": "fail_chip", "x": 4, "y": 0}`, "chip (4,0) outside the 4x4 machine"},
		{"negative coord", `{"at_ms": 1, "kind": "fail_link", "x": -1, "y": 0, "dir": "E"}`, "chip (-1,0) outside"},
		{"bad dir", `{"at_ms": 1, "kind": "fail_link", "x": 1, "y": 0, "dir": "Q"}`, `events[0].dir: unknown "Q"`},
		{"bad kind", `{"at_ms": 1, "kind": "meteor", "x": 1, "y": 1}`, `events[0].kind: unknown "meteor"`},
		{"storm count", `{"at_ms": 1, "kind": "chip_storm", "count": 0}`, "events[0].count"},
		{"storm too big", `{"at_ms": 1, "kind": "chip_storm", "count": 5, "region": {"x": 0, "y": 0, "w": 2, "h": 2}}`, "exceeds the 4 chips"},
		{"storm region outside", `{"at_ms": 1, "kind": "chip_storm", "count": 1, "region": {"x": 3, "y": 3, "w": 2, "h": 2}}`, "outside the 4x4 machine"},
		{"sever needs region", `{"at_ms": 1, "kind": "sever"}`, "region: required"},
		{"sever everything", `{"at_ms": 1, "kind": "sever", "region": {"x": 0, "y": 0, "w": 4, "h": 4}}`, "whole machine"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(withCampaign(tc.ev)))
			if err == nil {
				t.Fatalf("accepted event %s", tc.ev)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseCampaignStandalone(t *testing.T) {
	doc := `{"schema": 1, "seed": 9, "events": [
  {"at_ms": 5, "kind": "fail_link", "x": 1, "y": 2, "dir": "NE"},
  {"at_ms": 7, "kind": "chip_storm", "count": 3}
]}`
	c, err := ParseCampaign([]byte(doc), 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Events) != 2 || c.Seed != 9 {
		t.Fatalf("parsed %+v", c)
	}
	if _, err := ParseCampaign([]byte(doc), 2, 2); err == nil {
		t.Error("storm of 3 on a 2x2 machine accepted")
	}
	if _, err := ParseCampaign([]byte(`{"seed": 9, "events": []}`), 4, 4); err == nil {
		t.Error("standalone campaign without schema accepted")
	}
}

// TestExpandDeterministic pins macro replay: the same document expands
// to the same faults every time, and a different seed moves the storm.
func TestExpandDeterministic(t *testing.T) {
	c := &Campaign{Seed: 5, Events: []Event{
		{AtMS: 3, Kind: EvChipStorm, Count: 4, Region: &Region{X: 1, Y: 1, W: 5, H: 5}},
	}}
	a := c.Expand(8, 8)
	b := c.Expand(8, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("expansion not replayable:\n%v\n%v", a, b)
	}
	if len(a) != 4 {
		t.Fatalf("storm expanded to %d faults, want 4", len(a))
	}
	seen := map[[2]int]bool{}
	for _, f := range a {
		if f.Kind != EvFailChip {
			t.Fatalf("storm expanded to %q", f.Kind)
		}
		if f.X < 1 || f.X >= 6 || f.Y < 1 || f.Y >= 6 {
			t.Fatalf("storm chip (%d,%d) escaped the region", f.X, f.Y)
		}
		if seen[[2]int{f.X, f.Y}] {
			t.Fatalf("storm killed (%d,%d) twice", f.X, f.Y)
		}
		seen[[2]int{f.X, f.Y}] = true
	}
	c2 := &Campaign{Seed: 6, Events: c.Events}
	if reflect.DeepEqual(a, c2.Expand(8, 8)) {
		t.Error("different seeds drew the identical storm")
	}
}

// TestExpandSever pins the sever macro: exactly the links crossing the
// region boundary fail, and none inside it.
func TestExpandSever(t *testing.T) {
	region := &Region{X: 2, Y: 2, W: 2, H: 2}
	c := &Campaign{Events: []Event{{AtMS: 1, Kind: EvSever, Region: region}}}
	faults := c.Expand(8, 8)
	if len(faults) == 0 {
		t.Fatal("sever expanded to nothing")
	}
	for _, f := range faults {
		if f.Kind != EvFailLink || f.AtMS != 1 {
			t.Fatalf("sever expanded to %+v", f)
		}
		if !region.contains(topo.Coord{X: f.X, Y: f.Y}) {
			t.Fatalf("sever failed a link from (%d,%d), outside the region", f.X, f.Y)
		}
	}
	// A 2x2 region on the triangular-mesh torus has 4 chips x 6 dirs =
	// 24 outgoing links, of which the 2 internal pairs per axis stay:
	// every fault must name a distinct (chip, dir).
	seen := map[string]bool{}
	for _, f := range faults {
		k := f.Dir + string(rune('0'+f.X)) + string(rune('0'+f.Y))
		if seen[k] {
			t.Fatalf("duplicate sever fault %+v", f)
		}
		seen[k] = true
	}
}

func TestLineCol(t *testing.T) {
	data := []byte("ab\ncd\nef")
	if l, c := lineCol(data, 0); l != 1 || c != 1 {
		t.Errorf("offset 0 at %d:%d", l, c)
	}
	if l, c := lineCol(data, 4); l != 2 || c != 2 {
		t.Errorf("offset 4 at %d:%d", l, c)
	}
	if l, c := lineCol(data, 99); l != 3 || c != 3 {
		t.Errorf("clamped offset at %d:%d", l, c)
	}
}
