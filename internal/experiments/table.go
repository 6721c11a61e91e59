// Package experiments contains the reproduction harness: one runner per
// quantitative claim of the paper (E1-E14 plus ablations A1-A2). Each
// runner builds its workload, executes it on the simulated machine, and
// returns a Table whose rows mirror what the paper reports. Every table
// is a function of its seed. This package's tests assert every verdict,
// log every table and hold each rendered table to its golden,
// testdata/<ID>.txt:
//
//	go test -v -run 'TestE|TestAblations' ./internal/experiments
//	go test ./internal/experiments -update   # rewrite the goldens
//
// Every verdict needs a row where its claim could fail. That row, per
// table: E1 "ratio NRZ/RTZ"; E2 "reduction factor"; E3 "inject-absorb"
// (the naive rows must fail); E4 1200 spikes/ms (of the light rows only
// one need hold real time); E5 none, no row nears 1 ms (the largest is
// 2.2 us); E6 "false 1" and "true 2"; E7 "8, cut link"; E8 19 and 20
// failed cores; E9 "load-time growth", but none for redundancy (1 and 2
// load in identical time and no row has a fault); E10 "node/pc ratio";
// E11 fanout 1000, where multicast equals broadcast; E12 5 and 10 %,
// and 40 %, where losses must show; E13 every
// "exact" cell; E14 100000 ppm, which must leave the one-tick envelope;
// A1 none for its title claim, as the verdict never reads "fits CAM";
// A2 "random", which must need more tree links than "serpentine".
package experiments

import (
	"fmt"
	"strings"
)

// Table is one experiment's output.
type Table struct {
	ID    string
	Title string
	// Claim quotes or paraphrases the paper's statement under test.
	Claim   string
	Columns []string
	Rows    [][]string
	// Verdict summarises whether the measured shape matches the claim.
	Verdict string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render produces an aligned text table.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(&b, "paper claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	if t.Verdict != "" {
		fmt.Fprintf(&b, "verdict: %s\n", t.Verdict)
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }
func u(v uint64) string   { return fmt.Sprintf("%d", v) }

func verdict(ok bool, okMsg, badMsg string) string {
	if ok {
		return "MATCHES PAPER — " + okMsg
	}
	return "DIVERGES — " + badMsg
}
