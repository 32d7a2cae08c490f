// Package bench regenerates every table and figure of the paper's
// evaluation (Sec. 6 and the appendices) on the scaled-down workloads.
// Each experiment returns structured rows plus a formatted text table;
// cmd/hotdog prints them and EXPERIMENTS.md records paper-vs-measured.
//
// The package evaluates nothing itself, and runs only the engine's own
// paths. Every strategy it measures — re-evaluation, classical
// (first-order) IVM and recursive IVM — is a program from
// internal/compile run by compile.Executor, so all three are timed
// through the same ApplyBatch and counted by the same eval.Stats,
// base-table upkeep included. Tuple-at-a-time execution is a stream of
// one-event batches. The distributed experiments deal every batch over
// the workers with cluster.RunPartitionedBatch, the engine's own entry,
// and report the cluster's virtual time, which it computes from counted
// work; Fig. 10's re-evaluation stand-in is charged on the same clock.
package bench

import (
	"fmt"
	"strings"
	"time"
)

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries interpretation guidance (what shape to expect).
	Notes string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		writeRow(r)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func d3(d time.Duration) string {
	return fmt.Sprintf("%.3gs", d.Seconds())
}

// BatchSizes is the paper's local batch-size sweep.
var BatchSizes = []int{1, 10, 100, 1000, 10000}
