// Package bench reproduces the tables and figures of the paper's
// evaluation (Sec. 6 and the appendices) as tests on scaled-down
// workloads. Each TestFig* and TestTable* test asserts the paper's shape
// on work the engine counts, and prints its table under go test -v
// (make figures). The local figures count eval.Stats lookups, scans,
// emits and index builds per streamed or refreshed tuple; the
// distributed ones read the cluster's metrics: virtual latency, shuffled
// bytes and stages. Where a shape does not hold at test scale, the test
// names the query and the measured reason. EXPERIMENTS.md records paper
// against measured.
//
// The package evaluates nothing itself. Every strategy it compares,
// re-evaluation, classical (first-order) IVM and recursive IVM, is a
// program from internal/compile run by compile.Executor. The distributed
// figures enter each batch through cluster.RunPartitionedBatch, the
// engine's own entry.
package bench
