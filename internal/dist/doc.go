// Package dist compiles local trigger programs into distributed
// programs for the synchronous driver/worker platform of Sec. 4: local
// computation blocks interleaved with data-movement transformers.
//
// Mapping to the paper's concepts:
//
//   - Loc / PartInfo are the location annotations of Sec. 4.2: every
//     materialized view is local to the driver (Local), hash-partitioned
//     over the workers by a key (Dist), partitioned with no placement
//     invariant (Random, e.g. per-batch results that lost their key), or
//     location-indifferent/replicated (Indiff).
//   - ChoosePartitioning is the co-partitioning heuristic of Sec. 6.2:
//     partition each view on the highest-cardinality key column in its
//     schema, replicate small dimension views, keep scalars at the
//     driver. Update batches, which the workers ingest, are keyed the
//     same way, so a trigger meets its batch where the views it joins
//     live; a batch with no ranked column is Random, dealt round-robin.
//     One static rule then replicates a view the ranks would partition
//     when its writers fold only what their trigger already broadcasts
//     and the replicas save a stage, and another reads a batch at the
//     driver when its trigger only pre-aggregates it on its deal key: the
//     driver deals the pre-aggregate instead of the raw rows (Place).
//   - Xform models the transformers of Sec. 4.3: scatter (driver to
//     workers, keyed or broadcast), repartition (worker exchange), and
//     gather (workers to driver).
//   - CompileProgram is the distributed trigger compiler of Sec. 4.4: at
//     O0 it evaluates every statement at the driver, gathering inputs
//     naively; O1 inserts transformers locality-aware so statements run
//     where their data lives; O2 eliminates redundant transformers
//     (identical movements of unchanged data, a gather of what the
//     driver just scattered, and a move of scratch no later statement
//     reads), which also keeps a replicated view from the copies its
//     trigger moved anyway; O3 runs FuseBlocks.
//   - FuseBlocks is the block-fusion algorithm of App. C.3: statements
//     are reordered within their data dependencies, kept per copy (the
//     driver's or the workers'), so adjacent blocks of one execution
//     mode merge, cutting synchronization barriers, and the schedule
//     with the fewest round trips, then stages, is kept. FuseTx
//     applies it across a transaction's tables, so a transaction runs as
//     one program, not one per table.
//   - DistProgram.Jobs/Stages report the Table 3 complexity measures:
//     stages are distributed blocks (one parallel round each), jobs are
//     driver-side collect rounds.
//
// The statement analysis reasons with variable equivalence classes
// (natural-join column sharing plus equality predicates and renamings):
// inputs keyed on the same class are co-partitioned, so a worker holds
// every tuple combination that can join. Statements whose additive
// contributions are not confined to one worker — or whose nested
// aggregate lifts read partitioned data uncorrelated with the anchor —
// fall back to driver-side evaluation, which is always safe.
package dist
