package ivm

import (
	"fmt"
	"slices"

	"repro/internal/compile"
)

// Registry serves many queries from one shared maintenance program: the
// compile layer canonicalizes and fingerprints every registered query,
// dedupes structurally identical sub-plans (shared pre-aggregations and
// auxiliary views compute once per transaction and fan out to all
// dependent top views), and caches compiled plans by query shape so
// registering the N-th structurally identical view is O(1). Registered
// results are bitwise identical to what independent engines would
// maintain, on both the local and the distributed backend.
//
//	r, _ := ivm.NewRegistry(bases)
//	r.Register("revenue", q1)
//	r.Register("discounts", q6)
//	cancel, _ := r.Subscribe("revenue", fn, ivm.OnKey(ivm.Str("1995-03-15")))
//	r.Apply(tx) // maintains every registered view in one step
//
// Register all views before the first Apply/Warm/Result/Subscribe call:
// the shared program builds lazily on first use and is fixed from then
// on.
type Registry struct {
	serving
	cfg   engineConfig
	bases map[string]Schema
	sc    *compile.SharedCompiler
	built bool
}

// NewRegistry creates an empty multi-view registry over the given base
// relation schemas. The same options as New select the backend shared by
// all registered views.
func NewRegistry(bases map[string]Schema, opts ...Option) (*Registry, error) {
	cfg := engineConfig{copts: compile.DefaultOptions()}
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Registry{
		cfg:   cfg,
		bases: bases,
		sc:    compile.NewSharedCompiler(bases, cfg.copts),
	}, nil
}

// Register adds one named query to the registry. Queries registered
// after the shared program was built (after the first Apply, Warm,
// Result, or Subscribe) are rejected.
func (r *Registry) Register(name string, query Expr) error {
	r.beMu.Lock()
	defer r.beMu.Unlock()
	if r.built {
		return fmt.Errorf("ivm: registry already serving; register all views before the first transaction")
	}
	return r.sc.Register(name, query)
}

// ensure builds the shared program and backend on first use; guarded by
// the backend lock so concurrent first uses build exactly once.
func (r *Registry) ensure() error {
	r.beMu.Lock()
	defer r.beMu.Unlock()
	if r.closed {
		return fmt.Errorf("ivm: registry: %w", ErrClosed)
	}
	if r.built {
		return nil
	}
	prog, err := r.sc.Program()
	if err != nil {
		return err
	}
	be, err := r.cfg.backend(prog)
	if err != nil {
		return err
	}
	// Recovery runs under beMu before the registry is marked built, so
	// the backend is exclusively ours while the checkpoint restores and
	// the WAL tail replays.
	r.prog, r.be = prog, be
	if err := r.attachDurability(&r.cfg); err != nil {
		be.Close()
		return err
	}
	r.init(prog, be)
	r.built = true
	return nil
}

// Close shuts the registry down: on a durable registry the WAL flushes
// and a final checkpoint is written (so reopening recovers with zero
// replay), the backend (including remote worker connections) is
// released, and every later Apply/Warm/Subscribe returns an error
// wrapping ErrClosed. Close is idempotent; it returns the first
// checkpoint or shutdown error.
func (r *Registry) Close() error { return r.close() }

// Checkpoint forces a durability checkpoint now (see
// Engine.Checkpoint). Returns an error on a non-durable registry.
func (r *Registry) Checkpoint() error {
	if err := r.ensure(); err != nil {
		return err
	}
	return r.forceCheckpoint()
}

// top resolves a registered view name to its shared top view.
func (r *Registry) top(name string) (string, error) {
	t, ok := r.sc.Top(name)
	if !ok {
		return "", fmt.Errorf("ivm: unknown registered view %q (registry has: %s)",
			name, sortedNames(slices.Values(r.sc.Names())))
	}
	return t, nil
}

// Apply folds one transaction into every registered view in a single
// shared maintenance step; shared sub-plans are computed once. See
// Engine.Apply for transaction semantics.
func (r *Registry) Apply(tx *Tx) error {
	if err := r.ensure(); err != nil {
		return err
	}
	return r.applyTx(tx)
}

// ApplyBatch folds one single-table update batch into every registered
// view: sugar for a one-table transaction.
func (r *Registry) ApplyBatch(table string, b *Batch) error {
	tx := NewTx()
	if err := tx.Put(table, b); err != nil {
		return err
	}
	return r.Apply(tx)
}

// Warm initializes base tables before streaming; every registered view
// is computed from the given contents. See Engine.Warm.
func (r *Registry) Warm(tables map[string]*Batch) error {
	if err := r.ensure(); err != nil {
		return err
	}
	return r.warm(tables)
}

// Result returns the maintained result of one registered view.
func (r *Registry) Result(name string) (*Result, error) {
	if err := r.ensure(); err != nil {
		return nil, err
	}
	top, err := r.top(name)
	if err != nil {
		return nil, err
	}
	return r.result(top), nil
}

// Subscribe registers a changefeed subscriber on one registered view;
// the feed semantics match Engine.Subscribe, including OnKey routing.
// Views aliasing the same shape share one maintained top view, so their
// subscribers observe identical deltas.
func (r *Registry) Subscribe(name string, fn func(Delta), opts ...SubOption) (cancel func(), err error) {
	if err := r.ensure(); err != nil {
		return nil, err
	}
	top, err := r.top(name)
	if err != nil {
		return nil, err
	}
	return r.subscribe(top, fn, opts...)
}

// Views returns the registered view names in registration order.
func (r *Registry) Views() []string { return r.sc.Names() }

// Shapes returns the number of distinct compiled query shapes backing
// the registered views (aliased shapes compile and maintain once).
func (r *Registry) Shapes() int { return r.sc.Shapes() }

// SharedViews returns the number of materialized views in the shared
// hierarchy — top views plus deduped auxiliaries. The saving over
// independent engines is the sum of their view counts minus this.
func (r *Registry) SharedViews() int { return r.sc.SharedViews() }

// Program returns the shared maintenance program (building it if
// needed).
func (r *Registry) Program() (*Program, error) {
	if err := r.ensure(); err != nil {
		return nil, err
	}
	return r.prog, nil
}

// TriggerProgram renders the shared maintenance program run for batches
// of one base table. Empty for unknown tables or before any view is
// registered.
func (r *Registry) TriggerProgram(table string) string {
	if err := r.ensure(); err != nil {
		return ""
	}
	return r.triggerProgram(table)
}

// Stats returns the registry's runtime statistics (see Engine.Stats);
// the snapshot is taken under the backend lock.
func (r *Registry) Stats() (Stats, error) {
	if err := r.ensure(); err != nil {
		return Stats{}, err
	}
	return r.statsSnapshot(), nil
}

// Metrics returns the cumulative virtual platform cost of all processed
// transactions. Zero on the local backend.
func (r *Registry) Metrics() Metrics {
	if err := r.ensure(); err != nil {
		return Metrics{}
	}
	total, _ := r.metricsSnapshot()
	return total
}

// LastMetrics returns the platform cost of the most recently applied
// transaction. Zero on the local backend.
func (r *Registry) LastMetrics() Metrics {
	if err := r.ensure(); err != nil {
		return Metrics{}
	}
	_, last := r.metricsSnapshot()
	return last
}

// NewTx returns an empty transaction for this registry's base tables.
func (r *Registry) NewTx() *Tx {
	tx := NewTx()
	tx.bases = r.bases
	return tx
}
