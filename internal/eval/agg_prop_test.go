package eval

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/expr"
	"repro/internal/mring"
)

// randomAggTuple draws tuples over the identity edge cases: NaN group
// keys (canonical key is reflexive on NaN), integers beyond 2^53 (the
// key keeps them distinct, though one float64 holds several), int/float kind
// collisions, and plain strings. The small domain makes groups collide
// and cancel often.
func randomAggTuple(rng *rand.Rand) mring.Tuple {
	var key mring.Value
	switch rng.Intn(6) {
	case 0:
		key = mring.Int(int64(rng.Intn(5)))
	case 1:
		key = mring.Float(float64(rng.Intn(5))) // collides with the Int encoding
	case 2:
		key = mring.Str(fmt.Sprintf("g%d", rng.Intn(4)))
	case 3:
		key = mring.Float(math.NaN())
	case 4:
		key = mring.Int((int64(1) << 53) + int64(rng.Intn(3))) // beyond 2^53
	default:
		key = mring.Float(float64(rng.Intn(5)) + 0.25)
	}
	return mring.Tuple{key, mring.Int(int64(rng.Intn(3))), mring.Float(float64(rng.Intn(4)) + 0.5)}
}

// runAggModelProperty fills a relation with random tuples and random
// multiplicities, materializes Sum_[gb](R) through the hash-native
// group-table path, and compares against the oracle's own aggregation
// of the raw changes, under the data model's in-table cancellation (a
// group whose value crosses into (-Eps, Eps) is removed; a canceled key
// seen again starts a new group). The multiplicities are small integers,
// so every summation order gives the same floats, and they must match
// bit for bit. hashFn, when non-nil, forces group-table hash collisions
// so the chain compare paths do all the work.
func runAggModelProperty(t *testing.T, seed int64, hashFn func(mring.Tuple) uint64) {
	rng := rand.New(rand.NewSource(seed))
	schema := mring.Schema{"g", "a", "v"}
	for round := 0; round < 40; round++ {
		env := newRawEnv()
		rel := env.define("R", schema)
		for i := 0; i < rng.Intn(200); i++ {
			rel.Add(randomAggTuple(rng), float64(rng.Intn(9)-4))
		}
		// Random group-by subset (possibly empty: scalar aggregate).
		var gb []string
		for _, col := range schema {
			if rng.Intn(2) == 0 {
				gb = append(gb, col)
			}
		}
		q := expr.Sum(gb, expr.Base("R", schema...))
		ctx := NewCtx(env.Env)
		ctx.groupHash = hashFn
		got := ctx.Materialize(q)
		want := baseline.Eval(q, baseline.Of(env.raw))
		if got.Len() != len(want) {
			t.Fatalf("seed %d round %d gb=%v: %d groups, oracle has %d\n got: %v",
				seed, round, gb, got.Len(), len(want), got)
		}
		for _, w := range want {
			if g := got.Get(w.Tuple); math.Float64bits(g) != math.Float64bits(w.M) {
				t.Fatalf("seed %d round %d gb=%v: group %v = %g, oracle %g",
					seed, round, gb, w.Tuple, g, w.M)
			}
		}
	}
}

func TestAggMatchesStringKeyedReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runAggModelProperty(t, seed, nil)
		})
	}
}

// TestAggMatchesReferenceUnderForcedCollisions maps every group key into
// two hash buckets, so nearly all groups share collision chains and the
// KeyEqual compare path resolves every probe.
func TestAggMatchesReferenceUnderForcedCollisions(t *testing.T) {
	collide := func(tp mring.Tuple) uint64 { return tp.Hash() & 1 }
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runAggModelProperty(t, seed, collide)
		})
	}
}

// TestAggCancelsZeroGroupsInTable is the regression test for in-table
// cancellation: a group whose contributions cancel within one evaluation
// is removed inside the group table, so it never reaches a downstream
// view — and, unlike the old emit-time Eps skip, a group whose true value
// is tiny but never crossed zero by accumulation is preserved, exactly as
// the relation data model (and a from-scratch rebuild) would keep it.
func TestAggCancelsZeroGroupsInTable(t *testing.T) {
	schema := mring.Schema{"g", "x"}
	env := newRawEnv()
	r := env.define("R", schema)
	// Group 1 cancels (+2 then -2 from distinct tuples), group 2 cancels
	// and is re-contributed (+5, -5, +3), group 3 is a fresh tiny value
	// below Eps that never crossed zero.
	r.Add(tup(1, 10), 2)
	r.Add(tup(1, 20), -2)
	r.Add(tup(2, 10), 5)
	r.Add(tup(2, 20), -5)
	r.Add(tup(2, 30), 3)
	r.Add(tup(3, 10), 1e-12)

	target := mring.NewRelation(mring.Schema{"g"})
	ctx := NewCtx(env.Env)
	ctx.Apply(target, OpAdd, expr.Sum([]string{"g"}, expr.Base("R", schema...)))

	if got := target.Get(tup(1)); got != 0 {
		t.Errorf("canceled group reached the view: g=1 -> %g", got)
	}
	if got := target.Get(tup(2)); got != 3 {
		t.Errorf("cancel-then-readd group: g=2 -> %g, want 3", got)
	}
	if got := target.Get(tup(3)); got != 1e-12 {
		t.Errorf("tiny fresh group must survive (rebuild keeps it): g=3 -> %g, want 1e-12", got)
	}
	if target.Len() != 2 {
		t.Errorf("view holds %d groups, want 2: %v", target.Len(), target)
	}

	// The maintained view must agree with a fresh rebuild of the same
	// aggregate — the oracle the old emit-time skip diverged from.
	oracle := baseline.Eval(expr.Sum([]string{"g"}, expr.Base("R", schema...)), baseline.Of(env.raw))
	if d := baseline.Diff(target, oracle); d != "" {
		t.Errorf("view diverges from the oracle: %s", d)
	}
}

// TestAggGroupTableStatsAndEmitOrder pins the emission contract: live
// groups emit in first-insertion order and count one Emit each.
func TestAggGroupTableStatsAndEmitOrder(t *testing.T) {
	schema := mring.Schema{"g"}
	env := NewEnv()
	r := env.Define("R", schema)
	r.Add(tup(7), 1)
	r.Add(tup(8), 1)
	r.Add(tup(9), 1)
	ctx := NewCtx(env)
	before := ctx.Stats.Emits
	out := ctx.Materialize(expr.Sum([]string{"g"}, expr.Base("R", schema...)))
	if out.Len() != 3 {
		t.Fatalf("got %d groups, want 3", out.Len())
	}
	// 3 scan emits from the body plus 3 group emits.
	if got := ctx.Stats.Emits - before; got != 6 {
		t.Errorf("Emits = %d, want 6", got)
	}
}
