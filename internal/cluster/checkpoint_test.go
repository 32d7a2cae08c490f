package cluster

import (
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/dist"
	"repro/internal/expr"
	"repro/internal/mring"
)

// ckptFixture builds a 2-worker cluster with streamed state (including
// deletions, so bucket tables are larger than row counts) and returns it
// with a factory for identically-shaped fresh clusters.
func ckptFixture(t *testing.T) (*Cluster, func() *Cluster) {
	t.Helper()
	q := expr.Sum([]string{"B"}, expr.Base("R", "A", "B"))
	bases := map[string]mring.Schema{"R": {"A", "B"}}
	prog, err := compile.Compile("QV", q, bases, compile.Options{DomainExtraction: true})
	if err != nil {
		t.Fatal(err)
	}
	parts := partitionAll(prog, false)
	dprogs := dist.CompileProgram(prog, parts, dist.O3)
	fresh := func() *Cluster { return New(DefaultConfig(2), dist.ViewSchemas(prog), parts) }
	cl := fresh()
	for step := 0; step < 4; step++ {
		b := mring.NewRelation(bases["R"])
		for i := 0; i < 25; i++ {
			b.Add(tup(step*25+i, i%7), 1)
		}
		if step == 3 {
			for i := 0; i < 20; i++ {
				b.Add(tup(i, i%7), -1) // deletions shrink rows, not tables
			}
		}
		if _, err := cl.RunPartitionedBatch(dprogs["R"], b); err != nil {
			t.Fatal(err)
		}
	}
	return cl, fresh
}

func mustCheckpoint(t *testing.T, cl *Cluster) *Checkpoint {
	t.Helper()
	cp, err := cl.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// requireSameNodes asserts two clusters hold identical fragments with
// identical physical layout (bucket sizes and Foreach order).
func requireSameNodes(t *testing.T, got, want *Cluster) {
	t.Helper()
	cmp := func(label string, g, w *node) {
		for name, wr := range w.rels {
			if !worthSnapshot(wr) {
				continue
			}
			gr := g.rels[name]
			if gr == nil {
				t.Fatalf("%s: missing relation %q", label, name)
			}
			if gr.TableSize() != wr.TableSize() {
				t.Fatalf("%s/%s: TableSize got %d want %d", label, name, gr.TableSize(), wr.TableSize())
			}
			var rows []mring.Tuple
			var mults []float64
			wr.Foreach(func(tp mring.Tuple, m float64) { rows = append(rows, tp); mults = append(mults, m) })
			i := 0
			gr.Foreach(func(tp mring.Tuple, m float64) {
				if i < len(rows) && (!tp.Equal(rows[i]) || mults[i] != m) {
					t.Fatalf("%s/%s: row %d diverges", label, name, i)
				}
				i++
			})
			if i != len(rows) {
				t.Fatalf("%s/%s: row count got %d want %d", label, name, i, len(rows))
			}
		}
	}
	cmp("driver", &got.driver, &want.driver)
	for i := range want.workers {
		cmp("worker", &got.workers[i].(*Shard).node, &want.workers[i].(*Shard).node)
	}
}

// TestCheckpointEncodeDecodeVersioned pins the versioned serialization:
// a round-tripped checkpoint restores a fresh cluster to the EXACT
// layout of the original, not just equal contents.
func TestCheckpointEncodeDecodeVersioned(t *testing.T) {
	cl, fresh := ckptFixture(t)
	enc, err := EncodeCheckpoint(mustCheckpoint(t, cl))
	if err != nil {
		t.Fatal(err)
	}
	if string(enc[:4]) != ckptMagic {
		t.Fatalf("missing magic: %q", enc[:8])
	}
	dec, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatal(err)
	}
	cl2 := fresh()
	if err := cl2.Restore(dec); err != nil {
		t.Fatal(err)
	}
	requireSameNodes(t, cl2, cl)
}

func TestDecodeCheckpointBadVersion(t *testing.T) {
	cl, _ := ckptFixture(t)
	enc, err := EncodeCheckpoint(mustCheckpoint(t, cl))
	if err != nil {
		t.Fatal(err)
	}
	enc[4] = 99 // version byte
	if _, err := DecodeCheckpoint(enc); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want descriptive version error, got %v", err)
	}
	if _, err := DecodeCheckpoint([]byte("garbage that is neither format")); err == nil {
		t.Fatal("garbage should not decode")
	}
	// A checkpoint body without the header (the unversioned format no
	// store ever wrote to disk) is rejected, not guessed at.
	if _, err := DecodeCheckpoint(enc[len(ckptMagic)+1:]); err == nil || !strings.Contains(err.Error(), "header") {
		t.Fatalf("want descriptive missing-header error, got %v", err)
	}
}
