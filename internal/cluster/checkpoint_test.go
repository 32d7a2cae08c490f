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
func ckptFixture(t testing.TB) (*Cluster, func() *Cluster) {
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

func mustCheckpoint(t testing.TB, cl *Cluster) *Checkpoint {
	t.Helper()
	cp, err := cl.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// requireSameNodes asserts two clusters hold identical fragments with
// identical bucket sizes and Foreach order.
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
	enc := EncodeCheckpoint(mustCheckpoint(t, cl))
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
	enc := EncodeCheckpoint(mustCheckpoint(t, cl))
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
	// A version-1 checkpoint (gob-encoded, one driver fragment) is
	// refused by its version, never fed to the current decoder.
	if _, err := DecodeCheckpoint([]byte(ckptV1)); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("want descriptive version-1 error, got %v", err)
	}
}

// ckptV1 is a checkpoint as format version 1 wrote it: a driver fragment
// "V" of schema (a) holding one row, placed Local.
const ckptV1 = "IVCP\x01E\x7f\x03\x01\x01\nCheckpoint\x01\xff\x80\x00\x01\x04\x01\aWorkers\x01\xff\x88\x00\x01\x06Driver\x01\xff\x86\x00" +
	"\x01\x05Parts\x01\xff\x8c\x00\x01\x05Bytes\x01\x04\x00\x00\x00(\xff\x87\x02\x01\x01\x19[]map[string]cluster.Frag\x01\xff\x88\x00" +
	"\x01\xff\x86\x00\x00\x0f\xff\x85\x04\x01\x02\xff\x86\x00\x01\f\x01\xff\x82\x00\x000\xff\x81\x03\x01\x02\xff\x82\x00\x01\x03\x01" +
	"\x06Schema\x01\xff\x84\x00\x01\aBuckets\x01\x04\x00\x01\aPayload\x01\n\x00\x00\x00\x14\xff\x83\x02\x01\x01\x06Schema\x01\xff\x84" +
	"\x00\x01\f\x00\x00\x19\xff\x8b\x04\x01\x01\bPartInfo\x01\xff\x8c\x00\x01\f\x01\xff\x8a\x00\x00\x1e\xff\x89\x03\x01\x02\xff\x8a" +
	"\x00\x01\x02\x01\x04Kind\x01\x06\x00\x01\x03Key\x01\xff\x84\x00\x00\x00$\xff\x80\x02\x01\x01V\x01\x01\x01a\x01\x10\x01\x0f\x00" +
	"\x01\x01a\x00\x01\x02\x00\x00\x00\x00\x00\x00\x00@\x00\x01\x01\x01V\x00\x00"

// TestEncodingsAreDeterministic pins that a checkpoint and a deploy blob
// encode to the same bytes every time: maps travel in sorted key order,
// so the bytes are a function of the value alone.
func TestEncodingsAreDeterministic(t *testing.T) {
	cl, _ := ckptFixture(t)
	cp := mustCheckpoint(t, cl)
	frags := len(cp.Driver)
	for _, w := range cp.Workers {
		frags += len(w)
	}
	if frags < 4 || len(cp.Parts) < 2 {
		t.Fatalf("fixture checkpoint has %d fragments and %d placements; want a multi-fragment one", frags, len(cp.Parts))
	}
	b := q3WorkerBlocks(t)[0]
	if len(b.schemas) < 2 {
		t.Fatalf("deploy fixture binds %d schemas; want several", len(b.schemas))
	}
	ckpt, deploy := EncodeCheckpoint(cp), encodeDeploy(b.stmts, b.schemas)
	for i := 0; i < 20; i++ {
		if again := EncodeCheckpoint(cp); string(again) != string(ckpt) {
			t.Fatalf("checkpoint encoding %d differs from the first", i+2)
		}
		if again := encodeDeploy(b.stmts, b.schemas); string(again) != string(deploy) {
			t.Fatalf("deploy encoding %d differs from the first", i+2)
		}
	}
}

// FuzzDecodeCheckpoint feeds arbitrary bytes to the checkpoint decoder: it
// must return a checkpoint or an error, never panic, and a checkpoint it
// accepts must re-encode to the same bytes.
func FuzzDecodeCheckpoint(f *testing.F) {
	cl, _ := ckptFixture(f)
	cp, err := cl.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeCheckpoint(cp))
	f.Add(EncodeCheckpoint(&Checkpoint{}))
	f.Add([]byte(ckptV1))
	f.Fuzz(func(t *testing.T, b []byte) {
		cp, err := DecodeCheckpoint(b)
		if err != nil {
			return
		}
		if again := EncodeCheckpoint(cp); string(again) != string(b) {
			t.Fatalf("accepted checkpoint re-encodes differently:\n in:  %q\n out: %q", b, again)
		}
	})
}
