package ivm

import (
	"fmt"
	"testing"
)

// TestKeptTuplesSurviveSlotReuse keeps the tuples Result().Foreach and a
// subscriber's Delta.Foreach hand out, then applies transactions that
// delete every row and insert new ones, so the storage slots the kept
// groups lived in are freed, zeroed and reused. Both reads hand out owned
// copies, so every kept tuple must still read as it did when kept.
func TestKeptTuplesSurviveSlotReuse(t *testing.T) {
	eng, err := New("Q", Sum([]string{"K", "N"}, Table("R", "K", "N", "V")),
		map[string]Schema{"R": {"K", "N", "V"}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	type kept struct {
		t    Tuple
		seen string
	}
	var keep []kept
	keepAll := func(tp Tuple, _ float64) { keep = append(keep, kept{tp, fmt.Sprint(tp)}) }
	if _, err := eng.Subscribe(func(d Delta) { d.Foreach(keepAll) }); err != nil {
		t.Fatal(err)
	}
	rows := func(round, sign int) *Tx {
		tx := eng.NewTx()
		for k := 0; k < 40; k++ {
			r := Row(round*100+k, fmt.Sprintf("name-%d-%d", round, k), k)
			if err := tx.Change("R", r, float64(sign)); err != nil {
				t.Fatal(err)
			}
		}
		return tx
	}
	for round := 0; round < 6; round++ {
		if round > 0 {
			if err := eng.Apply(rows(round-1, -1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Apply(rows(round, 1)); err != nil {
			t.Fatal(err)
		}
		eng.Result().Foreach(keepAll)
	}
	if len(keep) < 400 {
		t.Fatalf("kept only %d tuples", len(keep))
	}
	for i, k := range keep {
		if got := fmt.Sprint(k.t); got != k.seen {
			t.Fatalf("kept tuple %d changed from %s to %s", i, k.seen, got)
		}
	}
}
