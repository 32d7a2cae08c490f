package mring

import (
	"fmt"
	"math/bits"
)

// arena stores fixed-arity tuples for a slab of entries: slot i holds
// entry i's values. Chunk k holds 4<<k tuples until chunks reach
// chunkTuples; every later chunk has that fixed size. Growing allocates
// one chunk and moves nothing, so a tuple handed out by at stays where it
// is until its own slot is overwritten or zeroed — a contiguous arena
// that doubled would copy every stored value on each growth instead.
//
// Only strings put heap pointers in a Value, so until the arena first
// stores one (strs), a freed slot holds nothing for the collector to
// release and zero leaves it as it is.
type arena struct {
	arity  int
	chunks [][]Value
	slots  int  // tuples the chunks hold
	strs   bool // a string was ever put; never cleared
}

const (
	chunkTuples = 256
	rampChunks  = 6                       // chunks 0-5 hold 4<<k tuples
	rampSlots   = 4 * (1<<rampChunks - 1) // tuples in chunks 0-5
)

// locate maps slot s to its chunk and the tuple offset within it.
func locate(s int) (k, off int) {
	if s < rampSlots {
		k = bits.Len(uint(s/4+1)) - 1
		return k, s - 4*(1<<k-1)
	}
	s -= rampSlots
	return rampChunks + s/chunkTuples, s % chunkTuples
}

// at returns slot s's values. They alias the arena: the caller must copy
// what it keeps past the slot's next write.
func (a *arena) at(s int32) Tuple {
	k, off := locate(int(s))
	i := off * a.arity
	return a.chunks[k][i : i+a.arity : i+a.arity]
}

// put copies t into slot s, adding a chunk when s is past the last one.
func (a *arena) put(s int32, t Tuple) {
	if len(t) != a.arity {
		panic(fmt.Sprintf("mring: tuple of arity %d stored in a relation of arity %d", len(t), a.arity))
	}
	for int(s) >= a.slots {
		n := chunkTuples
		if k := len(a.chunks); k < rampChunks {
			n = 4 << k
		}
		a.chunks = append(a.chunks, make([]Value, n*a.arity))
		a.slots += n
	}
	copy(a.at(s), t)
	for i := 0; i < len(t) && !a.strs; i++ {
		a.strs = t[i].isStr()
	}
}

// zero clears slot s, so the strings it held can be collected.
func (a *arena) zero(s int32) {
	if a.strs {
		clear(a.at(s))
	}
}
