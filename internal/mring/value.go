// Package mring implements generalized multiset relations — the data model
// of DBToaster-style incremental view maintenance. A relation maps each
// unique tuple to a non-zero multiplicity. Multiplicities generalize counts
// to aggregate values (SUM, AVG numerators, ...), so refreshing an aggregate
// means changing a multiplicity rather than deleting and re-inserting tuples.
package mring

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the value types supported in tuples.
type Kind uint8

// Supported value kinds.
const (
	KInt Kind = iota
	KFloat
	KString
)

func (k Kind) String() string {
	switch k {
	case KInt:
		return "int"
	case KFloat:
		return "float"
	case KString:
		return "string"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a tagged union holding one column value of a tuple, in 32
// bytes: a KInt keeps its integer in I, a KFloat keeps its float's IEEE
// bits in I, and a KString keeps its string in S. The zero Value is the
// integer 0.
//
// Go's == on Values compares those words: it is reflexive on NaN and
// tells -0 from +0. Value identity is Equal (numeric) or KeyEqual
// (storage), never ==.
type Value struct {
	K Kind
	I int64
	S string
}

// Int returns an integer Value.
func Int(i int64) Value { return Value{K: KInt, I: i} }

// Float returns a floating-point Value.
func Float(f float64) Value { return Value{K: KFloat, I: int64(math.Float64bits(f))} }

// String returns a string Value.
func Str(s string) Value { return Value{K: KString, S: s} }

// AsFloat converts the value to float64 for arithmetic.
// Strings convert to their parse result, or 0 if unparsable.
func (v Value) AsFloat() float64 {
	switch v.K {
	case KInt:
		return float64(v.I)
	case KFloat:
		return math.Float64frombits(uint64(v.I))
	default:
		f, _ := strconv.ParseFloat(v.S, 64)
		return f
	}
}

// AsInt converts the value to int64, truncating floats.
func (v Value) AsInt() int64 {
	switch v.K {
	case KInt:
		return v.I
	case KFloat:
		return int64(math.Float64frombits(uint64(v.I)))
	default:
		i, _ := strconv.ParseInt(v.S, 10, 64)
		return i
	}
}

// Equal reports whether two values are equal. Numeric values compare by
// numeric value across KInt/KFloat; strings compare only to strings.
func (v Value) Equal(o Value) bool {
	if v.K == KString || o.K == KString {
		return v.K == KString && o.K == KString && v.S == o.S
	}
	if v.K == KInt && o.K == KInt {
		return v.I == o.I
	}
	return v.AsFloat() == o.AsFloat()
}

// KeyEqual reports whether two values are identical under the canonical
// key encoding (EncodeKey): strings compare exactly; numerics compare
// through the same float canonicalization the encoder applies, so
// integers beyond 2^53 collapse to their float value and NaNs compare by
// bit pattern (reflexively). This is the storage identity of relations
// and indexes; it differs from Equal only on NaN (where Equal is
// irreflexive) and on integers Equal distinguishes but the encoding
// cannot. Two integers within ±2^53 compare by I, which is what the float
// canonicalization gives them.
func (v Value) KeyEqual(o Value) bool {
	if v.K == KInt && o.K == KInt && exactInt(v.I) && exactInt(o.I) {
		return v.I == o.I
	}
	if v.K == KString || o.K == KString {
		return v.K == KString && o.K == KString && v.S == o.S
	}
	vf, of := v.AsFloat(), o.AsFloat()
	vi, vInt := int64(vf), false
	if float64(int64(vf)) == vf {
		vInt = true
	}
	oi, oInt := int64(of), false
	if float64(int64(of)) == of {
		oInt = true
	}
	if vInt || oInt {
		return vInt && oInt && vi == oi
	}
	return math.Float64bits(vf) == math.Float64bits(of)
}

// Less reports whether v sorts before o. Numbers sort before strings;
// mixed numeric kinds compare numerically.
func (v Value) Less(o Value) bool {
	if v.K == KString || o.K == KString {
		if v.K != KString {
			return true
		}
		if o.K != KString {
			return false
		}
		return v.S < o.S
	}
	if v.K == KInt && o.K == KInt {
		return v.I < o.I
	}
	return v.AsFloat() < o.AsFloat()
}

// Compare returns -1, 0, or +1 ordering v against o, consistent with Less.
func (v Value) Compare(o Value) int {
	if v.Equal(o) {
		return 0
	}
	if v.Less(o) {
		return -1
	}
	return 1
}

func (v Value) String() string {
	switch v.K {
	case KInt:
		return strconv.FormatInt(v.I, 10)
	case KFloat:
		return strconv.FormatFloat(math.Float64frombits(uint64(v.I)), 'g', -1, 64)
	default:
		return strconv.Quote(v.S)
	}
}

// Tuple is an ordered list of column values. Column names live in the
// relation's schema, not in the tuple.
type Tuple []Value

// Clone returns a copy of the tuple that shares no backing storage.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Equal reports element-wise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Less imposes a total order used for deterministic iteration in tests
// and reports.
func (t Tuple) Less(o Tuple) bool {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(o[i]); c != 0 {
			return c < 0
		}
	}
	return len(t) < len(o)
}

func (t Tuple) String() string {
	s := "("
	for i, v := range t {
		if i > 0 {
			s += ", "
		}
		s += v.String()
	}
	return s + ")"
}

// EncodeKey appends a canonical byte encoding of the tuple to dst and
// returns the result. Two tuples encode equal iff they are Equal: integers
// and integral floats share an encoding so that Int(3) and Float(3) collide
// as the data model requires.
func (t Tuple) EncodeKey(dst []byte) []byte {
	var buf [9]byte
	for _, v := range t {
		switch v.K {
		case KString:
			dst = append(dst, 's')
			dst = binary.AppendUvarint(dst, uint64(len(v.S)))
			dst = append(dst, v.S...)
		default:
			f := v.AsFloat()
			if i := int64(f); float64(i) == f {
				buf[0] = 'i'
				binary.LittleEndian.PutUint64(buf[1:], uint64(i))
			} else {
				buf[0] = 'f'
				binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(f))
			}
			dst = append(dst, buf[:]...)
		}
	}
	return dst
}

// Key returns the canonical string key for the tuple, suitable as a map key.
// It allocates; hot paths use Hash/HashCols instead and keep EncodeKey for
// the wire format.
func (t Tuple) Key() string { return string(t.EncodeKey(nil)) }

// Tuple hashing is word-at-a-time multiplicative mixing with a murmur3
// finalizer: one multiply per numeric column instead of one per encoded
// byte. The only contract is that Equal tuples hash equal (numeric values
// are canonicalized exactly as EncodeKey canonicalizes them, so Int(3) and
// Float(3) agree) — hash-colliding unequal tuples are resolved by the
// relation's collision chains.
const (
	hashSeed     = 14695981039346656037
	hashMult     = 1099511628211
	hashTagInt   = 0x9E3779B97F4A7C15
	hashTagFloat = 0xC2B2AE3D27D4EB4F
	hashTagStr   = 0x165667B19E3779F9
)

func mixWord(h, v uint64) uint64 {
	return (h ^ v) * hashMult
}

// hashValue folds one value into the running state.
func hashValue(h uint64, v Value) uint64 {
	if v.K == KString {
		s := v.S
		h = mixWord(h, hashTagStr+uint64(len(s)))
		for len(s) >= 8 {
			w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
				uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
			h = mixWord(h, w)
			s = s[8:]
		}
		if len(s) > 0 {
			var w uint64
			for i := len(s) - 1; i >= 0; i-- {
				w = w<<8 | uint64(s[i])
			}
			h = mixWord(h, w)
		}
		return h
	}
	if v.K == KInt && exactInt(v.I) {
		return mixWord(h, hashTagInt^uint64(v.I))
	}
	f := v.AsFloat()
	if i := int64(f); float64(i) == f {
		return mixWord(h, hashTagInt^uint64(i))
	}
	return mixWord(h, hashTagFloat^math.Float64bits(f))
}

// exactInt reports whether -2^53 <= i <= 2^53: whether the float
// canonicalization of EncodeKey, Hash and KeyEqual gives i back unchanged,
// so those can use i as it is.
func exactInt(i int64) bool { return uint64(i+1<<53) <= 1<<54 }

// hashFinish is murmur3's fmix64 avalanche, giving well-mixed bits for
// bucket selection and worker partitioning.
func hashFinish(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	h *= 0xC4CEB9FE1A85EC53
	h ^= h >> 33
	return h
}

// Hash returns a 64-bit hash of the tuple consistent with Equal. It never
// allocates.
func (t Tuple) Hash() uint64 {
	h := uint64(hashSeed)
	for _, v := range t {
		h = hashValue(h, v)
	}
	return hashFinish(h)
}

// HashCols hashes the projection of t onto the given positions without
// materializing the sub-tuple: HashCols(pos) == Project(pos).Hash().
func (t Tuple) HashCols(pos []int) uint64 {
	h := uint64(hashSeed)
	for _, j := range pos {
		h = hashValue(h, t[j])
	}
	return hashFinish(h)
}

// KeyEqual reports whether two tuples are identical under the canonical
// key encoding — the identity relations and indexes store tuples by.
// Equivalent to Key() == o.Key() without materializing either key.
func (t Tuple) KeyEqual(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].KeyEqual(o[i]) {
			return false
		}
	}
	return true
}

// EqualAt reports whether the projection of t onto pos is
// canonical-key-identical to probe (one value per position, in pos
// order) — the match rule of index probes, consistent with HashCols.
func (t Tuple) EqualAt(pos []int, probe Tuple) bool {
	if len(pos) != len(probe) {
		return false
	}
	for i, j := range pos {
		if !t[j].KeyEqual(probe[i]) {
			return false
		}
	}
	return true
}

// Project returns the sub-tuple at the given positions.
func (t Tuple) Project(idx []int) Tuple {
	out := make(Tuple, len(idx))
	for i, j := range idx {
		out[i] = t[j]
	}
	return out
}
