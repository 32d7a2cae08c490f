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
	"unsafe"
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

// Value is a tagged union holding one column value of a tuple, in two
// words: 16 bytes on 64-bit platforms, 12 on 32-bit. A KInt has a nil p
// and keeps its integer in n, so the zero Value is the integer 0. A
// KFloat has p at floatTag and keeps its float's IEEE bits in n. A
// KString has p at its string's bytes (at emptyTag when it is empty) and
// its length in n; both words are unexported, so only this file sets the
// length Text reads by. A number holds no heap pointer, so the collector
// finds nothing to mark in values that hold no strings.
//
// Values are not comparable: == on two strings would compare their
// addresses. Value identity is Equal (predicates) or KeyEqual (storage);
// Identical tells kinds and bits apart as well.
type Value struct {
	_ [0]func()
	p unsafe.Pointer
	n int64
}

// floatTag and emptyTag are never written: only their addresses are used,
// as the p of every KFloat and of the empty KString.
var floatTag, emptyTag byte

// Int returns an integer Value.
func Int(i int64) Value { return Value{n: i} }

// Float returns a floating-point Value.
func Float(f float64) Value {
	return Value{p: unsafe.Pointer(&floatTag), n: int64(math.Float64bits(f))}
}

// Str returns a string Value. It shares s's bytes.
func Str(s string) Value {
	if len(s) == 0 {
		return Value{p: unsafe.Pointer(&emptyTag)}
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(s)), n: int64(len(s))}
}

// Kind returns the value's kind.
func (v Value) Kind() Kind {
	switch v.p {
	case nil:
		return KInt
	case unsafe.Pointer(&floatTag):
		return KFloat
	}
	return KString
}

func (v Value) isStr() bool { return v.p != nil && v.p != unsafe.Pointer(&floatTag) }

// Text returns a KString's string, and "" for a number.
func (v Value) Text() string {
	if !v.isStr() {
		return ""
	}
	return unsafe.String((*byte)(v.p), int(v.n))
}

// Identical reports whether two values have the same kind, the same bits
// and the same string bytes: -0 is not 0, Int(3) is not Float(3), and a
// NaN is identical to itself when its payload is.
func (v Value) Identical(o Value) bool {
	return v.Kind() == o.Kind() && v.n == o.n && v.Text() == o.Text()
}

// AsFloat converts the value to float64 for arithmetic.
// Strings convert to their parse result, or 0 if unparsable.
func (v Value) AsFloat() float64 {
	switch v.Kind() {
	case KInt:
		return float64(v.n)
	case KFloat:
		return math.Float64frombits(uint64(v.n))
	default:
		f, _ := strconv.ParseFloat(v.Text(), 64)
		return f
	}
}

// AsInt converts the value to int64. A float truncates toward zero; one
// past the int64 range saturates, and NaN gives 0. A string parses as a
// decimal integer, saturating too, and gives 0 when it is none.
func (v Value) AsInt() int64 {
	if v.p == nil {
		return v.n
	}
	return v.convInt()
}

func (v Value) convInt() int64 {
	if v.isStr() {
		i, _ := strconv.ParseInt(v.Text(), 10, 64)
		return i
	}
	switch f := math.Float64frombits(uint64(v.n)); {
	case f >= 0x1p63:
		return math.MaxInt64
	case f >= -0x1p63:
		return int64(f)
	case f < -0x1p63:
		return math.MinInt64
	default: // NaN
		return 0
	}
}

// Equal reports whether two values are equal: the predicate equality of
// the data model. It is KeyEqual, except that a NaN equals nothing. So
// numbers compare by exact value across KInt/KFloat (Int(3) equals
// Float(3), Int(2^53+1) does not equal Float(2^53)), and strings compare
// only to strings.
func (v Value) Equal(o Value) bool {
	return v.KeyEqual(o) && !(v.Kind() == KFloat && math.IsNaN(v.AsFloat()))
}

// KeyEqual reports whether two values are the same key: the storage
// identity of relations and indexes. Strings compare exactly, and
// numbers by numKey, so Int(3) and Float(3) are one key while distinct
// integers never are. It differs from Equal only on NaN, which is one key
// with itself.
func (v Value) KeyEqual(o Value) bool {
	if v.isStr() || o.isStr() {
		return v.isStr() && o.isStr() && v.Text() == o.Text()
	}
	vt, vw := numKey(v)
	ot, ow := numKey(o)
	return vt == ot && vw == ow
}

// Less reports whether v sorts before o. Numbers sort before strings;
// mixed numeric kinds compare by exact value, and NaN is unordered.
func (v Value) Less(o Value) bool {
	if v.isStr() || o.isStr() {
		if !v.isStr() {
			return true
		}
		if !o.isStr() {
			return false
		}
		return v.Text() < o.Text()
	}
	switch {
	case v.Kind() == KInt && o.Kind() == KInt:
		return v.n < o.n
	case v.Kind() == KInt:
		// For an integer x, x < f exactly when x < ceil(f).
		f := o.AsFloat()
		return f >= 0x1p63 || f >= -0x1p63 && v.n < int64(math.Ceil(f))
	case o.Kind() == KInt:
		// For an integer x, f < x exactly when floor(f) < x.
		f := v.AsFloat()
		return f < -0x1p63 || f < 0x1p63 && int64(math.Floor(f)) < o.n
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
	switch v.Kind() {
	case KInt:
		return strconv.FormatInt(v.n, 10)
	case KFloat:
		return strconv.FormatFloat(math.Float64frombits(uint64(v.n)), 'g', -1, 64)
	default:
		return strconv.Quote(v.Text())
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
// returns the result. Two tuples encode equal iff they are KeyEqual.
func (t Tuple) EncodeKey(dst []byte) []byte {
	var buf [9]byte
	for _, v := range t {
		if v.isStr() {
			dst = append(dst, 's')
			dst = binary.AppendUvarint(dst, uint64(len(v.Text())))
			dst = append(dst, v.Text()...)
			continue
		}
		tag, w := numKey(v)
		buf[0] = 'i'
		if tag == hashTagFloat {
			buf[0] = 'f'
		}
		binary.LittleEndian.PutUint64(buf[1:], w)
		dst = append(dst, buf[:]...)
	}
	return dst
}

// Key returns the canonical string key for the tuple, suitable as a map key.
// It allocates; hot paths use Hash/HashCols and KeyEqual instead.
func (t Tuple) Key() string { return string(t.EncodeKey(nil)) }

// Tuple hashing is word-at-a-time multiplicative mixing with a murmur3
// finalizer: one multiply per numeric column instead of one per encoded
// byte. The only contract is that KeyEqual tuples hash equal (a number
// hashes its numKey, so Int(3) and Float(3) agree) — hash-colliding
// distinct tuples are resolved by the relation's collision chains.
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
	if v.isStr() {
		s := v.Text()
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
	tag, w := numKey(v)
	return mixWord(h, tag^w)
}

// numKey is the storage identity of a number, the one rule KeyEqual,
// EncodeKey and hashing share. A KInt is its own integer. A KFloat that is
// integral and in [-2^63, 2^63) is that integer, so Float(3) is Int(3) and
// -0 is 0; the range is checked first because Go leaves int64(f) out of
// range to the CPU. Any other float is its bits, so NaN is reflexive.
func numKey(v Value) (tag, word uint64) {
	if v.p == nil { // a KInt
		return hashTagInt, uint64(v.n)
	}
	if f := math.Float64frombits(uint64(v.n)); f >= -0x1p63 && f < 0x1p63 {
		if i := int64(f); float64(i) == f {
			return hashTagInt, uint64(i)
		}
	}
	return hashTagFloat, uint64(v.n)
}

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

// Hash returns a 64-bit hash of the tuple consistent with KeyEqual. It
// never allocates.
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
