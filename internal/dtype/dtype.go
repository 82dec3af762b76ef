// Package dtype defines the element types and reduction operators of the
// collective operations (MPI_Reduce-style), applied to raw byte buffers in
// little-endian layout. The paper evaluates sum over float64 ("the sum
// operator and double data type"); the full MPI-like operator set is
// provided for the library API.
package dtype

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Type is an element type.
type Type int

const (
	Float64 Type = iota
	Float32
	Int64
	Int32
	Uint8
)

// Size returns the element size in bytes.
func (t Type) Size() int {
	switch t {
	case Float64, Int64:
		return 8
	case Float32, Int32:
		return 4
	case Uint8:
		return 1
	}
	panic(fmt.Sprintf("dtype: unknown type %d", int(t)))
}

// String returns the type name.
func (t Type) String() string {
	switch t {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	case Int64:
		return "int64"
	case Int32:
		return "int32"
	case Uint8:
		return "uint8"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// Op is a reduction operator.
type Op int

const (
	Sum Op = iota
	Prod
	Min
	Max
	Band // integer types only
	Bor  // integer types only
	Bxor // integer types only
)

// String returns the operator name.
func (o Op) String() string {
	switch o {
	case Sum:
		return "sum"
	case Prod:
		return "prod"
	case Min:
		return "min"
	case Max:
		return "max"
	case Band:
		return "band"
	case Bor:
		return "bor"
	case Bxor:
		return "bxor"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Valid reports whether the operator applies to the type (bitwise operators
// require an integer type, as in MPI).
func Valid(o Op, t Type) bool {
	if o == Band || o == Bor || o == Bxor {
		return t == Int64 || t == Int32 || t == Uint8
	}
	return o >= Sum && o <= Max
}

// check panics when the operator does not apply to the type or n bytes are
// not a whole number of elements.
func check(o Op, t Type, n int) {
	if n%t.Size() != 0 {
		panic(fmt.Sprintf("dtype: buffer length %d not a multiple of %s size %d",
			n, t, t.Size()))
	}
	if !Valid(o, t) {
		panic(fmt.Sprintf("dtype: operator %s not valid for %s", o, t))
	}
}

// Reduce applies dst[i] = dst[i] op src[i] elementwise over buffers of the
// given type. It panics when the buffers differ in length, the length is
// not a multiple of the element size, or the operator does not apply to
// the type. Passing identical or zero-length buffers is allowed.
func Reduce(o Op, t Type, dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("dtype: Reduce length mismatch %d != %d", len(dst), len(src)))
	}
	check(o, t, len(dst))
	kernels[t][o](dst, dst, src)
}

// ReduceInto computes dst[i] = a[i] op b[i] in one pass over a and b, without
// requiring dst to hold an operand first. The SRM interior reduce uses it to
// combine a task's own user buffer with a child's shared-memory slot,
// avoiding the extra copy message-passing implementations pay (Figure 2).
// dst may be the same buffer as a or as b (same first byte); any other
// overlap between dst and an operand is not supported. All three buffers
// must have equal length, and the checks and panics are those of Reduce.
func ReduceInto(o Op, t Type, dst, a, b []byte) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic(fmt.Sprintf("dtype: ReduceInto length mismatch %d/%d/%d", len(dst), len(a), len(b)))
	}
	check(o, t, len(dst))
	kernels[t][o](dst, a, b)
}

// PutFloat64s encodes vals into dst (len(dst) >= 8*len(vals)).
func PutFloat64s(dst []byte, vals []float64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// Float64s decodes b (a multiple of 8 bytes) into a fresh slice.
func Float64s(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// Float64Bytes encodes vals into a fresh buffer.
func Float64Bytes(vals []float64) []byte {
	b := make([]byte, 8*len(vals))
	PutFloat64s(b, vals)
	return b
}

// PutInt64s encodes vals into dst (len(dst) >= 8*len(vals)).
func PutInt64s(dst []byte, vals []int64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[8*i:], uint64(v))
	}
}

// Int64s decodes b (a multiple of 8 bytes) into a fresh slice.
func Int64s(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// Int64Bytes encodes vals into a fresh buffer.
func Int64Bytes(vals []int64) []byte {
	b := make([]byte, 8*len(vals))
	PutInt64s(b, vals)
	return b
}
