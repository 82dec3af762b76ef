package dtype

import (
	"encoding/binary"
	"math"
)

// Reduction kernels. A kernel computes dst[i] = a[i] op b[i] for one element
// type and one operator, both fixed at compile time so the loop body is the
// operator's single instruction rather than a dispatch. The three-operand
// form makes ReduceInto one pass and Reduce the same kernel with a = dst;
// dst may be exactly a or exactly b because every element is loaded before
// it is stored. Elements are read and written through encoding/binary's
// little-endian accessors, which compile to plain loads and stores wherever
// the host allows and stay correct (any alignment, any byte order) where it
// does not, so there is one path and no unsafe view. Each loop takes four
// elements per iteration out of windows resliced to a constant length: one
// slice bounds check per window, none per element.
type kernel func(dst, a, b []byte)

// kernels is indexed by Type, then Op; nil marks the pairs Valid rejects.
// The bitwise operators do not depend on the element width, so the integer
// types share the word-wide byte kernels.
var kernels = [...][Bxor + 1]kernel{
	Float64: {Sum: sumF64, Prod: prodF64, Min: minF64, Max: maxF64},
	Float32: {Sum: sumF32, Prod: prodF32, Min: minF32, Max: maxF32},
	Int64:   {sumI64, prodI64, minI64, maxI64, andBytes, orBytes, xorBytes},
	Int32:   {sumI32, prodI32, minI32, maxI32, andBytes, orBytes, xorBytes},
	Uint8:   {sumU8, prodU8, minU8, maxU8, andBytes, orBytes, xorBytes},
}

var le = binary.LittleEndian

func f64(b []byte) float64       { return math.Float64frombits(le.Uint64(b)) }
func putF64(b []byte, v float64) { le.PutUint64(b, math.Float64bits(v)) }
func f32(b []byte) float32       { return math.Float32frombits(le.Uint32(b)) }
func putF32(b []byte, v float32) { le.PutUint32(b, math.Float32bits(v)) }
func i64(b []byte) int64         { return int64(le.Uint64(b)) }
func putI64(b []byte, v int64)   { le.PutUint64(b, uint64(v)) }
func i32(b []byte) int32         { return int32(le.Uint32(b)) }
func putI32(b []byte, v int32)   { le.PutUint32(b, uint32(v)) }

type number interface {
	~float64 | ~float32 | ~int64 | ~int32 | ~uint8
}

// lesser and greater keep the first operand unless the second compares
// strictly beyond it, so a NaN or a zero of either sign in a stays.
func lesser[T number](a, b T) T {
	if b < a {
		return b
	}
	return a
}

func greater[T number](a, b T) T {
	if b > a {
		return b
	}
	return a
}

func sumF64(dst, a, b []byte) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+32 <= n; i += 32 {
		d, x, y := dst[i:i+32:i+32], a[i:i+32:i+32], b[i:i+32:i+32]
		putF64(d[0:8], f64(x[0:8])+f64(y[0:8]))
		putF64(d[8:16], f64(x[8:16])+f64(y[8:16]))
		putF64(d[16:24], f64(x[16:24])+f64(y[16:24]))
		putF64(d[24:32], f64(x[24:32])+f64(y[24:32]))
	}
	for ; i+8 <= n; i += 8 {
		putF64(dst[i:i+8], f64(a[i:i+8])+f64(b[i:i+8]))
	}
}

func prodF64(dst, a, b []byte) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+32 <= n; i += 32 {
		d, x, y := dst[i:i+32:i+32], a[i:i+32:i+32], b[i:i+32:i+32]
		putF64(d[0:8], f64(x[0:8])*f64(y[0:8]))
		putF64(d[8:16], f64(x[8:16])*f64(y[8:16]))
		putF64(d[16:24], f64(x[16:24])*f64(y[16:24]))
		putF64(d[24:32], f64(x[24:32])*f64(y[24:32]))
	}
	for ; i+8 <= n; i += 8 {
		putF64(dst[i:i+8], f64(a[i:i+8])*f64(b[i:i+8]))
	}
}

func minF64(dst, a, b []byte) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+32 <= n; i += 32 {
		d, x, y := dst[i:i+32:i+32], a[i:i+32:i+32], b[i:i+32:i+32]
		putF64(d[0:8], lesser(f64(x[0:8]), f64(y[0:8])))
		putF64(d[8:16], lesser(f64(x[8:16]), f64(y[8:16])))
		putF64(d[16:24], lesser(f64(x[16:24]), f64(y[16:24])))
		putF64(d[24:32], lesser(f64(x[24:32]), f64(y[24:32])))
	}
	for ; i+8 <= n; i += 8 {
		putF64(dst[i:i+8], lesser(f64(a[i:i+8]), f64(b[i:i+8])))
	}
}

func maxF64(dst, a, b []byte) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+32 <= n; i += 32 {
		d, x, y := dst[i:i+32:i+32], a[i:i+32:i+32], b[i:i+32:i+32]
		putF64(d[0:8], greater(f64(x[0:8]), f64(y[0:8])))
		putF64(d[8:16], greater(f64(x[8:16]), f64(y[8:16])))
		putF64(d[16:24], greater(f64(x[16:24]), f64(y[16:24])))
		putF64(d[24:32], greater(f64(x[24:32]), f64(y[24:32])))
	}
	for ; i+8 <= n; i += 8 {
		putF64(dst[i:i+8], greater(f64(a[i:i+8]), f64(b[i:i+8])))
	}
}

func sumF32(dst, a, b []byte) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+16 <= n; i += 16 {
		d, x, y := dst[i:i+16:i+16], a[i:i+16:i+16], b[i:i+16:i+16]
		putF32(d[0:4], f32(x[0:4])+f32(y[0:4]))
		putF32(d[4:8], f32(x[4:8])+f32(y[4:8]))
		putF32(d[8:12], f32(x[8:12])+f32(y[8:12]))
		putF32(d[12:16], f32(x[12:16])+f32(y[12:16]))
	}
	for ; i+4 <= n; i += 4 {
		putF32(dst[i:i+4], f32(a[i:i+4])+f32(b[i:i+4]))
	}
}

func prodF32(dst, a, b []byte) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+16 <= n; i += 16 {
		d, x, y := dst[i:i+16:i+16], a[i:i+16:i+16], b[i:i+16:i+16]
		putF32(d[0:4], f32(x[0:4])*f32(y[0:4]))
		putF32(d[4:8], f32(x[4:8])*f32(y[4:8]))
		putF32(d[8:12], f32(x[8:12])*f32(y[8:12]))
		putF32(d[12:16], f32(x[12:16])*f32(y[12:16]))
	}
	for ; i+4 <= n; i += 4 {
		putF32(dst[i:i+4], f32(a[i:i+4])*f32(b[i:i+4]))
	}
}

func minF32(dst, a, b []byte) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+16 <= n; i += 16 {
		d, x, y := dst[i:i+16:i+16], a[i:i+16:i+16], b[i:i+16:i+16]
		putF32(d[0:4], lesser(f32(x[0:4]), f32(y[0:4])))
		putF32(d[4:8], lesser(f32(x[4:8]), f32(y[4:8])))
		putF32(d[8:12], lesser(f32(x[8:12]), f32(y[8:12])))
		putF32(d[12:16], lesser(f32(x[12:16]), f32(y[12:16])))
	}
	for ; i+4 <= n; i += 4 {
		putF32(dst[i:i+4], lesser(f32(a[i:i+4]), f32(b[i:i+4])))
	}
}

func maxF32(dst, a, b []byte) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+16 <= n; i += 16 {
		d, x, y := dst[i:i+16:i+16], a[i:i+16:i+16], b[i:i+16:i+16]
		putF32(d[0:4], greater(f32(x[0:4]), f32(y[0:4])))
		putF32(d[4:8], greater(f32(x[4:8]), f32(y[4:8])))
		putF32(d[8:12], greater(f32(x[8:12]), f32(y[8:12])))
		putF32(d[12:16], greater(f32(x[12:16]), f32(y[12:16])))
	}
	for ; i+4 <= n; i += 4 {
		putF32(dst[i:i+4], greater(f32(a[i:i+4]), f32(b[i:i+4])))
	}
}

func sumI64(dst, a, b []byte) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+32 <= n; i += 32 {
		d, x, y := dst[i:i+32:i+32], a[i:i+32:i+32], b[i:i+32:i+32]
		putI64(d[0:8], i64(x[0:8])+i64(y[0:8]))
		putI64(d[8:16], i64(x[8:16])+i64(y[8:16]))
		putI64(d[16:24], i64(x[16:24])+i64(y[16:24]))
		putI64(d[24:32], i64(x[24:32])+i64(y[24:32]))
	}
	for ; i+8 <= n; i += 8 {
		putI64(dst[i:i+8], i64(a[i:i+8])+i64(b[i:i+8]))
	}
}

func prodI64(dst, a, b []byte) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+32 <= n; i += 32 {
		d, x, y := dst[i:i+32:i+32], a[i:i+32:i+32], b[i:i+32:i+32]
		putI64(d[0:8], i64(x[0:8])*i64(y[0:8]))
		putI64(d[8:16], i64(x[8:16])*i64(y[8:16]))
		putI64(d[16:24], i64(x[16:24])*i64(y[16:24]))
		putI64(d[24:32], i64(x[24:32])*i64(y[24:32]))
	}
	for ; i+8 <= n; i += 8 {
		putI64(dst[i:i+8], i64(a[i:i+8])*i64(b[i:i+8]))
	}
}

func minI64(dst, a, b []byte) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+32 <= n; i += 32 {
		d, x, y := dst[i:i+32:i+32], a[i:i+32:i+32], b[i:i+32:i+32]
		putI64(d[0:8], lesser(i64(x[0:8]), i64(y[0:8])))
		putI64(d[8:16], lesser(i64(x[8:16]), i64(y[8:16])))
		putI64(d[16:24], lesser(i64(x[16:24]), i64(y[16:24])))
		putI64(d[24:32], lesser(i64(x[24:32]), i64(y[24:32])))
	}
	for ; i+8 <= n; i += 8 {
		putI64(dst[i:i+8], lesser(i64(a[i:i+8]), i64(b[i:i+8])))
	}
}

func maxI64(dst, a, b []byte) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+32 <= n; i += 32 {
		d, x, y := dst[i:i+32:i+32], a[i:i+32:i+32], b[i:i+32:i+32]
		putI64(d[0:8], greater(i64(x[0:8]), i64(y[0:8])))
		putI64(d[8:16], greater(i64(x[8:16]), i64(y[8:16])))
		putI64(d[16:24], greater(i64(x[16:24]), i64(y[16:24])))
		putI64(d[24:32], greater(i64(x[24:32]), i64(y[24:32])))
	}
	for ; i+8 <= n; i += 8 {
		putI64(dst[i:i+8], greater(i64(a[i:i+8]), i64(b[i:i+8])))
	}
}

func sumI32(dst, a, b []byte) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+16 <= n; i += 16 {
		d, x, y := dst[i:i+16:i+16], a[i:i+16:i+16], b[i:i+16:i+16]
		putI32(d[0:4], i32(x[0:4])+i32(y[0:4]))
		putI32(d[4:8], i32(x[4:8])+i32(y[4:8]))
		putI32(d[8:12], i32(x[8:12])+i32(y[8:12]))
		putI32(d[12:16], i32(x[12:16])+i32(y[12:16]))
	}
	for ; i+4 <= n; i += 4 {
		putI32(dst[i:i+4], i32(a[i:i+4])+i32(b[i:i+4]))
	}
}

func prodI32(dst, a, b []byte) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+16 <= n; i += 16 {
		d, x, y := dst[i:i+16:i+16], a[i:i+16:i+16], b[i:i+16:i+16]
		putI32(d[0:4], i32(x[0:4])*i32(y[0:4]))
		putI32(d[4:8], i32(x[4:8])*i32(y[4:8]))
		putI32(d[8:12], i32(x[8:12])*i32(y[8:12]))
		putI32(d[12:16], i32(x[12:16])*i32(y[12:16]))
	}
	for ; i+4 <= n; i += 4 {
		putI32(dst[i:i+4], i32(a[i:i+4])*i32(b[i:i+4]))
	}
}

func minI32(dst, a, b []byte) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+16 <= n; i += 16 {
		d, x, y := dst[i:i+16:i+16], a[i:i+16:i+16], b[i:i+16:i+16]
		putI32(d[0:4], lesser(i32(x[0:4]), i32(y[0:4])))
		putI32(d[4:8], lesser(i32(x[4:8]), i32(y[4:8])))
		putI32(d[8:12], lesser(i32(x[8:12]), i32(y[8:12])))
		putI32(d[12:16], lesser(i32(x[12:16]), i32(y[12:16])))
	}
	for ; i+4 <= n; i += 4 {
		putI32(dst[i:i+4], lesser(i32(a[i:i+4]), i32(b[i:i+4])))
	}
}

func maxI32(dst, a, b []byte) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+16 <= n; i += 16 {
		d, x, y := dst[i:i+16:i+16], a[i:i+16:i+16], b[i:i+16:i+16]
		putI32(d[0:4], greater(i32(x[0:4]), i32(y[0:4])))
		putI32(d[4:8], greater(i32(x[4:8]), i32(y[4:8])))
		putI32(d[8:12], greater(i32(x[8:12]), i32(y[8:12])))
		putI32(d[12:16], greater(i32(x[12:16]), i32(y[12:16])))
	}
	for ; i+4 <= n; i += 4 {
		putI32(dst[i:i+4], greater(i32(a[i:i+4]), i32(b[i:i+4])))
	}
}

func sumU8(dst, a, b []byte) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
		d[0] = x[0] + y[0]
		d[1] = x[1] + y[1]
		d[2] = x[2] + y[2]
		d[3] = x[3] + y[3]
	}
	for ; i < n; i++ {
		dst[i] = a[i] + b[i]
	}
}

func prodU8(dst, a, b []byte) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
		d[0] = x[0] * y[0]
		d[1] = x[1] * y[1]
		d[2] = x[2] * y[2]
		d[3] = x[3] * y[3]
	}
	for ; i < n; i++ {
		dst[i] = a[i] * b[i]
	}
}

func minU8(dst, a, b []byte) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
		d[0] = lesser(x[0], y[0])
		d[1] = lesser(x[1], y[1])
		d[2] = lesser(x[2], y[2])
		d[3] = lesser(x[3], y[3])
	}
	for ; i < n; i++ {
		dst[i] = lesser(a[i], b[i])
	}
}

func maxU8(dst, a, b []byte) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
		d[0] = greater(x[0], y[0])
		d[1] = greater(x[1], y[1])
		d[2] = greater(x[2], y[2])
		d[3] = greater(x[3], y[3])
	}
	for ; i < n; i++ {
		dst[i] = greater(a[i], b[i])
	}
}

func andBytes(dst, a, b []byte) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+32 <= n; i += 32 {
		d, x, y := dst[i:i+32:i+32], a[i:i+32:i+32], b[i:i+32:i+32]
		le.PutUint64(d[0:8], le.Uint64(x[0:8])&le.Uint64(y[0:8]))
		le.PutUint64(d[8:16], le.Uint64(x[8:16])&le.Uint64(y[8:16]))
		le.PutUint64(d[16:24], le.Uint64(x[16:24])&le.Uint64(y[16:24]))
		le.PutUint64(d[24:32], le.Uint64(x[24:32])&le.Uint64(y[24:32]))
	}
	for ; i < n; i++ {
		dst[i] = a[i] & b[i]
	}
}

func orBytes(dst, a, b []byte) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+32 <= n; i += 32 {
		d, x, y := dst[i:i+32:i+32], a[i:i+32:i+32], b[i:i+32:i+32]
		le.PutUint64(d[0:8], le.Uint64(x[0:8])|le.Uint64(y[0:8]))
		le.PutUint64(d[8:16], le.Uint64(x[8:16])|le.Uint64(y[8:16]))
		le.PutUint64(d[16:24], le.Uint64(x[16:24])|le.Uint64(y[16:24]))
		le.PutUint64(d[24:32], le.Uint64(x[24:32])|le.Uint64(y[24:32]))
	}
	for ; i < n; i++ {
		dst[i] = a[i] | b[i]
	}
}

func xorBytes(dst, a, b []byte) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+32 <= n; i += 32 {
		d, x, y := dst[i:i+32:i+32], a[i:i+32:i+32], b[i:i+32:i+32]
		le.PutUint64(d[0:8], le.Uint64(x[0:8])^le.Uint64(y[0:8]))
		le.PutUint64(d[8:16], le.Uint64(x[8:16])^le.Uint64(y[8:16]))
		le.PutUint64(d[16:24], le.Uint64(x[16:24])^le.Uint64(y[16:24]))
		le.PutUint64(d[24:32], le.Uint64(x[24:32])^le.Uint64(y[24:32]))
	}
	for ; i < n; i++ {
		dst[i] = a[i] ^ b[i]
	}
}
