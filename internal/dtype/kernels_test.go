package dtype

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// The reference the kernels are held to: one element at a time with the
// operator chosen inside the loop, as the package computed reductions before
// it had kernels.

type integer interface {
	~int64 | ~int32 | ~uint8
}

func combine[T number](o Op, d, s T) T {
	switch o {
	case Sum:
		return d + s
	case Prod:
		return d * s
	case Min:
		if s < d {
			return s
		}
		return d
	case Max:
		if s > d {
			return s
		}
		return d
	}
	panic("dtype: " + o.String() + " is not an arithmetic operator")
}

func combineBits[T integer](o Op, d, s T) T {
	switch o {
	case Band:
		return d & s
	case Bor:
		return d | s
	case Bxor:
		return d ^ s
	}
	panic("dtype: not a bitwise operator")
}

func combineInt[T integer](o Op, d, s T) T {
	if o >= Band {
		return combineBits(o, d, s)
	}
	return combine(o, d, s)
}

// refReduceInto returns a op b elementwise in a fresh buffer.
func refReduceInto(o Op, t Type, a, b []byte) []byte {
	dst := make([]byte, len(a))
	switch t {
	case Float64:
		for i := 0; i+8 <= len(dst); i += 8 {
			d := math.Float64frombits(binary.LittleEndian.Uint64(a[i:]))
			s := math.Float64frombits(binary.LittleEndian.Uint64(b[i:]))
			binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(combine(o, d, s)))
		}
	case Float32:
		for i := 0; i+4 <= len(dst); i += 4 {
			d := math.Float32frombits(binary.LittleEndian.Uint32(a[i:]))
			s := math.Float32frombits(binary.LittleEndian.Uint32(b[i:]))
			binary.LittleEndian.PutUint32(dst[i:], math.Float32bits(combine(o, d, s)))
		}
	case Int64:
		for i := 0; i+8 <= len(dst); i += 8 {
			d := int64(binary.LittleEndian.Uint64(a[i:]))
			s := int64(binary.LittleEndian.Uint64(b[i:]))
			binary.LittleEndian.PutUint64(dst[i:], uint64(combineInt(o, d, s)))
		}
	case Int32:
		for i := 0; i+4 <= len(dst); i += 4 {
			d := int32(binary.LittleEndian.Uint32(a[i:]))
			s := int32(binary.LittleEndian.Uint32(b[i:]))
			binary.LittleEndian.PutUint32(dst[i:], uint32(combineInt(o, d, s)))
		}
	case Uint8:
		for i := range dst {
			dst[i] = combineInt(o, a[i], b[i])
		}
	}
	return dst
}

// sameResult compares a kernel's output with the reference bit for bit. The
// one exception is floating-point Sum and Prod of two NaNs: the hardware
// returns one operand's payload, quieted, and which one depends on the
// operand order the compiler happened to emit, so either is accepted.
func sameResult(o Op, t Type, got, want, a, b []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	es := t.Size()
	for i := 0; i+es <= len(got); i += es {
		g, w := got[i:i+es], want[i:i+es]
		if bytes.Equal(g, w) {
			continue
		}
		if o <= Prod && t <= Float32 {
			var gb, ab, bb, quiet uint64
			var nan func(uint64) bool
			if t == Float64 {
				gb, ab, bb = le.Uint64(g), le.Uint64(a[i:]), le.Uint64(b[i:])
				quiet = 1 << 51
				nan = func(x uint64) bool { f := math.Float64frombits(x); return f != f }
			} else {
				gb, ab, bb = uint64(le.Uint32(g)), uint64(le.Uint32(a[i:])), uint64(le.Uint32(b[i:]))
				quiet = 1 << 22
				nan = func(x uint64) bool { f := math.Float32frombits(uint32(x)); return f != f }
			}
			if nan(ab) && nan(bb) && (gb == ab|quiet || gb == bb|quiet) {
				continue
			}
		}
		return fmt.Errorf("element %d: got % x, want % x (a % x, b % x)", i/es, g, w, a[i:i+es], b[i:i+es])
	}
	return nil
}

var allTypes = []Type{Float64, Float32, Int64, Int32, Uint8}
var allOps = []Op{Sum, Prod, Min, Max, Band, Bor, Bxor}

// specials returns the encoded values of t that a reduction could get wrong:
// both zeros, infinities, quiet and signalling NaNs of either sign with
// payloads, and the integers around the wrap-around points.
func specials(t Type) [][]byte {
	var out [][]byte
	put := func(bits uint64) {
		b := make([]byte, 8)
		le.PutUint64(b, bits)
		out = append(out, b[:t.Size()])
	}
	switch t {
	case Float64:
		for _, v := range []float64{0, math.Copysign(0, -1), 1, -1, 1.5, -2.25, 3,
			math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64} {
			put(math.Float64bits(v))
		}
		for _, bits := range []uint64{
			0x7ff8000000000000, 0x7ff8000000000abc, 0xfff8000000000001, // quiet
			0x7ff0000000000001, 0xfff4000000000def, // signalling
		} {
			put(bits)
		}
	case Float32:
		for _, v := range []float32{0, float32(math.Copysign(0, -1)), 1, -1, 1.5, -2.25, 3,
			float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32} {
			put(uint64(math.Float32bits(v)))
		}
		for _, bits := range []uint32{0x7fc00000, 0x7fc00abc, 0xffc00001, 0x7f800001, 0xffa00def} {
			put(uint64(bits))
		}
	case Int64:
		for _, v := range []int64{0, 1, -1, 2, -2, 3, 0x55, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1, 1 << 32, -(1 << 31)} {
			put(uint64(v))
		}
	case Int32:
		for _, v := range []int32{0, 1, -1, 2, -2, 3, 0x55, math.MaxInt32, math.MinInt32, math.MaxInt32 - 1, math.MinInt32 + 1, 1 << 16, -(1 << 15)} {
			put(uint64(uint32(v)))
		}
	case Uint8:
		for _, v := range []uint8{0, 1, 2, 3, 0x55, 0xaa, 127, 128, 254, 255, 16} {
			put(uint64(v))
		}
	}
	return out
}

// fill writes n elements of t into buf: special values at a stride that
// differs per stream so the two operands pair up differently from element to
// element, pseudo-random bits in between.
func fill(buf []byte, t Type, stream, n int) {
	sp := specials(t)
	x := uint64(stream)*0x9e3779b97f4a7c15 + uint64(n) + 1
	es := t.Size()
	for k := 0; k < n; k++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if k%3 == stream%3 {
			var w [8]byte
			le.PutUint64(w[:], x)
			copy(buf[k*es:(k+1)*es], w[:])
		} else {
			copy(buf[k*es:(k+1)*es], sp[(k*(2*stream+1)+n)%len(sp)])
		}
	}
}

// TestKernelsMatchReference holds every kernel to the element-at-a-time
// reference: every valid (type, operator) pair, every element count through
// two unrolled blocks and every remainder, operands that are sub-slices at
// every byte offset of a larger buffer (user buffers are arbitrary
// sub-slices), through Reduce and through ReduceInto with dst distinct, dst
// the same buffer as a, and dst the same buffer as b.
func TestKernelsMatchReference(t *testing.T) {
	const maxElems = 67
	for _, ty := range allTypes {
		es := ty.Size()
		arena := make([]byte, 3*(maxElems*es+8))
		for _, o := range allOps {
			if !Valid(o, ty) {
				continue
			}
			for n := 0; n <= maxElems; n++ {
				for off := 0; off < 8; off++ {
					third := len(arena) / 3
					at := func(i, shift int) []byte {
						lo := i*third + (off+shift)%8
						return arena[lo : lo+n*es : lo+n*es]
					}
					a, b, dst := at(0, 0), at(1, 3), at(2, 5)
					fill(a, ty, 1, n)
					fill(b, ty, 2, n)
					a0, b0 := bytes.Clone(a), bytes.Clone(b)
					want := refReduceInto(o, ty, a, b)
					check := func(mode string, got []byte) {
						t.Helper()
						if err := sameResult(o, ty, got, want, a0, b0); err != nil {
							t.Fatalf("%s %s n=%d off=%d %s: %v", ty, o, n, off, mode, err)
						}
					}

					for i := range dst {
						dst[i] = 0xA5
					}
					ReduceInto(o, ty, dst, a, b)
					check("ReduceInto distinct", dst)
					if !bytes.Equal(a, a0) || !bytes.Equal(b, b0) {
						t.Fatalf("%s %s n=%d off=%d: ReduceInto modified an operand", ty, o, n, off)
					}

					ReduceInto(o, ty, a, a, b)
					check("ReduceInto dst==a", a)
					copy(a, a0)

					ReduceInto(o, ty, b, a, b)
					check("ReduceInto dst==b", b)
					copy(b, b0)

					Reduce(o, ty, a, b)
					check("Reduce", a)
				}
			}
		}
	}
}

// TestKernelsSpecialPairs runs every ordered pair of special values through
// every kernel: NaN propagation, which zero Min and Max select, and integer
// wrap-around.
func TestKernelsSpecialPairs(t *testing.T) {
	for _, ty := range allTypes {
		sp := specials(ty)
		var a, b []byte
		for _, x := range sp {
			for _, y := range sp {
				a, b = append(a, x...), append(b, y...)
			}
		}
		for _, o := range allOps {
			if !Valid(o, ty) {
				continue
			}
			dst := make([]byte, len(a))
			ReduceInto(o, ty, dst, a, b)
			if err := sameResult(o, ty, dst, refReduceInto(o, ty, a, b), a, b); err != nil {
				t.Errorf("%s %s: %v", ty, o, err)
			}
		}
	}
}

func benchKernels(b *testing.B, run func(o Op, t Type, dst, x, y []byte)) {
	const size = 256 << 10
	dst, x, y := make([]byte, size), make([]byte, size), make([]byte, size)
	for _, ty := range allTypes {
		// Small values keep float products finite and sums exact.
		for i := range x {
			x[i], y[i] = byte(i%3), byte(i%5)
		}
		if ty <= Float32 {
			for i := 0; i+ty.Size() <= size; i += ty.Size() {
				if ty == Float64 {
					putF64(x[i:], float64(i%7)+0.5)
					putF64(y[i:], 1+float64(i%5)/8)
				} else {
					putF32(x[i:], float32(i%7)+0.5)
					putF32(y[i:], 1+float32(i%5)/8)
				}
			}
		}
		for _, o := range allOps {
			if !Valid(o, ty) {
				continue
			}
			b.Run(ty.String()+"/"+o.String(), func(b *testing.B) {
				b.SetBytes(size)
				for i := 0; i < b.N; i++ {
					run(o, ty, dst, x, y)
				}
			})
		}
	}
}

// BenchmarkReduce measures dst op= src, BenchmarkReduceInto dst = a op b,
// per (type, operator) kernel on 256 KiB operands.
func BenchmarkReduce(b *testing.B) {
	benchKernels(b, func(o Op, t Type, dst, _, y []byte) { Reduce(o, t, dst, y) })
}

func BenchmarkReduceInto(b *testing.B) {
	benchKernels(b, func(o Op, t Type, dst, x, y []byte) { ReduceInto(o, t, dst, x, y) })
}
