package dtype

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSizes(t *testing.T) {
	cases := map[Type]int{Float64: 8, Float32: 4, Int64: 8, Int32: 4, Uint8: 1}
	for ty, want := range cases {
		if got := ty.Size(); got != want {
			t.Errorf("%s.Size() = %d, want %d", ty, got, want)
		}
	}
}

func TestStrings(t *testing.T) {
	if Float64.String() != "float64" || Uint8.String() != "uint8" {
		t.Error("type names wrong")
	}
	if Sum.String() != "sum" || Bxor.String() != "bxor" {
		t.Error("op names wrong")
	}
	if Type(99).String() == "" || Op(99).String() == "" {
		t.Error("unknown enums should still print")
	}
}

func TestValid(t *testing.T) {
	if !Valid(Sum, Float64) || !Valid(Max, Float32) || !Valid(Band, Int32) {
		t.Error("valid combos rejected")
	}
	if Valid(Band, Float64) || Valid(Bor, Float32) || Valid(Op(42), Int64) {
		t.Error("invalid combos accepted")
	}
}

func TestReduceFloat64Sum(t *testing.T) {
	dst := Float64Bytes([]float64{1, 2, 3.5})
	src := Float64Bytes([]float64{10, 20, 0.5})
	Reduce(Sum, Float64, dst, src)
	if got := Float64s(dst); !reflect.DeepEqual(got, []float64{11, 22, 4}) {
		t.Fatalf("sum = %v", got)
	}
}

func TestReduceFloat64MinMaxProd(t *testing.T) {
	base := []float64{-1, 5, 2}
	other := []float64{3, -2, 2}
	check := func(op Op, want []float64) {
		dst := Float64Bytes(base)
		Reduce(op, Float64, dst, Float64Bytes(other))
		if got := Float64s(dst); !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %v, want %v", op, got, want)
		}
	}
	check(Min, []float64{-1, -2, 2})
	check(Max, []float64{3, 5, 2})
	check(Prod, []float64{-3, -10, 4})
}

func TestReduceFloat32(t *testing.T) {
	dst := make([]byte, 8)
	src := make([]byte, 8)
	binary.LittleEndian.PutUint32(dst, math.Float32bits(1.5))
	binary.LittleEndian.PutUint32(dst[4:], math.Float32bits(-2))
	binary.LittleEndian.PutUint32(src, math.Float32bits(2.5))
	binary.LittleEndian.PutUint32(src[4:], math.Float32bits(7))
	Reduce(Sum, Float32, dst, src)
	if got := math.Float32frombits(binary.LittleEndian.Uint32(dst)); got != 4 {
		t.Errorf("float32 sum[0] = %v", got)
	}
	if got := math.Float32frombits(binary.LittleEndian.Uint32(dst[4:])); got != 5 {
		t.Errorf("float32 sum[1] = %v", got)
	}
}

func TestReduceInt64AllOps(t *testing.T) {
	base := []int64{6, -3}
	other := []int64{10, 5}
	check := func(op Op, want []int64) {
		dst := Int64Bytes(base)
		Reduce(op, Int64, dst, Int64Bytes(other))
		if got := Int64s(dst); !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %v, want %v", op, got, want)
		}
	}
	check(Sum, []int64{16, 2})
	check(Prod, []int64{60, -15})
	check(Min, []int64{6, -3})
	check(Max, []int64{10, 5})
	check(Band, []int64{6 & 10, -3 & 5})
	check(Bor, []int64{6 | 10, -3 | 5})
	check(Bxor, []int64{6 ^ 10, -3 ^ 5})
}

func TestReduceInt32(t *testing.T) {
	dst := make([]byte, 4)
	src := make([]byte, 4)
	binary.LittleEndian.PutUint32(dst, uint32(0x0F0F))
	binary.LittleEndian.PutUint32(src, uint32(0x00FF))
	Reduce(Band, Int32, dst, src)
	if got := binary.LittleEndian.Uint32(dst); got != 0x000F {
		t.Errorf("int32 band = %#x", got)
	}
}

func TestReduceUint8(t *testing.T) {
	dst := []byte{1, 200, 7}
	src := []byte{2, 100, 7}
	Reduce(Max, Uint8, dst, src)
	if !reflect.DeepEqual(dst, []byte{2, 200, 7}) {
		t.Errorf("uint8 max = %v", dst)
	}
	dst2 := []byte{0xF0}
	Reduce(Bxor, Uint8, dst2, []byte{0xFF})
	if dst2[0] != 0x0F {
		t.Errorf("uint8 bxor = %#x", dst2[0])
	}
}

func TestReduceEmpty(t *testing.T) {
	Reduce(Sum, Float64, nil, nil) // must not panic
}

func TestReducePanics(t *testing.T) {
	cases := []struct {
		name     string
		op       Op
		ty       Type
		dst, src []byte
	}{
		{"length mismatch", Sum, Float64, make([]byte, 8), make([]byte, 16)},
		{"not multiple", Sum, Float64, make([]byte, 7), make([]byte, 7)},
		{"bitwise on float", Band, Float64, make([]byte, 8), make([]byte, 8)},
		{"unknown op", Op(42), Int64, make([]byte, 8), make([]byte, 8)},
		{"bitwise on float, empty", Bxor, Float32, nil, nil},
		{"unknown op, empty", Op(42), Int64, nil, nil},
	}
	message := func(f func()) (msg any) {
		defer func() { msg = recover() }()
		f()
		return nil
	}
	for _, c := range cases {
		r := message(func() { Reduce(c.op, c.ty, c.dst, c.src) })
		ri := message(func() { ReduceInto(c.op, c.ty, c.dst, c.dst, c.src) })
		if r == nil || ri == nil {
			t.Errorf("%s: no panic (Reduce %v, ReduceInto %v)", c.name, r, ri)
		}
		// The two entry points run the same validation; only the length
		// mismatch names its caller.
		if len(c.dst) == len(c.src) && r != ri {
			t.Errorf("%s: Reduce panics with %q, ReduceInto with %q", c.name, r, ri)
		}
	}
}

// Property: elementwise sum over int64 matches the scalar reference.
func TestPropInt64SumMatchesReference(t *testing.T) {
	f := func(a, b []int64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		dst := Int64Bytes(a)
		Reduce(Sum, Int64, dst, Int64Bytes(b))
		got := Int64s(dst)
		for i := range got {
			if got[i] != a[i]+b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: min and max are commutative: reduce(a<-b) == reduce(b<-a).
func TestPropMinMaxCommutative(t *testing.T) {
	f := func(a, b []int64, useMax bool) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		op := Min
		if useMax {
			op = Max
		}
		d1, d2 := Int64Bytes(a), Int64Bytes(b)
		Reduce(op, Int64, d1, Int64Bytes(b))
		Reduce(op, Int64, d2, Int64Bytes(a))
		return reflect.DeepEqual(d1, d2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: bitwise ops are associative: (a op b) op c == a op (b op c).
func TestPropBitwiseAssociative(t *testing.T) {
	f := func(a, b, c []int64, sel uint8) bool {
		n := len(a)
		for _, s := range [][]int64{b, c} {
			if len(s) < n {
				n = len(s)
			}
		}
		a, b, c = a[:n], b[:n], c[:n]
		op := []Op{Band, Bor, Bxor}[sel%3]
		left := Int64Bytes(a)
		Reduce(op, Int64, left, Int64Bytes(b))
		Reduce(op, Int64, left, Int64Bytes(c))
		right := Int64Bytes(b)
		Reduce(op, Int64, right, Int64Bytes(c))
		tmp := Int64Bytes(a)
		Reduce(op, Int64, tmp, right)
		return reflect.DeepEqual(left, tmp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: float64 round trip through bytes is exact.
func TestPropFloat64RoundTrip(t *testing.T) {
	f := func(vals []float64) bool {
		got := Float64s(Float64Bytes(vals))
		if len(got) != len(vals) {
			return false
		}
		for i := range got {
			if got[i] != vals[i] && !(math.IsNaN(got[i]) && math.IsNaN(vals[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPutFloat64sInPlace(t *testing.T) {
	b := make([]byte, 24)
	PutFloat64s(b, []float64{1, 2, 3})
	if got := Float64s(b); !reflect.DeepEqual(got, []float64{1, 2, 3}) {
		t.Fatalf("round trip = %v", got)
	}
}

func TestPutInt64sInPlace(t *testing.T) {
	b := make([]byte, 16)
	PutInt64s(b, []int64{-5, 9})
	if got := Int64s(b); !reflect.DeepEqual(got, []int64{-5, 9}) {
		t.Fatalf("round trip = %v", got)
	}
}

func TestAllTypeAndOpNames(t *testing.T) {
	for ty, want := range map[Type]string{Float64: "float64", Float32: "float32",
		Int64: "int64", Int32: "int32", Uint8: "uint8"} {
		if ty.String() != want {
			t.Errorf("%d.String() = %q", int(ty), ty.String())
		}
	}
	for op, want := range map[Op]string{Sum: "sum", Prod: "prod", Min: "min",
		Max: "max", Band: "band", Bor: "bor", Bxor: "bxor"} {
		if op.String() != want {
			t.Errorf("%d.String() = %q", int(op), op.String())
		}
	}
}

func TestSizeUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Size of unknown type did not panic")
		}
	}()
	Type(42).Size()
}

func TestReduceInt32AllOps(t *testing.T) {
	enc := func(vals []int32) []byte {
		b := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
		}
		return b
	}
	dec := func(b []byte) []int32 {
		out := make([]int32, len(b)/4)
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
		return out
	}
	base, other := []int32{6, -3}, []int32{10, 5}
	check := func(op Op, want []int32) {
		dst := enc(base)
		Reduce(op, Int32, dst, enc(other))
		if got := dec(dst); !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %v, want %v", op, got, want)
		}
	}
	check(Sum, []int32{16, 2})
	check(Prod, []int32{60, -15})
	check(Min, []int32{6, -3})
	check(Max, []int32{10, 5})
	check(Band, []int32{6 & 10, -3 & 5})
	check(Bor, []int32{6 | 10, -3 | 5})
	check(Bxor, []int32{6 ^ 10, -3 ^ 5})
}

func TestReduceFloat32MinMaxProd(t *testing.T) {
	enc := func(vals []float32) []byte {
		b := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
		return b
	}
	dst := enc([]float32{2, -5})
	Reduce(Min, Float32, dst, enc([]float32{1, 0}))
	if got := math.Float32frombits(binary.LittleEndian.Uint32(dst)); got != 1 {
		t.Errorf("float32 min = %v", got)
	}
	dst = enc([]float32{2, -5})
	Reduce(Max, Float32, dst, enc([]float32{1, 0}))
	if got := math.Float32frombits(binary.LittleEndian.Uint32(dst[4:])); got != 0 {
		t.Errorf("float32 max = %v", got)
	}
	dst = enc([]float32{2, -5})
	Reduce(Prod, Float32, dst, enc([]float32{3, 2}))
	if got := math.Float32frombits(binary.LittleEndian.Uint32(dst)); got != 6 {
		t.Errorf("float32 prod = %v", got)
	}
}

func TestReduceUint8SumProdMin(t *testing.T) {
	dst := []byte{3, 9, 200}
	Reduce(Sum, Uint8, dst, []byte{4, 1, 55})
	if !reflect.DeepEqual(dst, []byte{7, 10, 255}) {
		t.Errorf("uint8 sum = %v", dst)
	}
	dst = []byte{3, 9}
	Reduce(Prod, Uint8, dst, []byte{4, 2})
	if !reflect.DeepEqual(dst, []byte{12, 18}) {
		t.Errorf("uint8 prod = %v", dst)
	}
	dst = []byte{3, 9}
	Reduce(Min, Uint8, dst, []byte{4, 2})
	if !reflect.DeepEqual(dst, []byte{3, 2}) {
		t.Errorf("uint8 min = %v", dst)
	}
	dst = []byte{3, 9}
	Reduce(Band, Uint8, dst, []byte{2, 8})
	if !reflect.DeepEqual(dst, []byte{2, 8}) {
		t.Errorf("uint8 band = %v", dst)
	}
}

func TestReduceInto(t *testing.T) {
	for _, alias := range []string{"distinct", "dst==a", "dst==b"} {
		a := Float64Bytes([]float64{1, 2, 3})
		b := Float64Bytes([]float64{10, 20, 30})
		dst := make([]byte, 24)
		switch alias {
		case "dst==a":
			dst = a
		case "dst==b":
			dst = b
		}
		ReduceInto(Sum, Float64, dst, a, b)
		if got := Float64s(dst); !reflect.DeepEqual(got, []float64{11, 22, 33}) {
			t.Errorf("%s: ReduceInto = %v, want [11 22 33]", alias, got)
		}
		if alias == "distinct" && (!reflect.DeepEqual(Float64s(a), []float64{1, 2, 3}) ||
			!reflect.DeepEqual(Float64s(b), []float64{10, 20, 30})) {
			t.Errorf("ReduceInto modified an operand: a %v b %v", Float64s(a), Float64s(b))
		}
	}
	// Zero length is a no-op.
	ReduceInto(Sum, Float64, nil, nil, nil)
	// Length mismatch panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("mismatched ReduceInto did not panic")
			}
		}()
		ReduceInto(Sum, Float64, make([]byte, 16), make([]byte, 16), make([]byte, 8))
	}()
}

// FuzzReduce holds Reduce and ReduceInto, for a drawn type and any of the
// seven operators, to the element-at-a-time reference on arbitrary bytes.
func FuzzReduce(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{8, 7, 6, 5, 4, 3, 2, 1}, uint8(0), uint8(2), false)
	f.Add(make([]byte, 32), make([]byte, 32), uint8(2), uint8(0), true)
	f.Add([]byte{0, 0, 0xc0, 0x7f, 0, 0, 0, 0x80}, []byte{1, 0, 0xa0, 0xff, 0, 0, 0, 0}, uint8(3), uint8(1), true)
	f.Fuzz(func(t *testing.T, a, b []byte, opRaw, tyRaw uint8, into bool) {
		ty := allTypes[int(tyRaw)%len(allTypes)]
		op := allOps[int(opRaw)%len(allOps)]
		if !Valid(op, ty) {
			return
		}
		n := min(len(a), len(b)) / ty.Size() * ty.Size()
		a, b = a[:n], b[:n]
		want := refReduceInto(op, ty, a, b)
		got := make([]byte, n)
		if into {
			ReduceInto(op, ty, got, a, b)
		} else {
			copy(got, a)
			Reduce(op, ty, got, b)
		}
		if err := sameResult(op, ty, got, want, a, b); err != nil {
			t.Fatalf("%s %s into=%v: %v", ty, op, into, err)
		}
	})
}
