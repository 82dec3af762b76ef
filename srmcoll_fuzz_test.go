package srmcoll

// Fuzz entry point of the differential conformance suite: scenario
// parameters are decoded from the fuzz input with hard bounds (at most 8
// ranks, 3 steps, 32 elements) so each execution stays fast, then checked
// byte-for-byte against the sequential reference. Run with
//
//	go test -fuzz=FuzzCollectives -fuzztime=30s
//
// CI runs a short-budget smoke of exactly that.

import "testing"

// decodeScenario maps arbitrary bytes onto a bounded scenario. The zero
// byte stream decodes to a valid minimal scenario, so every input is
// usable.
func decodeScenario(data []byte) confScenario {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return int(b)
	}
	sc := confScenario{
		nodes: 1 + next()%2,
		tpn:   1 + next()%4,
		impl:  []Impl{SRM, SRM, IBMMPI, MPICHMPI}[next()%4],
		mode:  next() % 3,
		batch: 2 + next()%2,
		lifo:  next()%2 == 1,
	}
	if sc.nodes*sc.tpn >= 2 {
		sc.split = next() % 3
	}
	steps := 1 + next()%3
	for i := 0; i < steps; i++ {
		st := confStep{
			op:    next() % len(confOpNames),
			elems: 1 + next()%32,
			dt:    []Datatype{Float64, Float32, Int64, Int32, Uint8}[next()%5],
			root:  next() % 8,
		}
		switch st.dt {
		case Float64, Float32:
			st.rop = []Op{Sum, Min, Max}[next()%3]
		default:
			st.rop = []Op{Sum, Prod, Min, Max, Band, Bor, Bxor}[next()%7]
		}
		sc.steps = append(sc.steps, st)
	}
	// Drawn after the step list, like genScenario, so pre-existing corpus
	// inputs keep their exact shapes (trailing zero bytes decode to Auto).
	sc.alg = []AllreduceAlg{AllreduceAuto, AllreduceRing,
		AllreduceRHD, AllreduceDualRoot}[next()%4]
	if z := next(); z%4 == 1 {
		sc.steps[(z/4)%len(sc.steps)].elems = 0 // an empty message
	}
	return sc
}

func FuzzCollectives(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 0, 1, 1, 0, 1, 3, 16, 2, 2, 0})
	f.Add([]byte{0, 2, 2, 2, 0, 1, 2, 8, 24, 0, 3, 1, 10, 9, 4, 6})
	f.Add([]byte{1, 1, 1, 0, 1, 0, 0, 7, 31, 1, 0, 2})
	// Seeds steering the three explicit allreduce families (op 3) through
	// split/non-blocking paths.
	f.Add([]byte{1, 3, 0, 1, 1, 0, 1, 0, 3, 16, 2, 2, 0, 1})
	f.Add([]byte{1, 3, 0, 2, 1, 1, 2, 0, 3, 24, 0, 3, 2})
	f.Add([]byte{1, 1, 0, 0, 1, 0, 1, 0, 3, 9, 4, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkScenario(t, decodeScenario(data))
	})
}
