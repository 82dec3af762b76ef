package trace

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var s Stats
	s.AddCopy(10)
	if s.ShmCopies != 1 || s.ShmBytes != 10 || s.TotalCopies != 1 || s.TotalBytes != 10 {
		t.Fatalf("after AddCopy: %+v", s)
	}
}

func TestAddPlainCopyOnlyTotal(t *testing.T) {
	var s Stats
	s.AddPlainCopy(7)
	if s.ShmCopies != 0 || s.TotalCopies != 1 || s.TotalBytes != 7 {
		t.Fatalf("after AddPlainCopy: %+v", s)
	}
}

func TestAddReduce(t *testing.T) {
	var s Stats
	s.AddReduce(128)
	s.AddReduce(2)
	if s.ReduceOps != 2 || s.ReduceElement != 130 {
		t.Fatalf("%+v", s)
	}
}

func TestAddPutGet(t *testing.T) {
	var s Stats
	s.AddPut(0)
	s.AddPut(100)
	s.AddGet(50)
	if s.Puts != 2 || s.PutBytes != 100 || s.Gets != 1 || s.GetBytes != 50 {
		t.Fatalf("%+v", s)
	}
}

func TestAddSendProtocols(t *testing.T) {
	var s Stats
	s.AddSend(10, true, true)
	s.AddSend(1<<20, false, false)
	if s.MPISends != 2 || s.EagerSends != 1 || s.RndvSends != 1 || s.MPIShmSends != 1 {
		t.Fatalf("%+v", s)
	}
	if s.MPIBytes != 10+1<<20 {
		t.Fatalf("bytes = %d", s.MPIBytes)
	}
}

func TestSub(t *testing.T) {
	var a Stats
	a.AddCopy(100)
	a.AddPut(5)
	before := a
	a.AddCopy(1)
	a.AddSend(9, true, false)
	d := a.Sub(before)
	if d.ShmCopies != 1 || d.ShmBytes != 1 || d.Puts != 0 || d.MPISends != 1 {
		t.Fatalf("delta = %+v", d)
	}
}

// Property: Sub of a snapshot then re-adding gives back the later state for
// the counters exercised.
func TestPropSubConsistent(t *testing.T) {
	f := func(copies, puts, sends uint8) bool {
		var s Stats
		for i := 0; i < int(copies); i++ {
			s.AddCopy(3)
		}
		snap := s
		for i := 0; i < int(puts); i++ {
			s.AddPut(2)
		}
		for i := 0; i < int(sends); i++ {
			s.AddSend(1, i%2 == 0, false)
		}
		d := s.Sub(snap)
		return d.Puts == int(puts) && d.MPISends == int(sends) && d.ShmCopies == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// fillDistinct sets every field of a Stats to a distinct non-zero value.
func fillDistinct() Stats {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	return s
}

// TestSubCoversAllFields guards the hand-rolled Sub against new Stats
// fields being forgotten: subtracting a snapshot from itself must zero
// every field, and subtracting zero must be the identity.
func TestSubCoversAllFields(t *testing.T) {
	s := fillDistinct()
	if d := s.Sub(s); d != (Stats{}) {
		t.Fatalf("s.Sub(s) = %+v, want zero — Sub is missing a field", d)
	}
	if d := s.Sub(Stats{}); d != s {
		t.Fatalf("s.Sub(zero) = %+v, want %+v — Sub is missing a field", d, s)
	}
}

func TestReset(t *testing.T) {
	s := fillDistinct()
	s.Reset()
	if s != (Stats{}) {
		t.Fatalf("after Reset: %+v, want zero", s)
	}
	// Reset composes with Sub for per-operation deltas: after a reset the
	// running counters are the delta.
	s.AddPut(9)
	snap := s
	s.Reset()
	if snap.Puts != 1 || s.Puts != 0 {
		t.Fatalf("reset broke counting: snap=%+v s=%+v", snap, s)
	}
}

func TestStringEmpty(t *testing.T) {
	var s Stats
	if got := s.String(); got != "{}" {
		t.Fatalf("String() = %q", got)
	}
}

func TestStringShowsNonZero(t *testing.T) {
	var s Stats
	s.AddPut(42)
	got := s.String()
	if !strings.Contains(got, "puts=1") || !strings.Contains(got, "putBytes=42") {
		t.Fatalf("String() = %q", got)
	}
	if strings.Contains(got, "gets=") {
		t.Fatalf("String() shows zero counter: %q", got)
	}
}

// sortedPairsString is how Stats.String used to render: every non-zero
// counter formatted as key=value, the pairs sorted as strings and joined.
func sortedPairsString(s Stats) string {
	fields := []struct {
		k string
		v int64
	}{
		{"shmCopies", int64(s.ShmCopies)}, {"shmBytes", s.ShmBytes},
		{"reduceOps", int64(s.ReduceOps)}, {"reduceElems", s.ReduceElement},
		{"puts", int64(s.Puts)}, {"putBytes", s.PutBytes},
		{"gets", int64(s.Gets)}, {"getBytes", s.GetBytes},
		{"activeMsgs", int64(s.ActiveMsgs)}, {"interrupts", int64(s.Interrupts)},
		{"deferrals", int64(s.Deferrals)}, {"starves", int64(s.Starves)},
		{"drops", int64(s.Drops)}, {"retries", int64(s.Retries)},
		{"dupsSuppressed", int64(s.DupsSuppressed)}, {"ackTimeouts", int64(s.AckTimeouts)},
		{"deadDrops", int64(s.DeadDrops)},
		{"mpiSends", int64(s.MPISends)}, {"mpiBytes", s.MPIBytes},
		{"eager", int64(s.EagerSends)}, {"rndv", int64(s.RndvSends)},
		{"unexpected", int64(s.Unexpected)}, {"mpiShmSends", int64(s.MPIShmSends)},
		{"copies", int64(s.TotalCopies)}, {"copyBytes", s.TotalBytes},
	}
	var parts []string
	for _, f := range fields {
		if f.v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", f.k, f.v))
		}
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, " ") + "}"
}

// TestStringMatchesSortedPairs holds String, which writes its pairs in a fixed
// order into one buffer, to the sorted rendering it replaced: on every field
// set, on random counters (zeros, negatives and wide values among them), and
// to one allocation, the string itself.
func TestStringMatchesSortedPairs(t *testing.T) {
	full := fillDistinct()
	if got, want := full.String(), sortedPairsString(full); got != want {
		t.Fatalf("every field set:\n got %s\nwant %s", got, want)
	}
	if n := strings.Count(full.String(), "="); n != reflect.TypeOf(full).NumField() {
		t.Fatalf("String shows %d of %d fields", n, reflect.TypeOf(full).NumField())
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 2000; i++ {
		var s Stats
		v := reflect.ValueOf(&s).Elem()
		for f := 0; f < v.NumField(); f++ {
			switch rng.IntN(4) {
			case 0:
				v.Field(f).SetInt(rng.Int64N(1000))
			case 1:
				v.Field(f).SetInt(-rng.Int64N(1 << 40))
			case 2:
				v.Field(f).SetInt(rng.Int64())
			}
		}
		if got, want := s.String(), sortedPairsString(s); got != want {
			t.Fatalf("%+v:\n got %s\nwant %s", s, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = full.String() }); n != 1 {
		t.Errorf("String makes %.0f objects, want 1", n)
	}
}
