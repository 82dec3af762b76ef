package srmcoll

import (
	"runtime"
	"slices"
	"testing"

	"srmcoll/internal/machine"
	"srmcoll/internal/ranks"
	"srmcoll/internal/rma"
	"srmcoll/internal/sim"
)

// TestSubIdentity: a communicator is its member list. The same list from the
// same parent is the same handle, however often and from whatever slice it is
// asked for; order is part of the list; and all ranks share one record per
// list, whichever parent they reached it from.
func TestSubIdentity(t *testing.T) {
	for _, impl := range impls() {
		cl := mustCluster(t, 2, 2)
		recs := make([]*commRec, 4)
		_, err := cl.Run(impl, func(c *Comm) {
			list := []int{1, 2, 3}
			a := c.Sub(list)
			list2 := slices.Clone(list)
			if b := c.Sub(list2); b != a {
				t.Errorf("%s rank %d: Sub of an equal list returned another handle", impl, c.Rank())
			}
			list2[0] = 0 // the record keeps its own copy
			if got := a.Members(); !slices.Equal(got, list) {
				t.Errorf("%s rank %d: members %v after the caller rewrote its slice, want %v", impl, c.Rank(), got, list)
			}
			rev := c.Sub([]int{3, 2, 1})
			if rev == a || rev.rec == a.rec || !slices.Equal(rev.Members(), []int{3, 2, 1}) {
				t.Errorf("%s rank %d: [3 2 1] is not its own communicator", impl, c.Rank())
			}
			// The same list out of another parent: another handle (request
			// order is per handle), the same communicator.
			if via := rev.Sub(list); via == a || via.rec != a.rec {
				t.Errorf("%s rank %d: [1 2 3] out of [3 2 1]: handle shared %v, record shared %v", impl, c.Rank(), via == a, via.rec == a.rec)
			}
			recs[c.Rank()] = a.rec
			if c.Rank() == 0 {
				return
			}
			// Group ranks follow list order on both.
			for _, s := range []*Comm{a, rev} {
				buf := []byte{byte(c.Rank())}
				s.Bcast(buf, s.Members()[0])
				if int(buf[0]) != s.Members()[0] {
					t.Errorf("%s rank %d: bcast on %v delivered %d", impl, c.Rank(), s.Members(), buf[0])
				}
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", impl, err)
		}
		if recs[0] == nil || slices.ContainsFunc(recs, func(r *commRec) bool { return r != recs[0] }) {
			t.Errorf("%s: ranks hold different records of one list: %p", impl, recs)
		}
	}
}

// TestWorldAndSubOfAllAreDistinctStreams: Sub over every rank is a communicator
// of its own beside the world — its own handle, name and rendezvous count.
func TestWorldAndSubOfAllAreDistinctStreams(t *testing.T) {
	cl := mustCluster(t, 1, 3)
	cl.SetFaultTolerance(DefaultFTConfig())
	res, err := cl.Run(SRM, func(c *Comm) {
		all := c.Sub([]int{0, 1, 2})
		if all == c || all.rec == c.rec {
			t.Errorf("rank %d: Sub of all ranks returned the world", c.Rank())
		}
		all.Agree(1)
		c.Agree(1)
		all.Agree(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, rep := range res.Repairs {
		got = append(got, rep.Comm)
	}
	if want := []string{"[0 1 2]#0", "world#0", "[0 1 2]#1"}; !slices.Equal(got, want) {
		t.Errorf("rendezvous %q, want %q", got, want)
	}
}

// TestCollidingListsGetTheirOwnRecords plants a record in the bucket another
// list hashes to: a hash only narrows the search, the lists decide.
func TestCollidingListsGetTheirOwnRecords(t *testing.T) {
	cl := mustCluster(t, 2, 2)
	env := sim.NewEnv()
	m := machine.New(env, cl.Config())
	rs := newRunState(env, m.P())
	world := rs.newWorld(m.P(), cl.newSRM(m, rma.NewDomain(m)).World())

	a, b := []int{0, 1}, []int{2, 3}
	recB := rs.sub(world, b)
	h := ranks.Hash(a)
	rs.byHash[h] = recB // b's record, found under a's hash
	recA := rs.sub(world, a)
	if recA == recB || !slices.Equal(recA.members, a) {
		t.Fatalf("list %v resolved to the record of %v", a, recA.members)
	}
	if rs.byHash[h] != recA || recA.next != recB || rs.lookup(h, a) != recA || rs.lookup(h, b) != recB {
		t.Errorf("bucket of %v does not tell the two lists apart", a)
	}
	if rs.sub(world, a) != recA || rs.sub(world, b) != recB || len(rs.comms) != 3 {
		t.Errorf("a second lookup made new records: %d of them", len(rs.comms))
	}
	// The world is not what Sub over every rank finds.
	if all := rs.sub(world, []int{0, 1, 2, 3}); all == world || all.key() != "[0 1 2 3]" || world.key() != "world" {
		t.Errorf("Sub of all ranks found %q", all.key())
	}
}

// TestNestedSubAfterShrink carves a communicator out of a repaired one: every
// other survivor, then the first two of those. The sums say the groups are
// what the lists say, from both forms of body alike.
func TestNestedSubAfterShrink(t *testing.T) {
	const P, dead = 8, 3
	var fps [2]string
	for e, form := range bodyForms {
		cl := ftCluster(t, 2, 4, Crash{Rank: dead, At: 40})
		sums := make([][2]int64, P)
		res, err := form.run(cl, SRM, func(tc *TComm, done func()) {
			r := tc.Rank()
			send, recv := Int64Bytes([]int64{int64(r) + 1}), make([]byte, 8)
			// sumOn runs an allreduce on s and stores the result at sums[r][i].
			sumOn := func(s *TComm, i int, k func()) {
				s.Allreduce(send, recv, Int64, Sum, func(err error) {
					if err != nil {
						panic(err)
					}
					sums[r][i] = Int64s(recv)[0]
					k()
				})
			}
			var loop func()
			loop = func() {
				tc.Barrier(func(err error) {
					if err == nil {
						tc.Compute(10, loop)
						return
					}
					tc.Shrink(func(sc *TComm, err error) {
						if err != nil {
							panic(err)
						}
						surv := sc.Members()
						var half []int
						for i := 0; i < len(surv); i += 2 {
							half = append(half, surv[i])
						}
						if !slices.Contains(half, r) {
							done()
							return
						}
						hc := sc.Sub(half)
						sumOn(hc, 0, func() {
							if !slices.Contains(half[:2], r) {
								done()
								return
							}
							if hc.Sub(half[:2]) != hc.Sub(half[:2]) {
								panic("nested Sub is not canonical")
							}
							sumOn(hc.Sub(half[:2]), 1, done)
						})
					})
				})
			}
			loop()
		})
		if err != nil {
			t.Fatalf("%s: %v", form.name, err)
		}
		// Survivors 0 1 2 4 5 6 7: every other is 0 2 5 7, the first two 0 2.
		want := map[int][2]int64{0: {1 + 3 + 6 + 8, 1 + 3}, 2: {1 + 3 + 6 + 8, 1 + 3}, 5: {1 + 3 + 6 + 8}, 7: {1 + 3 + 6 + 8}}
		for r := range sums {
			if sums[r] != want[r] {
				t.Errorf("%s rank %d: sums %v, want %v", form.name, r, sums[r], want[r])
			}
		}
		fps[e] = pinOf(res)
	}
	if fps[0] != fps[1] {
		t.Errorf("engines diverge: procs %s, tasks %s", fps[0], fps[1])
	}
}

// TestSubHitAllocatesNothing: asking again for a communicator the rank already
// holds builds no key, no list and no handle, from either form of body.
func TestSubHitAllocatesNothing(t *testing.T) {
	for _, form := range bodyForms {
		_, err := form.run(mustCluster(t, 4, 4), SRM, func(tc *TComm, done func()) {
			defer done()
			if tc.Rank() != 5 {
				return
			}
			list := []int{1, 3, 5, 7, 9, 11, 13, 15}
			sub := tc.Sub(list)
			if n := testing.AllocsPerRun(100, func() {
				if tc.Sub(list) != sub || (*Comm)(tc).Sub(list) != (*Comm)(sub) {
					panic("Sub is not canonical")
				}
			}); n != 0 {
				t.Errorf("%s: a repeated Sub allocates %v objects, want 0", form.name, n)
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", form.name, err)
		}
	}
}

// TestRepairAllocatesLinearly: what a Shrink and an Agree on the result cost
// in allocated objects, beyond a run without them, grows with the number of
// ranks and not with its square — a handle per rank, and per communicator a
// record, a name and two rendezvous. Recorded: 4.4 objects per rank at 16
// ranks and 2.7 at 64; when every rank formatted the member list for every
// call it was 71 and 256.
func TestRepairAllocatesLinearly(t *testing.T) {
	mallocs := func(nodes int, body func(*Comm)) uint64 {
		cl := mustCluster(t, nodes, 4)
		cl.SetFaultTolerance(DefaultFTConfig())
		best := ^uint64(0)
		for i := 0; i < 3; i++ { // the least of three: the run, without the runtime's own noise
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := cl.Run(SRM, body); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.Mallocs-before.Mallocs)
		}
		return best
	}
	repair := func(c *Comm) {
		nc, err := c.Shrink()
		if err != nil {
			panic(err)
		}
		if _, err := nc.Agree(1); err != nil {
			panic(err)
		}
	}
	for _, nodes := range []int{4, 16} {
		p := 4 * nodes
		// The run it is compared with parks every rank once, so that both give
		// each rank a coroutine of its own.
		perRank := float64(mallocs(nodes, repair)-mallocs(nodes, func(c *Comm) { c.Compute(1) })) / float64(p)
		t.Logf("%d ranks: %.2f objects per rank", p, perRank)
		if perRank > 6 {
			t.Errorf("%d ranks: Shrink+Agree allocates %.2f objects per rank, want at most 6", p, perRank)
		}
	}
}
