package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"srmcoll/internal/dtype"
	"srmcoll/internal/machine"
	"srmcoll/internal/rma"
	"srmcoll/internal/sim"
)

// blockOf returns rank r's distinctive block.
func blockOf(r, blk int) []byte {
	b := make([]byte, blk)
	for i := range b {
		b[i] = byte(r*37 + i + 1)
	}
	return b
}

// wantConcat builds the expected gathered vector for the member order.
func wantConcat(members []int, blk int) []byte {
	out := make([]byte, 0, len(members)*blk)
	for _, r := range members {
		out = append(out, blockOf(r, blk)...)
	}
	return out
}

func TestRunsOfWorld(t *testing.T) {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(3, 4))
	lay := New(m, nil, Options{}).newLayout([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	rs := runsOf(&lay)
	if len(rs) != 3 {
		t.Fatalf("world runs = %d, want one per node (%v)", len(rs), rs)
	}
	for x, rn := range rs {
		if rn.node != x || rn.count != 4 || rn.first != 4*x || rn.lofff != 0 {
			t.Fatalf("run %d = %+v", x, rn)
		}
	}
}

func TestRunsOfSparse(t *testing.T) {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(3, 4))
	// 1,2 contiguous on node 0; 5 on node 1; 6,7 contiguous on node 1; 9 on node 2.
	lay := New(m, nil, Options{}).newLayout([]int{1, 2, 5, 6, 7, 9})
	rs := runsOf(&lay)
	if len(rs) != 3 {
		t.Fatalf("runs = %v", rs)
	}
	if rs[0].count != 2 || rs[1].count != 3 || rs[2].count != 1 {
		t.Fatalf("run sizes = %v", rs)
	}
}

func checkGather(t *testing.T, nodes, tpn int, members []int, blk, root int) {
	t.Helper()
	recv := make([]byte, blk*len(members))
	groupHarness(t, nodes, tpn, members, func(g *Group, p *sim.Proc, rank int) {
		var rb []byte
		if rank == root {
			rb = recv
		}
		block(p, func(t *sim.Task, k sim.K) { g.GatherT(t, rank, blockOf(rank, blk), rb, root, k) })
	})
	if want := wantConcat(members, blk); !bytes.Equal(recv, want) {
		t.Fatalf("gather members=%v blk=%d root=%d wrong (got %v..., want %v...)",
			members, blk, root, recv[:min(16, len(recv))], want[:min(16, len(want))])
	}
}

func TestGatherShapes(t *testing.T) {
	world12 := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	cases := []struct {
		members   []int
		blk, root int
	}{
		{world12, 64, 0},
		{world12, 4096, 7}, // non-master root
		{[]int{1, 3, 4, 6, 9, 11}, 256, 9},
		{[]int{5}, 100, 5},
		{world12, 0, 0}, // zero-byte blocks
	}
	for _, c := range cases {
		checkGather(t, 3, 4, c.members, c.blk, c.root)
	}
}

func checkScatter(t *testing.T, nodes, tpn int, members []int, blk, root int) {
	t.Helper()
	send := wantConcat(members, blk)
	recvs := make(map[int][]byte, len(members))
	for _, r := range members {
		recvs[r] = make([]byte, blk)
	}
	groupHarness(t, nodes, tpn, members, func(g *Group, p *sim.Proc, rank int) {
		var sb []byte
		if rank == root {
			sb = send
		}
		block(p, func(t *sim.Task, k sim.K) { g.ScatterT(t, rank, sb, recvs[rank], root, k) })
	})
	for _, r := range members {
		if !bytes.Equal(recvs[r], blockOf(r, blk)) {
			t.Fatalf("scatter members=%v blk=%d root=%d: rank %d got wrong block",
				members, blk, root, r)
		}
	}
}

func TestScatterShapes(t *testing.T) {
	world12 := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	cases := []struct {
		members   []int
		blk, root int
	}{
		{world12, 64, 0},
		{world12, 4096, 7},
		{[]int{1, 3, 4, 6, 9, 11}, 256, 4},
		{[]int{5}, 100, 5},
		{world12, 0, 5}, // empty slabs are never sent, so nobody may wait for one
		{[]int{1, 3, 4, 6, 9, 11}, 0, 9},
	}
	for _, c := range cases {
		checkScatter(t, 3, 4, c.members, c.blk, c.root)
	}
}

func checkAllgather(t *testing.T, nodes, tpn int, members []int, blk int) {
	t.Helper()
	want := wantConcat(members, blk)
	recvs := make(map[int][]byte, len(members))
	for _, r := range members {
		recvs[r] = make([]byte, blk*len(members))
	}
	groupHarness(t, nodes, tpn, members, func(g *Group, p *sim.Proc, rank int) {
		block(p, func(t *sim.Task, k sim.K) { g.AllgatherT(t, rank, blockOf(rank, blk), recvs[rank], k) })
	})
	for _, r := range members {
		if !bytes.Equal(recvs[r], want) {
			t.Fatalf("allgather members=%v blk=%d: rank %d wrong", members, blk, r)
		}
	}
}

func TestAllgatherShapes(t *testing.T) {
	world12 := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	for _, c := range []struct {
		members []int
		blk     int
	}{
		{world12, 64},
		{world12, 8192},
		{[]int{1, 3, 4, 6, 9, 11}, 512},
		{[]int{2, 6, 10}, 1024}, // one member per node
		{[]int{5}, 64},
	} {
		checkAllgather(t, 3, 4, c.members, c.blk)
	}
}

func TestGatherPlacesByGroupOrderNotRankOrder(t *testing.T) {
	// Group order defines the output layout.
	members := []int{6, 1, 9}
	blk := 16
	recv := make([]byte, blk*3)
	groupHarness(t, 3, 4, members, func(g *Group, p *sim.Proc, rank int) {
		var rb []byte
		if rank == 6 {
			rb = recv
		}
		block(p, func(t *sim.Task, k sim.K) { g.GatherT(t, rank, blockOf(rank, blk), rb, 6, k) })
	})
	if !bytes.Equal(recv[:blk], blockOf(6, blk)) ||
		!bytes.Equal(recv[blk:2*blk], blockOf(1, blk)) ||
		!bytes.Equal(recv[2*blk:], blockOf(9, blk)) {
		t.Fatal("gather output not in group order")
	}
}

func TestGatherNetworkEfficiency(t *testing.T) {
	// World gather: exactly one put per non-root node (slab coalescing),
	// each member contributing one shm staging copy.
	nodes, tpn, blk := 4, 4, 1024
	members := make([]int, nodes*tpn)
	for i := range members {
		members[i] = i
	}
	recv := make([]byte, blk*len(members))
	m := groupHarness(t, nodes, tpn, members, func(g *Group, p *sim.Proc, rank int) {
		var rb []byte
		if rank == 0 {
			rb = recv
		}
		block(p, func(t *sim.Task, k sim.K) { g.GatherT(t, rank, blockOf(rank, blk), rb, 0, k) })
	})
	if m.Stats.Puts != nodes-1 {
		t.Errorf("puts = %d, want %d (one slab per non-root node)", m.Stats.Puts, nodes-1)
	}
	if m.Stats.PutBytes != int64((nodes-1)*tpn*blk) {
		t.Errorf("put bytes = %d", m.Stats.PutBytes)
	}
}

func TestScatterUsesOnePutPerNode(t *testing.T) {
	nodes, tpn, blk := 4, 4, 512
	members := make([]int, nodes*tpn)
	for i := range members {
		members[i] = i
	}
	send := wantConcat(members, blk)
	m := groupHarness(t, nodes, tpn, members, func(g *Group, p *sim.Proc, rank int) {
		var sb []byte
		if rank == 0 {
			sb = send
		}
		block(p, func(t *sim.Task, k sim.K) { g.ScatterT(t, rank, sb, make([]byte, blk), 0, k) })
	})
	if m.Stats.Puts != nodes-1 {
		t.Errorf("puts = %d, want %d", m.Stats.Puts, nodes-1)
	}
}

// Property: gather then scatter (same root) round-trips every block, for
// random sparse groups.
func TestPropGatherScatterRoundTrip(t *testing.T) {
	f := func(mask uint16, blkRaw uint8, rootSel uint8) bool {
		nodes, tpn := 3, 4
		var members []int
		for r := 0; r < nodes*tpn; r++ {
			if mask&(1<<uint(r%16)) != 0 || r == 5 {
				members = append(members, r)
			}
		}
		blk := int(blkRaw)%256 + 8
		root := members[int(rootSel)%len(members)]
		gathered := make([]byte, blk*len(members))
		got := make(map[int][]byte, len(members))
		for _, r := range members {
			got[r] = make([]byte, blk)
		}
		groupHarness(t, nodes, tpn, members, func(g *Group, p *sim.Proc, rank int) {
			var rb []byte
			if rank == root {
				rb = gathered
			}
			block(p, func(t *sim.Task, k sim.K) { g.GatherT(t, rank, blockOf(rank, blk), rb, root, k) })
			var sb []byte
			if rank == root {
				sb = gathered
			}
			block(p, func(t *sim.Task, k sim.K) { g.ScatterT(t, rank, sb, got[rank], root, k) })
		})
		for _, r := range members {
			if !bytes.Equal(got[r], blockOf(r, blk)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: allgather equals what gather-to-everyone would produce.
func TestPropAllgatherMatchesGather(t *testing.T) {
	f := func(mask uint16, blkRaw uint8) bool {
		nodes, tpn := 2, 4
		var members []int
		for r := 0; r < nodes*tpn; r++ {
			if mask&(1<<uint(r)) != 0 || r == 0 {
				members = append(members, r)
			}
		}
		blk := int(blkRaw)%128 + 1
		want := wantConcat(members, blk)
		recvs := make(map[int][]byte, len(members))
		for _, r := range members {
			recvs[r] = make([]byte, len(want))
		}
		groupHarness(t, nodes, tpn, members, func(g *Group, p *sim.Proc, rank int) {
			block(p, func(t *sim.Task, k sim.K) { g.AllgatherT(t, rank, blockOf(rank, blk), recvs[rank], k) })
		})
		for _, r := range members {
			if !bytes.Equal(recvs[r], want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGatherMismatchPanics(t *testing.T) {
	// Root recv too small must panic.
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(1, 2))
	s := New(m, rma.NewDomain(m), Options{})
	g := s.Group([]int{0, 1})
	env.Spawn("rank0", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("short gather recv did not panic")
			}
		}()
		block(p, func(t *sim.Task, k sim.K) { g.GatherT(t, 0, make([]byte, 8), make([]byte, 8), 0, k) })
	})
	_ = env.Run()
}

// alltoallBlock is the block member src sends to member dst.
func alltoallBlock(src, dst, blk int) []byte {
	b := make([]byte, blk)
	for i := range b {
		b[i] = byte(src*31 + dst*7 + i + 1)
	}
	return b
}

func checkAlltoall(t *testing.T, nodes, tpn int, members []int, blk int) {
	t.Helper()
	P := len(members)
	sends := make(map[int][]byte, P)
	recvs := make(map[int][]byte, P)
	for gi, r := range members {
		sends[r] = make([]byte, P*blk)
		recvs[r] = make([]byte, P*blk)
		for gj := range members {
			copy(sends[r][gj*blk:(gj+1)*blk], alltoallBlock(gi, gj, blk))
		}
	}
	groupHarness(t, nodes, tpn, members, func(g *Group, p *sim.Proc, rank int) {
		block(p, func(t *sim.Task, k sim.K) { g.AlltoallT(t, rank, sends[rank], recvs[rank], k) })
	})
	for gj, r := range members {
		for gi := range members {
			got := recvs[r][gi*blk : (gi+1)*blk]
			if !bytes.Equal(got, alltoallBlock(gi, gj, blk)) {
				t.Fatalf("alltoall members=%v blk=%d: member %d block from %d wrong",
					members, blk, gj, gi)
			}
		}
	}
}

func TestAlltoallShapes(t *testing.T) {
	world12 := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	for _, c := range []struct {
		members []int
		blk     int
	}{
		{world12, 32},
		{world12, 4096},
		{[]int{1, 3, 4, 6, 9, 11}, 256},
		{[]int{2, 6, 10}, 128},
		{[]int{5}, 64},
		{world12, 0},
	} {
		checkAlltoall(t, 3, 4, c.members, c.blk)
	}
}

func TestAlltoallSlabCount(t *testing.T) {
	// n nodes exchange exactly n*(n-1) slabs, not P*(P-1) messages.
	nodes, tpn, blk := 4, 4, 256
	members := make([]int, nodes*tpn)
	for i := range members {
		members[i] = i
	}
	sends := make(map[int][]byte, len(members))
	recvs := make(map[int][]byte, len(members))
	for _, r := range members {
		sends[r] = make([]byte, len(members)*blk)
		recvs[r] = make([]byte, len(members)*blk)
	}
	m := groupHarness(t, nodes, tpn, members, func(g *Group, p *sim.Proc, rank int) {
		block(p, func(t *sim.Task, k sim.K) { g.AlltoallT(t, rank, sends[rank], recvs[rank], k) })
	})
	if m.Stats.Puts != nodes*(nodes-1) {
		t.Errorf("puts = %d, want %d", m.Stats.Puts, nodes*(nodes-1))
	}
}

// Property: random groups and block sizes round-trip all blocks.
func TestPropAlltoall(t *testing.T) {
	f := func(mask uint16, blkRaw uint8) bool {
		nodes, tpn := 3, 3
		var members []int
		for r := 0; r < nodes*tpn; r++ {
			if mask&(1<<uint(r)) != 0 || r == 4 {
				members = append(members, r)
			}
		}
		blk := int(blkRaw)%96 + 1
		P := len(members)
		sends := make(map[int][]byte, P)
		recvs := make(map[int][]byte, P)
		for gi, r := range members {
			sends[r] = make([]byte, P*blk)
			recvs[r] = make([]byte, P*blk)
			for gj := range members {
				copy(sends[r][gj*blk:(gj+1)*blk], alltoallBlock(gi, gj, blk))
			}
		}
		groupHarness(t, nodes, tpn, members, func(g *Group, p *sim.Proc, rank int) {
			block(p, func(t *sim.Task, k sim.K) { g.AlltoallT(t, rank, sends[rank], recvs[rank], k) })
		})
		for gj, r := range members {
			for gi := range members {
				if !bytes.Equal(recvs[r][gi*blk:(gi+1)*blk], alltoallBlock(gi, gj, blk)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallDirectPathZeroStaging(t *testing.T) {
	// Above the threshold, blocks go straight to user buffers: P*(P-1)
	// network blocks minus intra-node pairs, and no slab staging copies.
	nodes, tpn, blk := 2, 2, 8192
	members := []int{0, 1, 2, 3}
	sends := make(map[int][]byte, 4)
	recvs := make(map[int][]byte, 4)
	for gi, r := range members {
		sends[r] = make([]byte, 4*blk)
		recvs[r] = make([]byte, 4*blk)
		for gj := range members {
			copy(sends[r][gj*blk:(gj+1)*blk], alltoallBlock(gi, gj, blk))
		}
	}
	m := groupHarness(t, nodes, tpn, members, func(g *Group, p *sim.Proc, rank int) {
		block(p, func(t *sim.Task, k sim.K) { g.AlltoallT(t, rank, sends[rank], recvs[rank], k) })
	})
	for gj, r := range members {
		for gi := range members {
			if !bytes.Equal(recvs[r][gi*blk:(gi+1)*blk], alltoallBlock(gi, gj, blk)) {
				t.Fatalf("member %d block from %d wrong", gj, gi)
			}
		}
	}
	// 4 ranks, 2 per node: each rank puts 2 cross-node blocks = 8 puts.
	if m.Stats.Puts != 8 {
		t.Errorf("puts = %d, want 8", m.Stats.Puts)
	}
}

func checkReduceScatter(t *testing.T, nodes, tpn int, members []int, elemsPerBlock int) {
	t.Helper()
	P := len(members)
	blk := elemsPerBlock * 8
	sends := make(map[int][]byte, P)
	recvs := make(map[int][]byte, P)
	vecs := make(map[int][]float64, P)
	for gi, r := range members {
		v := make([]float64, elemsPerBlock*P)
		for i := range v {
			v[i] = float64((gi+1)*(i%13) - gi)
		}
		vecs[r] = v
		sends[r] = dtype.Float64Bytes(v)
		recvs[r] = make([]byte, blk)
	}
	groupHarness(t, nodes, tpn, members, func(g *Group, p *sim.Proc, rank int) {
		block(p, func(t *sim.Task, k sim.K) {
			g.ReduceScatterT(t, rank, sends[rank], recvs[rank], dtype.Float64, dtype.Sum, k)
		})
	})
	for gi, r := range members {
		got := dtype.Float64s(recvs[r])
		for e := 0; e < elemsPerBlock; e++ {
			var want float64
			for _, src := range members {
				want += vecs[src][gi*elemsPerBlock+e]
			}
			if got[e] != want {
				t.Fatalf("members=%v: block %d elem %d = %v, want %v", members, gi, e, got[e], want)
			}
		}
	}
}

func TestReduceScatterShapes(t *testing.T) {
	world12 := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	checkReduceScatter(t, 3, 4, world12, 4)
	checkReduceScatter(t, 3, 4, world12, 600) // chunked local reduce
	checkReduceScatter(t, 3, 4, []int{1, 3, 4, 6, 9, 11}, 16)
	checkReduceScatter(t, 3, 4, []int{6, 1, 9}, 8) // interleaved group order
	checkReduceScatter(t, 3, 4, []int{5}, 10)
}

func TestReduceScatterPanics(t *testing.T) {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(1, 2))
	s := New(m, rma.NewDomain(m), Options{})
	g := s.Group([]int{0, 1})
	env.Spawn("rank0", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("bad ReduceScatter sizes did not panic")
			}
		}()
		block(p, func(t *sim.Task, k sim.K) {
			g.ReduceScatterT(t, 0, make([]byte, 8), make([]byte, 8), dtype.Float64, dtype.Sum, k)
		})
	})
	_ = env.Run()
}

func checkScan(t *testing.T, nodes, tpn int, members []int, elems int, exclusive bool) {
	t.Helper()
	P := len(members)
	sends := make(map[int][]byte, P)
	recvs := make(map[int][]byte, P)
	vecs := make(map[int][]float64, P)
	for gi, r := range members {
		v := make([]float64, elems)
		for i := range v {
			v[i] = float64((gi+2)*(i%7) - gi)
		}
		vecs[r] = v
		sends[r] = dtype.Float64Bytes(v)
		recvs[r] = make([]byte, elems*8)
	}
	groupHarness(t, nodes, tpn, members, func(g *Group, p *sim.Proc, rank int) {
		if exclusive {
			block(p, func(t *sim.Task, k sim.K) { g.ExscanT(t, rank, sends[rank], recvs[rank], dtype.Float64, dtype.Sum, k) })
		} else {
			block(p, func(t *sim.Task, k sim.K) { g.ScanT(t, rank, sends[rank], recvs[rank], dtype.Float64, dtype.Sum, k) })
		}
	})
	for gi, r := range members {
		got := dtype.Float64s(recvs[r])
		limit := gi
		if !exclusive {
			limit = gi + 1
		}
		for e := 0; e < elems; e++ {
			var want float64
			for j := 0; j < limit; j++ {
				want += vecs[members[j]][e]
			}
			if got[e] != want {
				t.Fatalf("exclusive=%v member %d elem %d = %v, want %v",
					exclusive, gi, e, got[e], want)
			}
		}
	}
}

func TestScanShapes(t *testing.T) {
	world12 := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	for _, excl := range []bool{false, true} {
		checkScan(t, 3, 4, world12, 16, excl)
		checkScan(t, 3, 4, []int{1, 3, 4, 6, 9, 11}, 100, excl)
		checkScan(t, 3, 4, []int{6, 1, 9}, 4, excl) // interleaved group order
		checkScan(t, 3, 4, []int{5}, 8, excl)
	}
}

// Property: scan over random shapes matches the sequential prefix.
func TestPropScan(t *testing.T) {
	f := func(mask uint16, elemsRaw uint8, excl bool) bool {
		nodes, tpn := 2, 4
		var members []int
		for r := 0; r < nodes*tpn; r++ {
			if mask&(1<<uint(r)) != 0 || r == 3 {
				members = append(members, r)
			}
		}
		elems := int(elemsRaw)%50 + 1
		P := len(members)
		sends := make(map[int][]byte, P)
		recvs := make(map[int][]byte, P)
		for gi, r := range members {
			v := make([]float64, elems)
			for i := range v {
				v[i] = float64((gi*i)%9 - 4)
			}
			sends[r] = dtype.Float64Bytes(v)
			recvs[r] = make([]byte, elems*8)
		}
		groupHarness(t, nodes, tpn, members, func(g *Group, p *sim.Proc, rank int) {
			if excl {
				block(p, func(t *sim.Task, k sim.K) { g.ExscanT(t, rank, sends[rank], recvs[rank], dtype.Float64, dtype.Sum, k) })
			} else {
				block(p, func(t *sim.Task, k sim.K) { g.ScanT(t, rank, sends[rank], recvs[rank], dtype.Float64, dtype.Sum, k) })
			}
		})
		for gi, r := range members {
			got := dtype.Float64s(recvs[r])
			limit := gi
			if !excl {
				limit++
			}
			for e := 0; e < elems; e++ {
				var want float64
				for j := 0; j < limit; j++ {
					want += dtype.Float64s(sends[members[j]])[e]
				}
				if got[e] != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherDirectLargeBlocks(t *testing.T) {
	// Above the threshold the ring runs zero-copy into user buffers.
	for _, members := range [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
		{1, 3, 4, 6, 9, 11},
		{5},
	} {
		checkAllgather(t, 3, 4, members, 32<<10)
	}
}
