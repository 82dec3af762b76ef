package baseline

import (
	"bytes"
	"testing"
	"testing/quick"

	"srmcoll/internal/dtype"
	"srmcoll/internal/machine"
	"srmcoll/internal/sim"
)

func blockOf(r, blk int) []byte {
	b := make([]byte, blk)
	for i := range b {
		b[i] = byte(r*41 + i + 3)
	}
	return b
}

func wantConcat(members []int, blk int) []byte {
	out := make([]byte, 0, len(members)*blk)
	for _, r := range members {
		out = append(out, blockOf(r, blk)...)
	}
	return out
}

func worldMembers(p int) []int {
	m := make([]int, p)
	for i := range m {
		m[i] = i
	}
	return m
}

func checkGatherB(t *testing.T, f Flavor, nodes, tpn, blk, root int) {
	t.Helper()
	P := nodes * tpn
	recv := make([]byte, blk*P)
	harness(t, nodes, tpn, f, func(c blocking, p *sim.Proc, rank int) {
		var rb []byte
		if rank == root {
			rb = recv
		}
		c.Gather(p, rank, blockOf(rank, blk), rb, root)
	})
	if !bytes.Equal(recv, wantConcat(worldMembers(P), blk)) {
		t.Fatalf("%v gather nodes=%d tpn=%d blk=%d root=%d wrong", f, nodes, tpn, blk, root)
	}
}

func TestGatherBaselines(t *testing.T) {
	for _, f := range flavors() {
		checkGatherB(t, f, 2, 4, 64, 0)
		checkGatherB(t, f, 2, 4, 4096, 5) // non-zero root exercises rotation
		checkGatherB(t, f, 3, 3, 100, 8)  // non-power-of-two ranks
		checkGatherB(t, f, 1, 1, 16, 0)
	}
}

func checkScatterB(t *testing.T, f Flavor, nodes, tpn, blk, root int) {
	t.Helper()
	P := nodes * tpn
	send := wantConcat(worldMembers(P), blk)
	recvs := make([][]byte, P)
	for r := range recvs {
		recvs[r] = make([]byte, blk)
	}
	harness(t, nodes, tpn, f, func(c blocking, p *sim.Proc, rank int) {
		var sb []byte
		if rank == root {
			sb = send
		}
		c.Scatter(p, rank, sb, recvs[rank], root)
	})
	for r := 0; r < P; r++ {
		if !bytes.Equal(recvs[r], blockOf(r, blk)) {
			t.Fatalf("%v scatter root=%d: rank %d wrong block", f, root, r)
		}
	}
}

func TestScatterBaselines(t *testing.T) {
	for _, f := range flavors() {
		checkScatterB(t, f, 2, 4, 64, 0)
		checkScatterB(t, f, 2, 4, 2048, 3)
		checkScatterB(t, f, 3, 3, 96, 7)
		checkScatterB(t, f, 1, 1, 16, 0)
	}
}

func TestAllgatherBaselines(t *testing.T) {
	for _, f := range flavors() {
		for _, blk := range []int{16, 2048} {
			nodes, tpn := 2, 4
			P := nodes * tpn
			want := wantConcat(worldMembers(P), blk)
			recvs := make([][]byte, P)
			for r := range recvs {
				recvs[r] = make([]byte, len(want))
			}
			harness(t, nodes, tpn, f, func(c blocking, p *sim.Proc, rank int) {
				c.Allgather(p, rank, blockOf(rank, blk), recvs[rank])
			})
			for r := 0; r < P; r++ {
				if !bytes.Equal(recvs[r], want) {
					t.Fatalf("%v allgather blk=%d: rank %d wrong", f, blk, r)
				}
			}
		}
	}
}

func TestGatherGroupSubset(t *testing.T) {
	members := []int{1, 3, 4, 6}
	blk := 32
	recv := make([]byte, blk*len(members))
	envDone := false
	harness(t, 2, 4, MPICH, func(c blocking, p *sim.Proc, rank int) {
		in := false
		for _, r := range members {
			if r == rank {
				in = true
			}
		}
		if !in {
			return
		}
		g := c.Sub(members)
		var rb []byte
		if rank == 3 {
			rb = recv
		}
		g.Gather(p, rank, blockOf(rank, blk), rb, 3)
		envDone = true
	})
	if !envDone || !bytes.Equal(recv, wantConcat(members, blk)) {
		t.Fatal("group gather wrong")
	}
}

// Property: baseline gather/scatter round-trip over random shapes and roots.
func TestPropBaselineGatherScatter(t *testing.T) {
	f := func(nRaw, tRaw, blkRaw, rootRaw uint8, fl bool) bool {
		nodes := int(nRaw)%3 + 1
		tpn := int(tRaw)%3 + 1
		P := nodes * tpn
		blk := int(blkRaw)%128 + 1
		root := int(rootRaw) % P
		flavor := IBM
		if fl {
			flavor = MPICH
		}
		gathered := make([]byte, blk*P)
		got := make([][]byte, P)
		for r := range got {
			got[r] = make([]byte, blk)
		}
		harness(t, nodes, tpn, flavor, func(c blocking, p *sim.Proc, rank int) {
			var rb []byte
			if rank == root {
				rb = gathered
			}
			c.Gather(p, rank, blockOf(rank, blk), rb, root)
			var sb []byte
			if rank == root {
				sb = gathered
			}
			c.Scatter(p, rank, sb, got[rank], root)
		})
		for r := 0; r < P; r++ {
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

func TestAlltoallBaselines(t *testing.T) {
	for _, f := range flavors() {
		nodes, tpn, blk := 2, 3, 64
		P := nodes * tpn
		sends := make([][]byte, P)
		recvs := make([][]byte, P)
		for i := 0; i < P; i++ {
			sends[i] = make([]byte, P*blk)
			recvs[i] = make([]byte, P*blk)
			for j := 0; j < P; j++ {
				copy(sends[i][j*blk:(j+1)*blk], blockOf(i*P+j, blk))
			}
		}
		harness(t, nodes, tpn, f, func(c blocking, p *sim.Proc, rank int) {
			c.Alltoall(p, rank, sends[rank], recvs[rank])
		})
		for j := 0; j < P; j++ {
			for i := 0; i < P; i++ {
				if !bytes.Equal(recvs[j][i*blk:(i+1)*blk], blockOf(i*P+j, blk)) {
					t.Fatalf("%v: rank %d block from %d wrong", f, j, i)
				}
			}
		}
	}
}

func TestGroupCoreCollectives(t *testing.T) {
	// Barrier, bcast, reduce and allreduce over a sparse subset, both flavors.
	members := []int{1, 2, 5, 6, 7}
	for _, f := range flavors() {
		payload := blockOf(99, 512)
		bufs := make(map[int][]byte, len(members))
		reduced := make([]byte, 8)
		allred := make(map[int][]byte, len(members))
		harness(t, 2, 4, f, func(c blocking, p *sim.Proc, rank int) {
			in := false
			for _, r := range members {
				if r == rank {
					in = true
				}
			}
			if !in {
				return
			}
			g := c.Sub(members)
			if len(g.members) != 5 {
				t.Errorf("group size = %d", len(g.members))
			}
			buf := make([]byte, len(payload))
			if rank == 5 {
				copy(buf, payload)
			}
			bufs[rank] = buf
			g.Bcast(p, rank, buf, 5)
			var rb []byte
			if rank == 2 {
				rb = reduced
			}
			g.Reduce(p, rank, dtype.Float64Bytes([]float64{float64(rank)}), rb,
				dtype.Float64, dtype.Sum, 2)
			allred[rank] = make([]byte, 8)
			g.Allreduce(p, rank, dtype.Float64Bytes([]float64{1}), allred[rank],
				dtype.Float64, dtype.Sum)
			g.Barrier(p, rank)
		})
		for _, r := range members {
			if !bytes.Equal(bufs[r], payload) {
				t.Fatalf("%v: group bcast corrupted at %d", f, r)
			}
			if got := dtype.Float64s(allred[r]); got[0] != 5 {
				t.Fatalf("%v: group allreduce at %d = %v", f, r, got[0])
			}
		}
		if got := dtype.Float64s(reduced); got[0] != 1+2+5+6+7 {
			t.Fatalf("%v: group reduce = %v", f, got[0])
		}
	}
}

func TestGroupAllreduceRDSubset(t *testing.T) {
	// IBM flavor, small message, non-power-of-two members: exercises the
	// group recursive-doubling path with folds.
	members := []int{0, 2, 3, 4, 7}
	res := make(map[int]float64, len(members))
	harness(t, 2, 4, IBM, func(c blocking, p *sim.Proc, rank int) {
		in := false
		for _, r := range members {
			if r == rank {
				in = true
			}
		}
		if !in {
			return
		}
		g := c.Sub(members)
		out := make([]byte, 8)
		g.Allreduce(p, rank, dtype.Float64Bytes([]float64{float64(rank + 1)}), out,
			dtype.Float64, dtype.Sum)
		res[rank] = dtype.Float64s(out)[0]
	})
	for _, r := range members {
		if res[r] != 1+3+4+5+8 {
			t.Fatalf("rank %d allreduce = %v", r, res[r])
		}
	}
}

func TestGroupValidation(t *testing.T) {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(1, 4))
	c := New(m, IBM)
	for _, bad := range [][]int{{}, {5}, {-1}, {1, 1}} {
		bad := bad
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Sub(%v) did not panic", bad)
				}
			}()
			c.Sub(bad)
		}()
	}
	g := c.Sub([]int{0, 2})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("index of non-member did not panic")
			}
		}()
		g.index(1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Sub with outsider did not panic")
			}
		}()
		g.Sub([]int{0, 3})
	}()
	if sub := g.Sub([]int{2}); len(sub.members) != 1 {
		t.Error("valid Sub failed")
	}
}

func TestScanBaselines(t *testing.T) {
	for _, f := range flavors() {
		incl := make([]float64, 8)
		excl := make([]float64, 8)
		harness(t, 2, 4, f, func(c blocking, p *sim.Proc, rank int) {
			send := dtype.Float64Bytes([]float64{float64(rank + 1)})
			r1 := make([]byte, 8)
			c.Scan(p, rank, send, r1, dtype.Float64, dtype.Sum)
			incl[rank] = dtype.Float64s(r1)[0]
			r2 := make([]byte, 8)
			c.Exscan(p, rank, send, r2, dtype.Float64, dtype.Sum)
			excl[rank] = dtype.Float64s(r2)[0]
		})
		for r := 0; r < 8; r++ {
			want := float64((r + 1) * (r + 2) / 2)
			if incl[r] != want || excl[r] != want-float64(r+1) {
				t.Fatalf("%v: rank %d scan=%v exscan=%v", f, r, incl[r], excl[r])
			}
		}
	}
}

func TestReduceScatterBaselines(t *testing.T) {
	for _, f := range flavors() {
		got := make([]float64, 8)
		harness(t, 2, 4, f, func(c blocking, p *sim.Proc, rank int) {
			send := make([]float64, 8)
			for i := range send {
				send[i] = float64((rank + 1) * (i + 1))
			}
			recv := make([]byte, 8)
			c.ReduceScatter(p, rank, dtype.Float64Bytes(send), recv, dtype.Float64, dtype.Sum)
			got[rank] = dtype.Float64s(recv)[0]
		})
		for r := 0; r < 8; r++ {
			if got[r] != float64(36*(r+1)) {
				t.Fatalf("%v: rank %d = %v, want %v", f, r, got[r], 36*(r+1))
			}
		}
	}
}
