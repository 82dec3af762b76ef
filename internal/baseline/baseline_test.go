package baseline

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"srmcoll/internal/dtype"
	"srmcoll/internal/machine"
	"srmcoll/internal/sim"
)

// blocking is a group with the blocking forms the tests call (Bcast is the
// group's own): the continuation form started on the process's task, and the
// process parked until it resumes.
type blocking struct{ *Group }

func (b blocking) Barrier(p *sim.Proc, rank int) {
	b.BarrierT(&p.Task, rank, p.Resume())
	p.Park()
}

func (b blocking) Reduce(p *sim.Proc, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, root int) {
	b.ReduceT(&p.Task, rank, send, recv, dt, op, root, p.Resume())
	p.Park()
}

func (b blocking) Allreduce(p *sim.Proc, rank int, send, recv []byte, dt dtype.Type, op dtype.Op) {
	b.AllreduceT(&p.Task, rank, send, recv, dt, op, p.Resume())
	p.Park()
}

func (b blocking) Gather(p *sim.Proc, rank int, send, recv []byte, root int) {
	b.GatherT(&p.Task, rank, send, recv, root, p.Resume())
	p.Park()
}

func (b blocking) Scatter(p *sim.Proc, rank int, send, recv []byte, root int) {
	b.ScatterT(&p.Task, rank, send, recv, root, p.Resume())
	p.Park()
}

func (b blocking) Allgather(p *sim.Proc, rank int, send, recv []byte) {
	b.AllgatherT(&p.Task, rank, send, recv, p.Resume())
	p.Park()
}

func (b blocking) Alltoall(p *sim.Proc, rank int, send, recv []byte) {
	b.AlltoallT(&p.Task, rank, send, recv, p.Resume())
	p.Park()
}

func (b blocking) ReduceScatter(p *sim.Proc, rank int, send, recv []byte, dt dtype.Type, op dtype.Op) {
	b.ReduceScatterT(&p.Task, rank, send, recv, dt, op, p.Resume())
	p.Park()
}

func (b blocking) Scan(p *sim.Proc, rank int, send, recv []byte, dt dtype.Type, op dtype.Op) {
	b.ScanT(&p.Task, rank, send, recv, dt, op, p.Resume())
	p.Park()
}

func (b blocking) Exscan(p *sim.Proc, rank int, send, recv []byte, dt dtype.Type, op dtype.Op) {
	b.ExscanT(&p.Task, rank, send, recv, dt, op, p.Resume())
	p.Park()
}

func (b blocking) Sub(members []int) blocking { return blocking{b.Group.Sub(members)} }

// harness runs body on every rank of a nodes x tpn machine, with the flavor's
// group of all ranks, and returns the machine and each rank's exit time.
func harness(t testing.TB, nodes, tpn int, f Flavor,
	body func(c blocking, p *sim.Proc, rank int)) (*machine.Machine, []sim.Time) {
	t.Helper()
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(nodes, tpn))
	c := blocking{New(m, f)}
	done := make([]sim.Time, m.P())
	for r := 0; r < m.P(); r++ {
		r := r
		env.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			body(c, p, r)
			done[r] = p.Now()
		})
	}
	if err := env.Run(); err != nil {
		t.Fatalf("simulation: %v", err)
	}
	return m, done
}

func pattern(n, seed int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13 + seed*7 + 3)
	}
	return b
}

func flavors() []Flavor { return []Flavor{IBM, MPICH} }

func TestFlavorString(t *testing.T) {
	if IBM.String() != "ibm-mpi" || MPICH.String() != "mpich" {
		t.Fatal("flavor names wrong")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, f := range flavors() {
		nodes, tpn := 2, 4
		P := nodes * tpn
		enter := make([]sim.Time, P)
		_, exit := harness(t, nodes, tpn, f, func(c blocking, p *sim.Proc, rank int) {
			p.Sleep(sim.Time(rank) * 5)
			enter[rank] = p.Now()
			c.Barrier(p, rank)
		})
		var last sim.Time
		for _, e := range enter {
			if e > last {
				last = e
			}
		}
		for r, x := range exit {
			if x < last {
				t.Errorf("%v: rank %d left at %v before last arrival %v", f, r, x, last)
			}
		}
	}
}

func TestBarrierSingleRank(t *testing.T) {
	for _, f := range flavors() {
		harness(t, 1, 1, f, func(c blocking, p *sim.Proc, rank int) { c.Barrier(p, rank) })
	}
}

func checkBcast(t *testing.T, f Flavor, nodes, tpn, size, root int) {
	t.Helper()
	want := pattern(size, root)
	P := nodes * tpn
	bufs := make([][]byte, P)
	for r := range bufs {
		bufs[r] = make([]byte, size)
	}
	copy(bufs[root], want)
	harness(t, nodes, tpn, f, func(c blocking, p *sim.Proc, rank int) {
		c.Bcast(p, rank, bufs[rank], root)
	})
	for r := range bufs {
		if !bytes.Equal(bufs[r], want) {
			t.Fatalf("%v nodes=%d tpn=%d size=%d root=%d: rank %d corrupted",
				f, nodes, tpn, size, root, r)
		}
	}
}

func TestBcast(t *testing.T) {
	for _, f := range flavors() {
		for _, size := range []int{1, 100, 4096, 20 << 10, 200 << 10} {
			checkBcast(t, f, 2, 4, size, 0)
		}
		checkBcast(t, f, 3, 3, 5000, 4)
		checkBcast(t, f, 1, 8, 64<<10, 5)
	}
}

func sumRef(vecs [][]float64) []float64 {
	out := make([]float64, len(vecs[0]))
	for _, v := range vecs {
		for i, x := range v {
			out[i] += x
		}
	}
	return out
}

func checkReduce(t *testing.T, f Flavor, nodes, tpn, elems, root int) {
	t.Helper()
	P := nodes * tpn
	vecs := make([][]float64, P)
	sends := make([][]byte, P)
	for r := range vecs {
		vecs[r] = make([]float64, elems)
		for i := range vecs[r] {
			vecs[r][i] = float64((r+1)*(i%31) - 2*r)
		}
		sends[r] = dtype.Float64Bytes(vecs[r])
	}
	recv := make([]byte, elems*8)
	harness(t, nodes, tpn, f, func(c blocking, p *sim.Proc, rank int) {
		var rb []byte
		if rank == root {
			rb = recv
		}
		c.Reduce(p, rank, sends[rank], rb, dtype.Float64, dtype.Sum, root)
	})
	got := dtype.Float64s(recv)
	want := sumRef(vecs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%v nodes=%d tpn=%d elems=%d root=%d: element %d = %v, want %v",
				f, nodes, tpn, elems, root, i, got[i], want[i])
		}
	}
}

func TestReduce(t *testing.T) {
	for _, f := range flavors() {
		for _, elems := range []int{1, 100, 3000, 20000} {
			checkReduce(t, f, 2, 4, elems, 0)
		}
		checkReduce(t, f, 3, 5, 777, 9)
		checkReduce(t, f, 1, 1, 10, 0)
	}
}

func checkAllreduce(t *testing.T, f Flavor, nodes, tpn, elems int) {
	t.Helper()
	P := nodes * tpn
	vecs := make([][]float64, P)
	sends := make([][]byte, P)
	recvs := make([][]byte, P)
	for r := range vecs {
		vecs[r] = make([]float64, elems)
		for i := range vecs[r] {
			vecs[r][i] = float64((r*i)%17 - 8)
		}
		sends[r] = dtype.Float64Bytes(vecs[r])
		recvs[r] = make([]byte, elems*8)
	}
	harness(t, nodes, tpn, f, func(c blocking, p *sim.Proc, rank int) {
		c.Allreduce(p, rank, sends[rank], recvs[rank], dtype.Float64, dtype.Sum)
	})
	want := sumRef(vecs)
	for r := range recvs {
		got := dtype.Float64s(recvs[r])
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v nodes=%d tpn=%d elems=%d: rank %d element %d = %v, want %v",
					f, nodes, tpn, elems, r, i, got[i], want[i])
			}
		}
	}
}

func TestAllreduce(t *testing.T) {
	for _, f := range flavors() {
		for _, elems := range []int{1, 100, 2000, 10000} { // spans the RD limit
			checkAllreduce(t, f, 2, 4, elems)
		}
		checkAllreduce(t, f, 3, 2, 500) // non-power-of-two ranks
		checkAllreduce(t, f, 3, 3, 6000)
		checkAllreduce(t, f, 1, 1, 20)
	}
}

func TestReduceFig2MessageCounts(t *testing.T) {
	// Figure 2's right side: the message-passing reduce on 8 tasks of one
	// SMP node moves data at every tree level — 7 messages, which through
	// the shared-memory device cost 14 copies (copy-in plus copy-out).
	elems := 1024
	sends := make([][]byte, 8)
	for r := range sends {
		sends[r] = dtype.Float64Bytes(make([]float64, elems))
	}
	recv := make([]byte, elems*8)
	m, _ := harness(t, 1, 8, MPICH, func(c blocking, p *sim.Proc, rank int) {
		var rb []byte
		if rank == 0 {
			rb = recv
		}
		c.Reduce(p, rank, sends[rank], rb, dtype.Float64, dtype.Sum, 0)
	})
	if m.Stats.MPISends != 7 {
		t.Errorf("messages = %d, want 7 (Figure 2)", m.Stats.MPISends)
	}
	if m.Stats.ShmCopies != 14 {
		t.Errorf("shm copies = %d, want 14 (Figure 2: 7 messages x 2 copies)", m.Stats.ShmCopies)
	}
}

func TestBcastUsesShmDeviceInsideNode(t *testing.T) {
	m, _ := harness(t, 1, 4, IBM, func(c blocking, p *sim.Proc, rank int) {
		c.Bcast(p, rank, make([]byte, 256), 0)
	})
	if m.Stats.MPIShmSends != 3 || m.Stats.Puts != 0 {
		t.Errorf("stats = %+v, want 3 shm sends and no RMA traffic", m.Stats)
	}
}

func TestBcastCrossNodeCountsNetworkSends(t *testing.T) {
	m, _ := harness(t, 4, 1, IBM, func(c blocking, p *sim.Proc, rank int) {
		c.Bcast(p, rank, make([]byte, 256), 0)
	})
	if m.Stats.MPISends != 3 || m.Stats.MPIShmSends != 0 {
		t.Errorf("stats = %+v, want 3 network sends", m.Stats)
	}
}

func TestWorldAccessors(t *testing.T) {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(1, 2))
	c := New(m, MPICH)
	if c.w.Size() != 2 || len(c.members) != 2 || c.flavor != MPICH {
		t.Fatal("world group wrong")
	}
}

// Property: both flavors produce identical reduce results (they differ only
// in performance) matching the reference, for random shapes.
func TestPropFlavorsAgree(t *testing.T) {
	f := func(nRaw, tRaw uint8, eRaw uint16, rootRaw uint8) bool {
		nodes := int(nRaw)%3 + 1
		tpn := int(tRaw)%3 + 1
		elems := int(eRaw)%2000 + 1
		P := nodes * tpn
		root := int(rootRaw) % P
		vecs := make([][]float64, P)
		for r := range vecs {
			vecs[r] = make([]float64, elems)
			for i := range vecs[r] {
				vecs[r][i] = float64((r+i)%9 - 4)
			}
		}
		want := sumRef(vecs)
		for _, fl := range flavors() {
			sends := make([][]byte, P)
			for r := range sends {
				sends[r] = dtype.Float64Bytes(vecs[r])
			}
			recv := make([]byte, elems*8)
			harness(t, nodes, tpn, fl, func(c blocking, p *sim.Proc, rank int) {
				var rb []byte
				if rank == root {
					rb = recv
				}
				c.Reduce(p, rank, sends[rank], rb, dtype.Float64, dtype.Sum, root)
			})
			got := dtype.Float64s(recv)
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
