package mpi

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"srmcoll/internal/machine"
	"srmcoll/internal/sim"
)

// world builds nodes x tpn ranks with the given protocol.
func world(nodes, tpn int, proto Protocol) (*sim.Env, *machine.Machine, *World) {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(nodes, tpn))
	return env, m, NewWorld(m, proto)
}

func TestEagerLimitIBMScalesDown(t *testing.T) {
	pr := IBM()
	cases := map[int]int{1: 4096, 16: 4096, 17: 2048, 32: 2048, 64: 1024, 128: 512, 256: 256, 1024: 256}
	for ntasks, want := range cases {
		if got := pr.EagerLimit(ntasks); got != want {
			t.Errorf("IBM EagerLimit(%d) = %d, want %d", ntasks, got, want)
		}
	}
}

func TestEagerLimitMPICHFixed(t *testing.T) {
	pr := MPICH()
	for _, ntasks := range []int{1, 16, 256} {
		if got := pr.EagerLimit(ntasks); got != 16<<10 {
			t.Errorf("MPICH EagerLimit(%d) = %d, want %d", ntasks, got, 16<<10)
		}
	}
}

func TestShmEagerTransfer(t *testing.T) {
	env, m, w := world(1, 2, IBM())
	src := []byte("intra-node eager message")
	dst := make([]byte, len(src))
	var st Status
	env.Spawn("r1", func(p *sim.Proc) { st = w.Rank(1).Recv(p, 0, 7, dst) })
	env.Spawn("r0", func(p *sim.Proc) { w.Rank(0).Send(p, 1, 7, src) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("dst = %q", dst)
	}
	if st.Source != 0 || st.Tag != 7 || st.Bytes != len(src) {
		t.Fatalf("status = %+v", st)
	}
	// Copy-in plus copy-out through shared memory.
	if m.Stats.ShmCopies != 2 {
		t.Errorf("shm copies = %d, want 2", m.Stats.ShmCopies)
	}
	if m.Stats.MPIShmSends != 1 || m.Stats.EagerSends != 1 {
		t.Errorf("stats = %+v", m.Stats)
	}
}

func TestNetEagerMatchedTransfer(t *testing.T) {
	env, m, w := world(2, 1, IBM())
	src := make([]byte, 1024)
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]byte, len(src))
	env.Spawn("recv", func(p *sim.Proc) { w.Rank(1).Recv(p, 0, 1, dst) })
	env.Spawn("send", func(p *sim.Proc) {
		p.Sleep(50) // receive is posted first: no early-arrival copy
		w.Rank(0).Send(p, 1, 1, src)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("data corrupted")
	}
	if m.Stats.Unexpected != 0 {
		t.Errorf("unexpected = %d, want 0", m.Stats.Unexpected)
	}
	// Staging copy at the origin plus copy-out at the target.
	if m.Stats.TotalCopies != 2 {
		t.Errorf("total copies = %d, want 2", m.Stats.TotalCopies)
	}
}

func TestNetEagerUnexpectedCostsExtraCopy(t *testing.T) {
	env, m, w := world(2, 1, IBM())
	src := make([]byte, 512)
	dst := make([]byte, len(src))
	env.Spawn("send", func(p *sim.Proc) { w.Rank(0).Send(p, 1, 3, src) })
	env.Spawn("recv", func(p *sim.Proc) {
		p.Sleep(500) // message arrives long before the receive
		w.Rank(1).Recv(p, 0, 3, dst)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Unexpected != 1 {
		t.Errorf("unexpected = %d, want 1", m.Stats.Unexpected)
	}
	// Origin staging + early-arrival buffer + copy-out = 3.
	if m.Stats.TotalCopies != 3 {
		t.Errorf("total copies = %d, want 3", m.Stats.TotalCopies)
	}
}

func TestNetRendezvousTransfer(t *testing.T) {
	env, m, w := world(2, 1, IBM())
	n := 256 << 10 // far above any Eager limit
	src := make([]byte, n)
	for i := range src {
		src[i] = byte(i * 7)
	}
	dst := make([]byte, n)
	var recvDone, sendDone sim.Time
	env.Spawn("recv", func(p *sim.Proc) {
		w.Rank(1).Recv(p, 0, 9, dst)
		recvDone = p.Now()
	})
	env.Spawn("send", func(p *sim.Proc) {
		w.Rank(0).Send(p, 1, 9, src)
		sendDone = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("data corrupted")
	}
	if m.Stats.RndvSends != 1 {
		t.Errorf("rndv sends = %d", m.Stats.RndvSends)
	}
	// Zero-copy: no staging copies for rendezvous.
	if m.Stats.TotalCopies != 0 {
		t.Errorf("copies = %d, want 0 (zero-copy rendezvous)", m.Stats.TotalCopies)
	}
	// The handshake costs at least 3 one-way latencies before data lands.
	if recvDone < 3*m.Cfg.NetLatency {
		t.Errorf("recv done at %v, faster than RTS+CTS+data latency", recvDone)
	}
	if sendDone > recvDone {
		t.Errorf("sender (%v) finished after receiver (%v)", sendDone, recvDone)
	}
}

func TestShmRendezvousPipelined(t *testing.T) {
	env, m, w := world(1, 2, IBM())
	n := 512 << 10 // above ShmPktSize
	src := make([]byte, n)
	for i := range src {
		src[i] = byte(i * 3)
	}
	dst := make([]byte, n)
	var done sim.Time
	env.Spawn("recv", func(p *sim.Proc) {
		w.Rank(1).Recv(p, 0, 2, dst)
		done = p.Now()
	})
	env.Spawn("send", func(p *sim.Proc) { w.Rank(0).Send(p, 1, 2, src) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("data corrupted")
	}
	// Two full copies happen, but pipelined: completion must beat the
	// strictly serial 2x copy time, yet cannot beat a single copy.
	oneCopy := m.CopyTime(n)
	if done >= 2*oneCopy {
		t.Errorf("pipelined transfer took %v, want < serial %v", done, 2*oneCopy)
	}
	if done < oneCopy {
		t.Errorf("transfer took %v, faster than one full copy %v", done, oneCopy)
	}
	if m.Stats.ShmCopies < 2*(n/m.Cfg.ShmPktSize) {
		t.Errorf("shm chunk copies = %d, want >= %d", m.Stats.ShmCopies, 2*(n/m.Cfg.ShmPktSize))
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	env, _, w := world(2, 1, IBM())
	a, b := make([]byte, 4), make([]byte, 4)
	env.Spawn("send", func(p *sim.Proc) {
		w.Rank(0).Send(p, 1, 100, []byte{1, 1, 1, 1})
		w.Rank(0).Send(p, 1, 200, []byte{2, 2, 2, 2})
	})
	env.Spawn("recv", func(p *sim.Proc) {
		// Receive the later tag first.
		w.Rank(1).Recv(p, 0, 200, b)
		w.Rank(1).Recv(p, 0, 100, a)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if a[0] != 1 || b[0] != 2 {
		t.Fatalf("tag matching wrong: a=%v b=%v", a, b)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	env, _, w := world(2, 2, IBM())
	buf := make([]byte, 4)
	var st Status
	env.Spawn("recv", func(p *sim.Proc) { st = w.Rank(3).Recv(p, Any, Any, buf) })
	env.Spawn("send", func(p *sim.Proc) {
		p.Sleep(5)
		w.Rank(1).Send(p, 3, 42, []byte{9, 9, 9, 9})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Source != 1 || st.Tag != 42 || buf[0] != 9 {
		t.Fatalf("status = %+v buf=%v", st, buf)
	}
}

func TestSameTagOrderPreserved(t *testing.T) {
	env, _, w := world(2, 1, IBM())
	got := make([]byte, 0, 2)
	env.Spawn("send", func(p *sim.Proc) {
		w.Rank(0).Send(p, 1, 5, []byte{1})
		w.Rank(0).Send(p, 1, 5, []byte{2})
	})
	env.Spawn("recv", func(p *sim.Proc) {
		b := make([]byte, 1)
		w.Rank(1).Recv(p, 0, 5, b)
		got = append(got, b[0])
		w.Rank(1).Recv(p, 0, 5, b)
		got = append(got, b[0])
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2]" {
		t.Fatalf("order = %v, want [1 2]", got)
	}
}

func TestSendrecvPairwiseExchange(t *testing.T) {
	env, _, w := world(2, 1, IBM())
	n := 64 << 10 // rendezvous-sized both ways: deadlocks without Sendrecv
	d0, d1 := make([]byte, n), make([]byte, n)
	s0, s1 := make([]byte, n), make([]byte, n)
	s0[0], s1[0] = 10, 11
	env.Spawn("r0", func(p *sim.Proc) { w.Rank(0).Sendrecv(p, 1, 1, s0, 1, 1, d0) })
	env.Spawn("r1", func(p *sim.Proc) { w.Rank(1).Sendrecv(p, 0, 1, s1, 0, 1, d1) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if d0[0] != 11 || d1[0] != 10 {
		t.Fatalf("exchange wrong: d0=%d d1=%d", d0[0], d1[0])
	}
}

func TestRndvSendBufferReusableAfterReturn(t *testing.T) {
	// MPI semantics: once Send returns the buffer may be modified. The
	// recursive-doubling allreduce does exactly that (send partial, then
	// combine into the same buffer) — the partner must still receive the
	// pre-modification data.
	env, _, w := world(2, 1, IBM())
	n := 128 << 10 // rendezvous both directions
	bufs := [][]byte{make([]byte, n), make([]byte, n)}
	bufs[0][0], bufs[1][0] = 10, 20
	for r := 0; r < 2; r++ {
		r := r
		env.Spawn(fmt.Sprintf("r%d", r), func(p *sim.Proc) {
			scratch := make([]byte, n)
			w.Rank(r).Sendrecv(p, 1-r, 5, bufs[r], 1-r, 5, scratch)
			bufs[r][0] += scratch[0] // combine in place, immediately
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if bufs[0][0] != 30 || bufs[1][0] != 30 {
		t.Fatalf("pairwise exchange + combine = %d/%d, want 30/30 (stale or torn data)",
			bufs[0][0], bufs[1][0])
	}
}

func TestSelfSendEager(t *testing.T) {
	env, _, w := world(1, 1, IBM())
	buf := make([]byte, 3)
	env.Spawn("r0", func(p *sim.Proc) {
		w.Rank(0).Send(p, 0, 1, []byte{7, 8, 9})
		w.Rank(0).Recv(p, 0, 1, buf)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 7 || buf[2] != 9 {
		t.Fatalf("self send = %v", buf)
	}
}

func TestTruncationPanics(t *testing.T) {
	env, _, w := world(1, 2, IBM())
	env.Spawn("send", func(p *sim.Proc) { w.Rank(0).Send(p, 1, 1, make([]byte, 16)) })
	env.Spawn("recv", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("truncating receive did not panic")
			}
		}()
		w.Rank(1).Recv(p, 0, 1, make([]byte, 8))
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSendBadRankPanics(t *testing.T) {
	env, _, w := world(1, 2, IBM())
	env.Spawn("send", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Send to invalid rank did not panic")
			}
		}()
		w.Rank(0).Send(p, 5, 1, nil)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMPICHSlowerThanIBMEager(t *testing.T) {
	run := func(proto Protocol) sim.Time {
		env, _, w := world(2, 1, proto)
		var done sim.Time
		env.Spawn("recv", func(p *sim.Proc) {
			w.Rank(1).Recv(p, 0, 1, make([]byte, 1024))
			done = p.Now()
		})
		env.Spawn("send", func(p *sim.Proc) { w.Rank(0).Send(p, 1, 1, make([]byte, 1024)) })
		if err := env.Run(); err != nil {
			panic(err)
		}
		return done
	}
	if ibm, mpich := run(IBM()), run(MPICH()); mpich <= ibm {
		t.Errorf("MPICH (%v) should be slower than IBM MPI (%v)", mpich, ibm)
	}
}

func TestEagerLimitProtocolSwitch(t *testing.T) {
	// A 1 KB message on 256 tasks is Rendezvous for IBM (limit 256) but
	// Eager for MPICH (fixed 16 KB).
	env, m, w := world(16, 16, IBM())
	src, dst := make([]byte, 1024), make([]byte, 1024)
	env.Spawn("recv", func(p *sim.Proc) { w.Rank(16).Recv(p, 0, 1, dst) })
	env.Spawn("send", func(p *sim.Proc) { w.Rank(0).Send(p, 16, 1, src) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.RndvSends != 1 || m.Stats.EagerSends != 0 {
		t.Errorf("IBM at 256 tasks: eager=%d rndv=%d, want rendezvous",
			m.Stats.EagerSends, m.Stats.RndvSends)
	}
	_ = env
}

// Property: any set of messages with distinct tags between a pair of ranks
// is delivered intact regardless of receive order.
func TestPropDistinctTagsAnyOrder(t *testing.T) {
	f := func(sizesRaw []uint16, order []uint8) bool {
		if len(sizesRaw) == 0 || len(sizesRaw) > 8 {
			return true
		}
		nmsg := len(sizesRaw)
		env, _, w := world(2, 1, IBM())
		payload := make([][]byte, nmsg)
		for i, sr := range sizesRaw {
			payload[i] = make([]byte, int(sr)%2000+1)
			for j := range payload[i] {
				payload[i][j] = byte(i + j)
			}
		}
		// Receive in a permuted order.
		perm := make([]int, nmsg)
		for i := range perm {
			perm[i] = i
		}
		for i := range order {
			a, b := int(order[i])%nmsg, (int(order[i])/7)%nmsg
			perm[a], perm[b] = perm[b], perm[a]
		}
		got := make([][]byte, nmsg)
		env.Spawn("send", func(p *sim.Proc) {
			for i, pl := range payload {
				w.Rank(0).Send(p, 1, i, pl)
			}
		})
		env.Spawn("recv", func(p *sim.Proc) {
			for _, i := range perm {
				got[i] = make([]byte, len(payload[i]))
				w.Rank(1).Recv(p, 0, i, got[i])
			}
		})
		if env.Run() != nil {
			return false
		}
		for i := range payload {
			if !bytes.Equal(got[i], payload[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: a ring of P ranks passing a token ends with the token back at
// rank 0 having visited every rank, for any cluster shape.
func TestPropRingToken(t *testing.T) {
	f := func(nodesRaw, tpnRaw uint8) bool {
		nodes, tpn := int(nodesRaw)%4+1, int(tpnRaw)%4+1
		P := nodes * tpn
		if P < 2 {
			return true
		}
		env, _, w := world(nodes, tpn, IBM())
		ok := false
		for r := 0; r < P; r++ {
			r := r
			env.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
				buf := make([]byte, 1)
				if r == 0 {
					w.Rank(0).Send(p, 1, 0, []byte{1})
					w.Rank(0).Recv(p, P-1, 0, buf)
					ok = int(buf[0]) == P
				} else {
					w.Rank(r).Recv(p, r-1, 0, buf)
					buf[0]++
					w.Rank(r).Send(p, (r+1)%P, 0, buf)
				}
			})
		}
		return env.Run() == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestWorldAccessors(t *testing.T) {
	_, m, w := world(2, 3, MPICH())
	if w.Size() != 6 || w.Machine() != m || w.Protocol().Name != "mpich" {
		t.Fatal("accessors wrong")
	}
	if w.Rank(4).RankID() != 4 {
		t.Fatal("RankID wrong")
	}
}

func TestEagerLimitBoundaryExact(t *testing.T) {
	// A message of exactly the Eager limit ships Eager; one byte more
	// switches to Rendezvous.
	env, m, w := world(2, 1, MPICH())
	limit := MPICH().EagerLimit(2)
	env.Spawn("recv", func(p *sim.Proc) {
		w.Rank(1).Recv(p, 0, 1, make([]byte, limit))
		w.Rank(1).Recv(p, 0, 2, make([]byte, limit+1))
	})
	env.Spawn("send", func(p *sim.Proc) {
		w.Rank(0).Send(p, 1, 1, make([]byte, limit))
		w.Rank(0).Send(p, 1, 2, make([]byte, limit+1))
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.EagerSends != 1 || m.Stats.RndvSends != 1 {
		t.Fatalf("eager=%d rndv=%d, want 1/1", m.Stats.EagerSends, m.Stats.RndvSends)
	}
}

func TestWildcardMatchesRendezvous(t *testing.T) {
	env, _, w := world(2, 1, IBM())
	n := 128 << 10
	src := make([]byte, n)
	src[0] = 42
	dst := make([]byte, n)
	var st Status
	env.Spawn("recv", func(p *sim.Proc) { st = w.Rank(1).Recv(p, Any, Any, dst) })
	env.Spawn("send", func(p *sim.Proc) { w.Rank(0).Send(p, 1, 77, src) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Source != 0 || st.Tag != 77 || dst[0] != 42 {
		t.Fatalf("wildcard rndv: status=%+v dst[0]=%d", st, dst[0])
	}
}

func TestInterleavedDevices(t *testing.T) {
	// One receiver matches a shared-memory message and a network message
	// posted in the opposite arrival order.
	env, _, w := world(2, 2, IBM()) // ranks 0,1 node 0; ranks 2,3 node 1
	got := make(map[int]byte)
	env.Spawn("recv", func(p *sim.Proc) {
		b := make([]byte, 1)
		w.Rank(1).Recv(p, 2, 5, b) // network first, although shm arrives first
		got[2] = b[0]
		w.Rank(1).Recv(p, 0, 5, b)
		got[0] = b[0]
	})
	env.Spawn("shm-send", func(p *sim.Proc) { w.Rank(0).Send(p, 1, 5, []byte{10}) })
	env.Spawn("net-send", func(p *sim.Proc) { w.Rank(2).Send(p, 1, 5, []byte{20}) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got[0] != 10 || got[2] != 20 {
		t.Fatalf("got = %v", got)
	}
}

func TestManyUnexpectedThenDrain(t *testing.T) {
	// A burst of unexpected messages is drained in any order by tag.
	env, m, w := world(2, 1, IBM())
	const burst = 12
	env.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < burst; i++ {
			w.Rank(0).Send(p, 1, 100+i, []byte{byte(i)})
		}
	})
	env.Spawn("recv", func(p *sim.Proc) {
		p.Sleep(2000)
		b := make([]byte, 1)
		for i := burst - 1; i >= 0; i-- {
			w.Rank(1).Recv(p, 0, 100+i, b)
			if b[0] != byte(i) {
				t.Errorf("tag %d delivered %d", 100+i, b[0])
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Unexpected != burst {
		t.Fatalf("unexpected = %d, want %d", m.Stats.Unexpected, burst)
	}
}

func TestIsendIrecvOverlap(t *testing.T) {
	env, _, w := world(2, 1, IBM())
	n := 64 << 10
	src := make([]byte, n)
	src[5] = 99
	dst := make([]byte, n)
	var overlapped bool
	env.Spawn("r0", func(p *sim.Proc) {
		rq := w.Rank(0).Isend(p, 1, 4, src)
		before := p.Now()
		p.Sleep(10) // compute while the rendezvous proceeds
		if p.Now()-before != 10 {
			t.Error("Isend blocked the caller")
		}
		overlapped = true
		rq.Wait(p)
	})
	env.Spawn("r1", func(p *sim.Proc) {
		rq := w.Rank(1).Irecv(p, 0, 4, dst)
		st := rq.Wait(p)
		if st.Source != 0 || st.Bytes != n {
			t.Errorf("status = %+v", st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !overlapped || dst[5] != 99 {
		t.Fatal("nonblocking transfer failed")
	}
}

func TestRequestTest(t *testing.T) {
	env, _, w := world(2, 1, IBM())
	env.Spawn("r1", func(p *sim.Proc) {
		rq := w.Rank(1).Irecv(p, 0, 9, make([]byte, 4))
		if rq.Test() {
			t.Error("request complete before any send")
		}
		st := rq.Wait(p)
		if !rq.Test() || st.Tag != 9 {
			t.Error("request state wrong after Wait")
		}
	})
	env.Spawn("r0", func(p *sim.Proc) {
		p.Sleep(100)
		w.Rank(0).Send(p, 1, 9, []byte{1, 2, 3, 4})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitAllMany(t *testing.T) {
	env, _, w := world(2, 1, IBM())
	const k = 5
	bufs := make([][]byte, k)
	env.Spawn("recv", func(p *sim.Proc) {
		reqs := make([]*Request, k)
		for i := 0; i < k; i++ {
			bufs[i] = make([]byte, 1)
			reqs[i] = w.Rank(1).Irecv(p, 0, i, bufs[i])
		}
		WaitAll(p, reqs...)
	})
	env.Spawn("send", func(p *sim.Proc) {
		for i := k - 1; i >= 0; i-- { // reverse order: matching must sort it out
			w.Rank(0).Send(p, 1, i, []byte{byte(i + 1)})
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if bufs[i][0] != byte(i+1) {
			t.Fatalf("irecv %d got %d", i, bufs[i][0])
		}
	}
}

// TestRendezvousMovesOnce: both rendezvous paths charge what they always
// charged and move the bytes once, straight into the receive buffer — the
// shared-memory pipe through no bounce buffer, the network DMA through no
// snapshot — so neither draws from the machine's buffer pool. Statistics and
// completion times are the ones the two-copy pipe and the snapshotting DMA
// recorded (ec73b04), with the receive posted first and with the message
// arriving first.
func TestRendezvousMovesOnce(t *testing.T) {
	pkt := machine.ColonySP(1, 2).ShmPktSize
	type stats struct {
		shmCopies   int
		shmBytes    int64
		totalCopies int
		done        sim.Time
	}
	for _, c := range []struct {
		name       string
		nodes, tpn int
		n          int
		late       bool // the receive is posted after the message arrived
		want       stats
	}{
		{"shm/pkt+1", 1, 2, pkt + 1, false, stats{4, 32770, 4, 73.08800000000001}},
		{"shm/pkt+1/late", 1, 2, pkt + 1, true, stats{4, 32770, 4, 272.888}},
		{"shm/2pkt", 1, 2, 2 * pkt, false, stats{4, 65536, 4, 105.85400000000001}},
		{"shm/2pkt/late", 1, 2, 2 * pkt, true, stats{4, 65536, 4, 305.654}},
		{"shm/512KiB+7", 1, 2, 512<<10 + 7, false, stats{66, 1048590, 66, 1101.3079999999998}},
		{"shm/512KiB+7/late", 1, 2, 512<<10 + 7, true, stats{66, 1048590, 66, 1301.1079999999993}},
		{"net/256KiB+3", 2, 1, 256<<10 + 3, false, stats{0, 0, 0, 807.8619}},
		{"net/256KiB+3/late", 2, 1, 256<<10 + 3, true, stats{0, 0, 0, 995.0690999999999}},
	} {
		env, m, w := world(c.nodes, c.tpn, IBM())
		src, dst := make([]byte, c.n), make([]byte, c.n)
		for i := range src {
			src[i] = byte(i*7 + 1)
		}
		var done sim.Time
		env.Spawn("recv", func(p *sim.Proc) {
			if c.late {
				p.Sleep(200)
			}
			w.Rank(1).Recv(p, 0, 3, dst)
			done = p.Now()
		})
		env.Spawn("send", func(p *sim.Proc) { w.Rank(0).Send(p, 1, 3, src) })
		if err := env.Run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(dst, src) {
			t.Errorf("%s: the payload did not land", c.name)
		}
		if got := (stats{m.Stats.ShmCopies, m.Stats.ShmBytes, m.Stats.TotalCopies, done}); got != c.want {
			t.Errorf("%s: %+v, want %+v", c.name, got, c.want)
		}
		if gets, _ := m.Buffers.Stats(); gets != 0 || m.Buffers.Outstanding() != 0 {
			t.Errorf("%s: %d buffers drawn from the pool, %d out, want none", c.name, gets, m.Buffers.Outstanding())
		}
	}
}
