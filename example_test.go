package srmcoll_test

import (
	"errors"
	"fmt"
	"math"

	"srmcoll"
)

// The three implementations every example compares: the paper's SRM
// collectives and the two message-passing baselines it measures them against.
var impls = []srmcoll.Impl{srmcoll.SRM, srmcoll.IBMMPI, srmcoll.MPICHMPI}

// The basic SPMD pattern: build a cluster, run a body on every rank, use the
// collectives through the Comm handle. The same body runs unchanged over the
// message-passing baselines, so the three implementations compare side by side.
func Example() {
	cluster, err := srmcoll.NewCluster(srmcoll.ColonySP(2, 4)) // 8 ranks
	if err != nil {
		panic(err)
	}
	for _, impl := range impls {
		var sum []float64
		res, err := cluster.Run(impl, func(c *srmcoll.Comm) {
			buf := make([]byte, 32<<10)
			if c.Rank() == 0 {
				for i := range buf {
					buf[i] = byte(i)
				}
			}
			c.Bcast(buf, 0) // every rank gets rank 0's payload...
			if buf[100] != 100 {
				panic("corrupted")
			}
			// ...contributes a partial sum, and synchronizes.
			global := c.AllreduceFloat64([]float64{float64(c.Rank()), 1}, srmcoll.Sum)
			if c.Rank() == 0 {
				sum = global
			}
			c.Barrier()
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-8s sum(ranks)=%.0f count=%.0f  %6.1f us  (%d puts, %d MPI sends)\n",
			impl, sum[0], sum[1], res.Time, res.Stats.Puts, res.Stats.MPISends)
	}
	// Output:
	// srm      sum(ranks)=28 count=8   268.6 us  (18 puts, 0 MPI sends)
	// ibm-mpi  sum(ranks)=28 count=8   475.9 us  (0 puts, 45 MPI sends)
	// mpich    sum(ranks)=28 count=8   662.8 us  (0 puts, 35 MPI sends)
}

// An iterative scientific kernel of the kind the paper's introduction
// motivates: a power iteration for the dominant eigenvalue of the N-point 1-D
// Laplacian, 4 sin²(πN / 2(N+1)). The matrix is row-block distributed; each
// iteration does a local matvec, reassembles the iterate with an Allgather and
// takes the Rayleigh quotient and the norm with one Allreduce. Rank 0
// broadcasts the run's parameters first.
func Example_powerSolver() {
	const n, iters = 256, 20
	cluster, err := srmcoll.NewCluster(srmcoll.ColonySP(2, 4))
	if err != nil {
		panic(err)
	}
	exact := 4 * math.Pow(math.Sin(math.Pi*n/(2*(n+1))), 2)
	fmt.Printf("exact lambda_max = %.6f\n", exact)
	for _, impl := range impls {
		var lambda float64
		res, err := cluster.Run(impl, func(c *srmcoll.Comm) {
			params := []float64{0, 0}
			if c.Rank() == 0 {
				params = []float64{1, 1e-3} // initial scale, local cost of a row in us
			}
			pb := srmcoll.Float64Bytes(params)
			c.Bcast(pb, 0)
			params = srmcoll.Float64s(pb)
			per := n / c.Size()
			lo := c.Rank() * per
			x := make([]float64, n)
			for i := range x {
				x[i] = params[0] * (1 + math.Sin(float64(i+1)))
			}
			rows := make([]float64, per)
			for it := 0; it < iters; it++ {
				for i := lo; i < lo+per; i++ {
					rows[i-lo] = 2 * x[i]
					if i > 0 {
						rows[i-lo] -= x[i-1]
					}
					if i < n-1 {
						rows[i-lo] -= x[i+1]
					}
				}
				c.Compute(float64(per) * params[1])
				y := c.AllgatherFloat64(rows)
				var xy, yy float64
				for i := lo; i < lo+per; i++ {
					xy += x[i] * y[i]
					yy += y[i] * y[i]
				}
				dots := c.AllreduceFloat64([]float64{xy, yy}, srmcoll.Sum)
				lambda = dots[0]
				for i := range x {
					x[i] = y[i] / math.Sqrt(dots[1])
				}
			}
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-8s lambda=%.6f after %d iterations  %7.1f us\n", impl, lambda, iters, res.Time)
	}
	// Output:
	// exact lambda_max = 3.999851
	// srm      lambda=3.846595 after 20 iterations    898.5 us
	// ibm-mpi  lambda=3.846595 after 20 iterations   2723.6 us
	// mpich    lambda=3.846595 after 20 iterations   4305.4 us
}

// Broadcast from an arbitrary root; the same program runs unchanged over
// the message-passing baselines for comparison.
func ExampleComm_Bcast() {
	cluster, _ := srmcoll.NewCluster(srmcoll.ColonySP(2, 2))
	var srm, mpi float64
	for _, impl := range []srmcoll.Impl{srmcoll.SRM, srmcoll.IBMMPI} {
		res, err := cluster.Run(impl, func(c *srmcoll.Comm) {
			buf := make([]byte, 4096)
			if c.Rank() == 3 {
				for i := range buf {
					buf[i] = 7
				}
			}
			c.Bcast(buf, 3)
			if buf[100] != 7 {
				panic("corrupted")
			}
		})
		if err != nil {
			panic(err)
		}
		if impl == srmcoll.SRM {
			srm = res.Time
		} else {
			mpi = res.Time
		}
	}
	fmt.Println("srm faster:", srm < mpi)
	// Output: srm faster: true
}

// Reduce delivers the combined vector only at the root.
func ExampleComm_Reduce() {
	cluster, _ := srmcoll.NewCluster(srmcoll.ColonySP(1, 4))
	cluster.Run(srmcoll.SRM, func(c *srmcoll.Comm) {
		v := []float64{float64(c.Rank() + 1)}
		out := c.ReduceFloat64(v, srmcoll.Sum, 2)
		if c.Rank() == 2 {
			fmt.Printf("sum at root: %.0f\n", out[0])
		}
	})
	// Output: sum at root: 10
}

// Sub carves a communicator out of a subset of ranks — the paper's §5
// "arbitrary MPI task groups" extension. Here it couples two model components:
// an "atmosphere" on three quarters of the ranks and an "ocean" on the rest.
// Each iterates its own allreduce-based solver within its group, and every
// other step the two exchange boundary fields through world broadcasts. A
// group's collectives involve only its own nodes and masters, so the
// components do not serialize each other.
func ExampleComm_Sub() {
	const steps, field = 4, 256
	cluster, err := srmcoll.NewCluster(srmcoll.ColonySP(2, 4))
	if err != nil {
		panic(err)
	}
	atm, ocn := []int{0, 1, 2, 3, 4, 5}, []int{6, 7}
	for _, impl := range impls {
		var checksum float64
		var size int
		res, err := cluster.Run(impl, func(c *srmcoll.Comm) {
			mine := atm
			if c.Rank() >= len(atm) {
				mine = ocn
			}
			comp := c.Sub(mine)
			local := make([]float64, field)
			for i := range local {
				local[i] = float64(c.Rank()%3 + i%5)
			}
			boundary := make([]byte, 8*field)
			for step := 1; step <= steps; step++ {
				c.Compute(50)
				sum := comp.AllreduceFloat64(local, srmcoll.Sum)
				if step%2 == 0 { // each component's first rank publishes its boundary
					for _, root := range []int{atm[0], ocn[0]} {
						if c.Rank() == root {
							copy(boundary, srmcoll.Float64Bytes(sum))
						}
						c.Bcast(boundary, root)
					}
				}
				for i := range local {
					local[i] = 0.5*local[i] + sum[i]/float64(comp.Size())
				}
			}
			out := comp.AllreduceFloat64(local[:1], srmcoll.Sum)
			if c.Rank() == 0 {
				checksum, size = out[0], comp.Size()
			}
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-8s atmosphere of %d: checksum %.3f  %7.1f us\n", impl, size, checksum, res.Time)
	}
	// Output:
	// srm      atmosphere of 6: checksum 30.375    546.2 us
	// ibm-mpi  atmosphere of 6: checksum 30.375   1006.7 us
	// mpich    atmosphere of 6: checksum 30.375   1148.1 us
}

// SharedCounter exposes LAPI-style atomic read-modify-write (§2.3) for
// dynamic work distribution: ranks claim chunks of unevenly sized work items
// from a counter hosted at rank 0 — the global task counter of NWChem-style
// codes — instead of each taking a fixed block.
func ExampleComm_SharedCounter() {
	const items, chunk = 64, 2
	cost := func(i int) float64 { return 10 + 4*float64(i) } // later items cost more
	cluster, err := srmcoll.NewCluster(srmcoll.ColonySP(2, 4))
	if err != nil {
		panic(err)
	}
	static, err := cluster.Run(srmcoll.SRM, func(c *srmcoll.Comm) {
		per := items / c.Size()
		for i := c.Rank() * per; i < (c.Rank()+1)*per; i++ {
			c.Compute(cost(i))
		}
		c.Barrier()
	})
	if err != nil {
		panic(err)
	}
	dynamic, err := cluster.Run(srmcoll.SRM, func(c *srmcoll.Comm) {
		next := c.SharedCounter("work", 0, 0)
		done := 0
		for first := next.FetchAdd(c, chunk); first < items; first = next.FetchAdd(c, chunk) {
			for i := int(first); i < int(first)+chunk; i++ {
				c.Compute(cost(i))
				done++
			}
		}
		total := c.AllreduceFloat64([]float64{float64(done)}, srmcoll.Sum)
		if c.Rank() == 0 {
			fmt.Printf("items processed: %.0f\n", total[0])
		}
		c.Barrier()
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("static blocks %.1f us, self-scheduled %.1f us: %.2fx\n",
		static.Time, dynamic.Time, static.Time/dynamic.Time)
	// Output:
	// items processed: 64
	// static blocks 2001.1 us, self-scheduled 1525.6 us: 1.31x
}

// Shrink is the recovery step of fault tolerance: a rank crashes mid-run, the
// survivors catch the structured error, shrink the communicator to the live
// ranks and finish the computation without it. A crash is delivered when the
// rank next runs: rank 3's is scheduled at 40 us, while it computes until
// 250 us, so it dies at 250 us, and the detector declares it failed a
// heartbeat period plus the suspicion timeout later.
func ExampleComm_Shrink() {
	cluster, err := srmcoll.NewCluster(srmcoll.ColonySP(2, 4))
	if err != nil {
		panic(err)
	}
	cluster.SetFaultPlan(srmcoll.FaultPlan{Crashes: []srmcoll.Crash{{Rank: 3, At: 40}}})
	cluster.SetFaultTolerance(srmcoll.DefaultFTConfig())
	var sum float64
	res, err := cluster.Run(srmcoll.SRM, func(c *srmcoll.Comm) {
		comm := c
		send, recv := srmcoll.Float64Bytes([]float64{float64(c.Rank() + 1)}), make([]byte, 8)
		c.Compute(250) // rank 3 dies in here; the survivors outlive it
		for {
			err := comm.Allreduce(send, recv, srmcoll.Float64, srmcoll.Sum)
			if err == nil {
				break
			}
			var rf *srmcoll.RankFailedError
			if !errors.As(err, &rf) {
				panic(err)
			}
			// Rank 3 was declared failed mid-collective: drop to the
			// survivors and retry on the repaired communicator.
			if comm, err = comm.Shrink(); err != nil {
				panic(err)
			}
		}
		if c.Rank() == 0 {
			sum = srmcoll.Float64s(recv)[0]
		}
	})
	if err != nil {
		panic(err)
	}
	for _, f := range res.Failures {
		fmt.Printf("rank %d crashed at %.0fus, declared failed at %.0fus\n", f.Rank, f.CrashedAt, f.DeclaredAt)
	}
	for _, r := range res.Repairs {
		fmt.Printf("%s over %v\n", r.Kind, r.Survivors)
	}
	fmt.Printf("survivor sum = %.0f (1+...+8 without rank 3's 4)\n", sum)
	// Output:
	// rank 3 crashed at 250us, declared failed at 400us
	// shrink over [0 1 2 4 5 6 7]
	// survivor sum = 32 (1+...+8 without rank 3's 4)
}

// Allgather assembles a distributed vector on every rank.
func ExampleComm_Allgather() {
	cluster, _ := srmcoll.NewCluster(srmcoll.ColonySP(1, 3))
	cluster.Run(srmcoll.SRM, func(c *srmcoll.Comm) {
		full := c.AllgatherFloat64([]float64{float64(c.Rank() * 10)})
		if c.Rank() == 1 {
			fmt.Println(full)
		}
	})
	// Output: [0 10 20]
}

// Run returns the virtual time of a whole body, so one call per operation and
// size profiles the collectives on a machine shape — the way to evaluate SRM
// for a machine before adopting it. Times are in simulated microseconds.
func ExampleCluster_Run() {
	cluster, err := srmcoll.NewCluster(srmcoll.ColonySP(2, 4))
	if err != nil {
		panic(err)
	}
	measure := func(name string, size int, body func(c *srmcoll.Comm)) {
		fmt.Printf("%-9s %6d", name, size)
		for _, impl := range impls {
			res, err := cluster.Run(impl, body)
			if err != nil {
				panic(err)
			}
			fmt.Printf(" %8.1f", res.Time)
		}
		fmt.Println()
	}
	ops := []struct {
		name string
		run  func(c *srmcoll.Comm, size int)
	}{
		{"bcast", func(c *srmcoll.Comm, size int) { c.Bcast(make([]byte, size), 0) }},
		{"reduce", func(c *srmcoll.Comm, size int) {
			c.Reduce(make([]byte, size), make([]byte, size), srmcoll.Float64, srmcoll.Sum, 0)
		}},
		{"allreduce", func(c *srmcoll.Comm, size int) {
			c.Allreduce(make([]byte, size), make([]byte, size), srmcoll.Float64, srmcoll.Sum)
		}},
		{"allgather", func(c *srmcoll.Comm, size int) {
			c.Allgather(make([]byte, size/c.Size()), make([]byte, size))
		}},
		{"scan", func(c *srmcoll.Comm, size int) {
			c.Scan(make([]byte, size), make([]byte, size), srmcoll.Float64, srmcoll.Sum)
		}},
	}
	fmt.Printf("%-9s %6s %8s %8s %8s\n", "op", "bytes", "srm", "ibm-mpi", "mpich")
	measure("barrier", 0, func(c *srmcoll.Comm) { c.Barrier() })
	for _, op := range ops {
		for _, size := range []int{64, 4 << 10, 64 << 10} {
			measure(op.name, size, func(c *srmcoll.Comm) { op.run(c, size) })
		}
	}
	// Output:
	// op         bytes      srm  ibm-mpi    mpich
	// barrier        0     17.1     94.8    123.6
	// bcast         64     17.2     38.5     48.2
	// bcast       4096     37.0     98.6    118.0
	// bcast      65536    444.5    582.4    749.3
	// reduce        64     20.1     39.9     49.6
	// reduce      4096     81.8    131.6    151.2
	// reduce     65536   1021.8   1225.7   1340.3
	// allreduce     64     22.3     43.1     97.9
	// allreduce   4096    100.2    178.0    269.2
	// allreduce  65536    816.3   1808.1   2089.6
	// allgather     64     18.1     86.3    108.7
	// allgather   4096     32.9    102.3    127.6
	// allgather  65536    260.2    446.3    444.3
	// scan          64     47.0     49.8     65.9
	// scan        4096    133.1    160.9    180.3
	// scan       65536   1731.6   1918.9   2008.9
}
