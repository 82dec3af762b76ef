package srmcoll

import (
	"fmt"
	"testing"
)

// baselineColl is one collective of the pinned matrix: its blocking and its
// non-blocking form on a body's handle, over buffers sized for n bytes a rank.
type baselineColl struct {
	name  string
	sizes func(n, P int) (send, recv int)
	run   func(tc *TComm, send, recv []byte, k func(error))
	issue func(tc *TComm, send, recv []byte, k func(*TRequest))
}

var baselineColls = []baselineColl{
	{"barrier", func(n, P int) (int, int) { return 0, 0 },
		func(tc *TComm, _, _ []byte, k func(error)) { tc.Barrier(k) },
		func(tc *TComm, _, _ []byte, k func(*TRequest)) { tc.IBarrier(k) }},
	{"bcast", func(n, P int) (int, int) { return n, 0 },
		func(tc *TComm, s, _ []byte, k func(error)) { tc.Bcast(s, 1, k) },
		func(tc *TComm, s, _ []byte, k func(*TRequest)) { tc.IBcast(s, 1, k) }},
	{"reduce", func(n, P int) (int, int) { return n, n },
		func(tc *TComm, s, r []byte, k func(error)) { tc.Reduce(s, r, Float64, Sum, 1, k) },
		func(tc *TComm, s, r []byte, k func(*TRequest)) { tc.IReduce(s, r, Float64, Sum, 1, k) }},
	{"allreduce", func(n, P int) (int, int) { return n, n },
		func(tc *TComm, s, r []byte, k func(error)) { tc.Allreduce(s, r, Float64, Sum, k) },
		func(tc *TComm, s, r []byte, k func(*TRequest)) { tc.IAllreduce(s, r, Float64, Sum, k) }},
	{"gather", func(n, P int) (int, int) { return n, n * P },
		func(tc *TComm, s, r []byte, k func(error)) { tc.Gather(s, r, 1, k) },
		func(tc *TComm, s, r []byte, k func(*TRequest)) { tc.IGather(s, r, 1, k) }},
	{"scatter", func(n, P int) (int, int) { return n * P, n },
		func(tc *TComm, s, r []byte, k func(error)) { tc.Scatter(s, r, 1, k) },
		func(tc *TComm, s, r []byte, k func(*TRequest)) { tc.IScatter(s, r, 1, k) }},
	{"allgather", func(n, P int) (int, int) { return n, n * P },
		func(tc *TComm, s, r []byte, k func(error)) { tc.Allgather(s, r, k) },
		func(tc *TComm, s, r []byte, k func(*TRequest)) { tc.IAllgather(s, r, k) }},
	{"alltoall", func(n, P int) (int, int) { return n * P, n * P },
		func(tc *TComm, s, r []byte, k func(error)) { tc.Alltoall(s, r, k) },
		func(tc *TComm, s, r []byte, k func(*TRequest)) { tc.IAlltoall(s, r, k) }},
	{"reducescatter", func(n, P int) (int, int) { return n * P, n },
		func(tc *TComm, s, r []byte, k func(error)) { tc.ReduceScatter(s, r, Float64, Sum, k) },
		func(tc *TComm, s, r []byte, k func(*TRequest)) { tc.IReduceScatter(s, r, Float64, Sum, k) }},
	{"scan", func(n, P int) (int, int) { return n, n },
		func(tc *TComm, s, r []byte, k func(error)) { tc.Scan(s, r, Float64, Sum, k) },
		func(tc *TComm, s, r []byte, k func(*TRequest)) { tc.IScan(s, r, Float64, Sum, k) }},
	{"exscan", func(n, P int) (int, int) { return n, n },
		func(tc *TComm, s, r []byte, k func(error)) { tc.Exscan(s, r, Float64, Sum, k) },
		func(tc *TComm, s, r []byte, k func(*TRequest)) { tc.IExscan(s, r, Float64, Sum, k) }},
}

// baselinePinBody runs one collective of the matrix on every rank, in its
// blocking form or issued and waited for at once, with per-rank send bytes of
// float64s, and leaves every rank's receive buffer (the broadcast's buffer) in
// out.
func baselinePinBody(c baselineColl, n int, issued bool, out [][]byte) func(tc *TComm, done func()) {
	return func(tc *TComm, done func()) {
		r, P := tc.Rank(), tc.Size()
		ns, nr := c.sizes(n, P)
		send, recv := make([]byte, ns), make([]byte, nr)
		vals := make([]float64, ns/8)
		for i := range vals {
			vals[i] = float64(r*1000 + i%977)
		}
		copy(send, Float64Bytes(vals))
		if c.name == "bcast" {
			out[r] = send
		} else {
			out[r] = recv
		}
		end := func(err error) {
			if err != nil {
				panic(err)
			}
			done()
		}
		if issued {
			c.issue(tc, send, recv, func(rq *TRequest) { rq.Wait(end) })
			return
		}
		c.run(tc, send, recv, end)
	}
}

// TestBaselineSchedulesPinned holds the two MPI baselines' eleven collectives,
// blocking and issued-then-waited, on a power-of-two and an odd shape, to the
// schedules, counters and output bytes they had as blocking process code. The
// three sizes take every protocol of the point-to-point layer: 64 bytes go
// eager on both devices; 8 KiB goes eager in shared memory and, between
// nodes, by rendezvous under IBM (Eager limit 4 KiB at these task counts) and
// eager under MPICH (16 KiB); 32 KiB goes by rendezvous on both devices. Every
// row runs under each form of body against the same pin.
func TestBaselineSchedulesPinned(t *testing.T) {
	for _, impl := range []Impl{IBMMPI, MPICHMPI} {
		for _, shape := range [][2]int{{2, 2}, {3, 2}} {
			cl := mustCluster(t, shape[0], shape[1])
			P := cl.Config().P()
			for _, n := range []int{64, 8 << 10, 32 << 10} {
				for _, c := range baselineColls {
					for _, issued := range []bool{false, true} {
						name := fmt.Sprintf("%s/%dx%d/%d/%s", impl, shape[0], shape[1], n, c.name)
						if issued {
							name += "/issued"
						}
						for _, form := range bodyForms {
							out := make([][]byte, P)
							res, err := form.run(cl, impl, baselinePinBody(c, n, issued, out))
							if err != nil {
								t.Errorf("%s (%s): %v", name, form.name, err)
								continue
							}
							if got, want := pinOf(res, out), baselinePins[name]; got != want {
								t.Errorf("%s (%s): pin %s, want %s\n\t%q: %q,", name, form.name, got, want, name, got)
							}
						}
					}
				}
			}
		}
	}
}

// baselinePins are the pins of TestBaselineSchedulesPinned, by row.
var baselinePins = map[string]string{
	"ibm-mpi/2x2/64/barrier":                 "446f72964b67794f/a34e36441db21ca6",
	"ibm-mpi/2x2/64/barrier/issued":          "6fa7fca125ee88b7/a34e36441db21ca6",
	"ibm-mpi/2x2/64/bcast":                   "f44ea74219768966/0d27483c12adfe14",
	"ibm-mpi/2x2/64/bcast/issued":            "35d74258b15e0318/0d27483c12adfe14",
	"ibm-mpi/2x2/64/reduce":                  "25535af9b7444f69/d02d548d2df6da1a",
	"ibm-mpi/2x2/64/reduce/issued":           "ecc937bda4502551/d02d548d2df6da1a",
	"ibm-mpi/2x2/64/allreduce":               "6cc0bf8808067783/cb87f086a605e18e",
	"ibm-mpi/2x2/64/allreduce/issued":        "bf925cdb84924275/cb87f086a605e18e",
	"ibm-mpi/2x2/64/gather":                  "064ef7919cda1eb4/7773d1ea2f76cf5e",
	"ibm-mpi/2x2/64/gather/issued":           "6c424f88f972ae28/7773d1ea2f76cf5e",
	"ibm-mpi/2x2/64/scatter":                 "56990d4b6af08b9f/f09316ff5a37fa57",
	"ibm-mpi/2x2/64/scatter/issued":          "a07d7f2f0755a923/f09316ff5a37fa57",
	"ibm-mpi/2x2/64/allgather":               "7421e7a0c35cf945/d0a9ed49ba38ff13",
	"ibm-mpi/2x2/64/allgather/issued":        "626d948781ff5af4/d0a9ed49ba38ff13",
	"ibm-mpi/2x2/64/alltoall":                "0d58e70bc8b1574e/3e6d8fd70b4eb424",
	"ibm-mpi/2x2/64/alltoall/issued":         "20a0cf830e2a2984/3e6d8fd70b4eb424",
	"ibm-mpi/2x2/64/reducescatter":           "c6e02956a973b3d8/5e161c781ad56847",
	"ibm-mpi/2x2/64/reducescatter/issued":    "88ee9948e1cad5b6/5e161c781ad56847",
	"ibm-mpi/2x2/64/scan":                    "23e9734ce7785828/372b7f032ca1f4a0",
	"ibm-mpi/2x2/64/scan/issued":             "36b96f8a4d459cfd/372b7f032ca1f4a0",
	"ibm-mpi/2x2/64/exscan":                  "6ba87008611e9531/a2916d9424d412e2",
	"ibm-mpi/2x2/64/exscan/issued":           "2d05a3dcef53d171/a2916d9424d412e2",
	"ibm-mpi/2x2/8192/barrier":               "446f72964b67794f/a34e36441db21ca6",
	"ibm-mpi/2x2/8192/barrier/issued":        "6fa7fca125ee88b7/a34e36441db21ca6",
	"ibm-mpi/2x2/8192/bcast":                 "e6ea74d989e302c0/8d8b4e5d742f4a8a",
	"ibm-mpi/2x2/8192/bcast/issued":          "ae3ea319218352b0/8d8b4e5d742f4a8a",
	"ibm-mpi/2x2/8192/reduce":                "f56600d4b8f8a50c/7766e5937488397d",
	"ibm-mpi/2x2/8192/reduce/issued":         "89f79470e76eb734/7766e5937488397d",
	"ibm-mpi/2x2/8192/allreduce":             "adbf92208de8a04c/62955a15b070d7d9",
	"ibm-mpi/2x2/8192/allreduce/issued":      "f697f901cecb2b59/62955a15b070d7d9",
	"ibm-mpi/2x2/8192/gather":                "787869cc7be1f6a2/4e8958a580441ce6",
	"ibm-mpi/2x2/8192/gather/issued":         "fffb0afe97a6ecb6/4e8958a580441ce6",
	"ibm-mpi/2x2/8192/scatter":               "41fd61378d11d651/0c6880add92a6401",
	"ibm-mpi/2x2/8192/scatter/issued":        "9d292adcb5f7cbaa/0c6880add92a6401",
	"ibm-mpi/2x2/8192/allgather":             "721ed77451c67b35/820eff4cc6a3530d",
	"ibm-mpi/2x2/8192/allgather/issued":      "8f3f8ad15bf1702e/820eff4cc6a3530d",
	"ibm-mpi/2x2/8192/alltoall":              "3e0490010a6c6124/6dd39a37b2dd02c2",
	"ibm-mpi/2x2/8192/alltoall/issued":       "8b6cc401bb530c8c/6dd39a37b2dd02c2",
	"ibm-mpi/2x2/8192/reducescatter":         "bcd894882bc82a8c/d664e22f4ed309c2",
	"ibm-mpi/2x2/8192/reducescatter/issued":  "220d5d02b10edc97/d664e22f4ed309c2",
	"ibm-mpi/2x2/8192/scan":                  "ff7f6a2057d15ce8/167ce2efedf81088",
	"ibm-mpi/2x2/8192/scan/issued":           "95462ea1e7da40ad/167ce2efedf81088",
	"ibm-mpi/2x2/8192/exscan":                "1af2936a14ec0601/c57d7bc90815569b",
	"ibm-mpi/2x2/8192/exscan/issued":         "dba502a930e4d035/c57d7bc90815569b",
	"ibm-mpi/2x2/32768/barrier":              "446f72964b67794f/a34e36441db21ca6",
	"ibm-mpi/2x2/32768/barrier/issued":       "6fa7fca125ee88b7/a34e36441db21ca6",
	"ibm-mpi/2x2/32768/bcast":                "d5270dc4f58f85a0/82171e4d0399c13c",
	"ibm-mpi/2x2/32768/bcast/issued":         "4c69694bc52066aa/82171e4d0399c13c",
	"ibm-mpi/2x2/32768/reduce":               "6f01f40b886e741f/7d3ee0cea48311de",
	"ibm-mpi/2x2/32768/reduce/issued":        "0ff322e279905982/7d3ee0cea48311de",
	"ibm-mpi/2x2/32768/allreduce":            "a7d779d359940332/766942073d0c13aa",
	"ibm-mpi/2x2/32768/allreduce/issued":     "35818b2b9f63a4d3/766942073d0c13aa",
	"ibm-mpi/2x2/32768/gather":               "9b712106b8e519ee/f016f3b136dab014",
	"ibm-mpi/2x2/32768/gather/issued":        "89b65199c4f5f3c2/f016f3b136dab014",
	"ibm-mpi/2x2/32768/scatter":              "84dc23c6d8271f34/9ff7dadc6b316f81",
	"ibm-mpi/2x2/32768/scatter/issued":       "445408e486d7ffe6/9ff7dadc6b316f81",
	"ibm-mpi/2x2/32768/allgather":            "970f6265535cc3cc/f498c817c16b5f5a",
	"ibm-mpi/2x2/32768/allgather/issued":     "d4253e4e5a0d2e8c/f498c817c16b5f5a",
	"ibm-mpi/2x2/32768/alltoall":             "dde62c6d96356f4c/d1c04b4568df8eba",
	"ibm-mpi/2x2/32768/alltoall/issued":      "28e8050f729ca224/d1c04b4568df8eba",
	"ibm-mpi/2x2/32768/reducescatter":        "3a07bfe6682f1957/94c7792f9deba4d0",
	"ibm-mpi/2x2/32768/reducescatter/issued": "f5721fe7cebef58b/94c7792f9deba4d0",
	"ibm-mpi/2x2/32768/scan":                 "b204d08ebd12c5e6/d82f20a1c36728d4",
	"ibm-mpi/2x2/32768/scan/issued":          "e110831e58130a7e/d82f20a1c36728d4",
	"ibm-mpi/2x2/32768/exscan":               "e634d16405ccbd56/fca0747df56c8c5b",
	"ibm-mpi/2x2/32768/exscan/issued":        "18753e0f97b378a6/fca0747df56c8c5b",
	"ibm-mpi/3x2/64/barrier":                 "d9e45fa84c6c4b4f/2b1570c43942e3a4",
	"ibm-mpi/3x2/64/barrier/issued":          "448e51e0b54b6253/2b1570c43942e3a4",
	"ibm-mpi/3x2/64/bcast":                   "99332623cef39567/6194ce064a08d481",
	"ibm-mpi/3x2/64/bcast/issued":            "3d542fa106b5afbf/6194ce064a08d481",
	"ibm-mpi/3x2/64/reduce":                  "fb098704865fd4f6/f918380c64ad024a",
	"ibm-mpi/3x2/64/reduce/issued":           "a77d182b0133ef9b/f918380c64ad024a",
	"ibm-mpi/3x2/64/allreduce":               "96fe372e5520464a/8fcabe7e84fa0ca7",
	"ibm-mpi/3x2/64/allreduce/issued":        "57ed1d60c56fed73/8fcabe7e84fa0ca7",
	"ibm-mpi/3x2/64/gather":                  "5875b196ea34f7b5/65edb45f65845e8d",
	"ibm-mpi/3x2/64/gather/issued":           "8268b460be7c38a4/65edb45f65845e8d",
	"ibm-mpi/3x2/64/scatter":                 "713f0bb84dac18fe/658fca9ecfbba578",
	"ibm-mpi/3x2/64/scatter/issued":          "ac0546b9c3d43113/658fca9ecfbba578",
	"ibm-mpi/3x2/64/allgather":               "fefbecac99155c4d/054bd2a7dfb19708",
	"ibm-mpi/3x2/64/allgather/issued":        "4554f9b22b9023ba/054bd2a7dfb19708",
	"ibm-mpi/3x2/64/alltoall":                "f8de4fba96442753/2ba609af472253e0",
	"ibm-mpi/3x2/64/alltoall/issued":         "e15b3db5404fa928/2ba609af472253e0",
	"ibm-mpi/3x2/64/reducescatter":           "70538ae13ff00422/2d853df3a0a739ec",
	"ibm-mpi/3x2/64/reducescatter/issued":    "00c265ba1561981d/2d853df3a0a739ec",
	"ibm-mpi/3x2/64/scan":                    "80b5c71199a1dc6e/7461161fd2ef7e56",
	"ibm-mpi/3x2/64/scan/issued":             "fb4979f7e68b6ed2/7461161fd2ef7e56",
	"ibm-mpi/3x2/64/exscan":                  "8195fec78c3d9b25/eb6e56f4558185a7",
	"ibm-mpi/3x2/64/exscan/issued":           "9c891318906b8565/eb6e56f4558185a7",
	"ibm-mpi/3x2/8192/barrier":               "d9e45fa84c6c4b4f/2b1570c43942e3a4",
	"ibm-mpi/3x2/8192/barrier/issued":        "448e51e0b54b6253/2b1570c43942e3a4",
	"ibm-mpi/3x2/8192/bcast":                 "78f73907f767994d/d22a0ca873503f57",
	"ibm-mpi/3x2/8192/bcast/issued":          "5be79eabb2a90471/d22a0ca873503f57",
	"ibm-mpi/3x2/8192/reduce":                "26ab9023b39e5d20/173fded9fa67f761",
	"ibm-mpi/3x2/8192/reduce/issued":         "df895b5038a44b0a/173fded9fa67f761",
	"ibm-mpi/3x2/8192/allreduce":             "2bc465cf913ddf3c/ead8c7cb6f753f8c",
	"ibm-mpi/3x2/8192/allreduce/issued":      "75e1fd5cc60784cd/ead8c7cb6f753f8c",
	"ibm-mpi/3x2/8192/gather":                "dfe4c6e5d31a4841/8bd75ef0e839b48e",
	"ibm-mpi/3x2/8192/gather/issued":         "0aae3f32efd104bc/8bd75ef0e839b48e",
	"ibm-mpi/3x2/8192/scatter":               "8ccb9dc931164bac/2c40492f156d0289",
	"ibm-mpi/3x2/8192/scatter/issued":        "1e1827a57d678f70/2c40492f156d0289",
	"ibm-mpi/3x2/8192/allgather":             "e8320c093109817e/d90661c844026884",
	"ibm-mpi/3x2/8192/allgather/issued":      "62c27308bf7026b8/d90661c844026884",
	"ibm-mpi/3x2/8192/alltoall":              "1a1c0b175adbeb37/2407647a2a973cc9",
	"ibm-mpi/3x2/8192/alltoall/issued":       "51627626c2e580e0/2407647a2a973cc9",
	"ibm-mpi/3x2/8192/reducescatter":         "7ea4dfae3035702a/ade75db42607e7c2",
	"ibm-mpi/3x2/8192/reducescatter/issued":  "b7a10325b3d96f46/ade75db42607e7c2",
	"ibm-mpi/3x2/8192/scan":                  "2d593be557f36741/ffd54b428a763032",
	"ibm-mpi/3x2/8192/scan/issued":           "9a9911327c267f2b/ffd54b428a763032",
	"ibm-mpi/3x2/8192/exscan":                "263a25640ffd38cd/33b58b69b922941b",
	"ibm-mpi/3x2/8192/exscan/issued":         "6a944d2539a917bf/33b58b69b922941b",
	"ibm-mpi/3x2/32768/barrier":              "d9e45fa84c6c4b4f/2b1570c43942e3a4",
	"ibm-mpi/3x2/32768/barrier/issued":       "448e51e0b54b6253/2b1570c43942e3a4",
	"ibm-mpi/3x2/32768/bcast":                "7a1a7fc96e852975/b971e137b6cc57da",
	"ibm-mpi/3x2/32768/bcast/issued":         "2adc42dfb371588c/b971e137b6cc57da",
	"ibm-mpi/3x2/32768/reduce":               "ddd3c9f2bdb99a80/a0af2a7dd67cae59",
	"ibm-mpi/3x2/32768/reduce/issued":        "01a38f87453e4238/a0af2a7dd67cae59",
	"ibm-mpi/3x2/32768/allreduce":            "6a356327e517d413/a6c4572fab29d933",
	"ibm-mpi/3x2/32768/allreduce/issued":     "fb11b03c5fe16108/a6c4572fab29d933",
	"ibm-mpi/3x2/32768/gather":               "8d6062e48c79f364/fb227ce656ee22e5",
	"ibm-mpi/3x2/32768/gather/issued":        "e04616984718252d/fb227ce656ee22e5",
	"ibm-mpi/3x2/32768/scatter":              "4c907004f5cf813e/eaa77de546108efa",
	"ibm-mpi/3x2/32768/scatter/issued":       "22bb7f1711eecba1/eaa77de546108efa",
	"ibm-mpi/3x2/32768/allgather":            "51a854e57af8ca82/291b562212f4048b",
	"ibm-mpi/3x2/32768/allgather/issued":     "67678707765ac291/291b562212f4048b",
	"ibm-mpi/3x2/32768/alltoall":             "d08fcf8ff64a2c2b/f8bd4f70b9522e55",
	"ibm-mpi/3x2/32768/alltoall/issued":      "ec32567f1f849539/f8bd4f70b9522e55",
	"ibm-mpi/3x2/32768/reducescatter":        "aa1bdc93f287a03c/97db6a19b07eba24",
	"ibm-mpi/3x2/32768/reducescatter/issued": "2bb0672cb7effc18/97db6a19b07eba24",
	"ibm-mpi/3x2/32768/scan":                 "627e96f6e24abfd0/7764b28d0834cf94",
	"ibm-mpi/3x2/32768/scan/issued":          "554af9d5bd905e15/7764b28d0834cf94",
	"ibm-mpi/3x2/32768/exscan":               "78f68c9c5c1fef36/6b20af55be0368b3",
	"ibm-mpi/3x2/32768/exscan/issued":        "8ca5fd5990b37973/6b20af55be0368b3",
	"mpich/2x2/64/barrier":                   "97b3ca9ccf044201/a34e36441db21ca6",
	"mpich/2x2/64/barrier/issued":            "efae87a72340ae2b/a34e36441db21ca6",
	"mpich/2x2/64/bcast":                     "32a77e14935fd350/0d27483c12adfe14",
	"mpich/2x2/64/bcast/issued":              "c215d238e59da44c/0d27483c12adfe14",
	"mpich/2x2/64/reduce":                    "ac7ff77f4d1cc33c/d02d548d2df6da1a",
	"mpich/2x2/64/reduce/issued":             "29c05bf3d1f20417/d02d548d2df6da1a",
	"mpich/2x2/64/allreduce":                 "15732c0909f01316/e41525472f88d787",
	"mpich/2x2/64/allreduce/issued":          "87e57a8dd99d7970/e41525472f88d787",
	"mpich/2x2/64/gather":                    "b22487b61b4afff9/7773d1ea2f76cf5e",
	"mpich/2x2/64/gather/issued":             "b85ab65c94df97db/7773d1ea2f76cf5e",
	"mpich/2x2/64/scatter":                   "be0ae3e726a1e8ae/f09316ff5a37fa57",
	"mpich/2x2/64/scatter/issued":            "e55282772183f607/f09316ff5a37fa57",
	"mpich/2x2/64/allgather":                 "a2bbc2f021c4e7bd/d0a9ed49ba38ff13",
	"mpich/2x2/64/allgather/issued":          "e46411235c1ba844/d0a9ed49ba38ff13",
	"mpich/2x2/64/alltoall":                  "2f11dd4772929257/3e6d8fd70b4eb424",
	"mpich/2x2/64/alltoall/issued":           "d542d57c65ee5a6b/3e6d8fd70b4eb424",
	"mpich/2x2/64/reducescatter":             "b4e04aa031f8ac29/5e161c781ad56847",
	"mpich/2x2/64/reducescatter/issued":      "56a0e4222436b6e7/5e161c781ad56847",
	"mpich/2x2/64/scan":                      "97dccac57198fcc7/372b7f032ca1f4a0",
	"mpich/2x2/64/scan/issued":               "f81b67da7269d671/372b7f032ca1f4a0",
	"mpich/2x2/64/exscan":                    "fad9ea6c210a0b2c/a2916d9424d412e2",
	"mpich/2x2/64/exscan/issued":             "c87d1b7e51bd73da/a2916d9424d412e2",
	"mpich/2x2/8192/barrier":                 "97b3ca9ccf044201/a34e36441db21ca6",
	"mpich/2x2/8192/barrier/issued":          "efae87a72340ae2b/a34e36441db21ca6",
	"mpich/2x2/8192/bcast":                   "570a433e2d1a1b27/a9cf6523edf30f6c",
	"mpich/2x2/8192/bcast/issued":            "466321d806cb2840/a9cf6523edf30f6c",
	"mpich/2x2/8192/reduce":                  "04aaf4c90556057d/ea2a54c76b7a8cfa",
	"mpich/2x2/8192/reduce/issued":           "9edab0982af56d61/ea2a54c76b7a8cfa",
	"mpich/2x2/8192/allreduce":               "dfec87599ad26f3b/c21705688ee1e289",
	"mpich/2x2/8192/allreduce/issued":        "2c41149cce4594b9/c21705688ee1e289",
	"mpich/2x2/8192/gather":                  "cba28ed2241a0f80/4b55972da06554fa",
	"mpich/2x2/8192/gather/issued":           "aa1eba2ff0e73b95/4b55972da06554fa",
	"mpich/2x2/8192/scatter":                 "f66fcf3383e3f5d6/794251ac6ff6f6c5",
	"mpich/2x2/8192/scatter/issued":          "de41e804b401299d/794251ac6ff6f6c5",
	"mpich/2x2/8192/allgather":               "d495cd6a0a23dd10/29d11a8e231e1947",
	"mpich/2x2/8192/allgather/issued":        "b8d3fe4be9365116/29d11a8e231e1947",
	"mpich/2x2/8192/alltoall":                "3ef68bfa4f82eecb/a88f67b2db2feb06",
	"mpich/2x2/8192/alltoall/issued":         "407003e1b5a0636b/a88f67b2db2feb06",
	"mpich/2x2/8192/reducescatter":           "4d0de103472fc188/26b3794672679fbc",
	"mpich/2x2/8192/reducescatter/issued":    "65669479cd1bf80c/26b3794672679fbc",
	"mpich/2x2/8192/scan":                    "935e9cfd5fa7f396/563df69a865b0bb5",
	"mpich/2x2/8192/scan/issued":             "4c6f2fb2fb4acbb7/563df69a865b0bb5",
	"mpich/2x2/8192/exscan":                  "33831c21d045c5aa/da2127d1ea30213a",
	"mpich/2x2/8192/exscan/issued":           "af3ce970c29ff209/da2127d1ea30213a",
	"mpich/2x2/32768/barrier":                "97b3ca9ccf044201/a34e36441db21ca6",
	"mpich/2x2/32768/barrier/issued":         "efae87a72340ae2b/a34e36441db21ca6",
	"mpich/2x2/32768/bcast":                  "1fd95bff27b4cac9/82171e4d0399c13c",
	"mpich/2x2/32768/bcast/issued":           "b656362bd68bd31c/82171e4d0399c13c",
	"mpich/2x2/32768/reduce":                 "f3678a152ed7c1f1/7d3ee0cea48311de",
	"mpich/2x2/32768/reduce/issued":          "8e4d0e2716c0140d/7d3ee0cea48311de",
	"mpich/2x2/32768/allreduce":              "1a9133061b960a6c/6744f5c266446b42",
	"mpich/2x2/32768/allreduce/issued":       "ffabb9ccc9e1546a/6744f5c266446b42",
	"mpich/2x2/32768/gather":                 "45c723daab55df02/f016f3b136dab014",
	"mpich/2x2/32768/gather/issued":          "27f8c5419b9cd29f/f016f3b136dab014",
	"mpich/2x2/32768/scatter":                "ac07072ab7693da6/9ff7dadc6b316f81",
	"mpich/2x2/32768/scatter/issued":         "79e517938329c7a8/9ff7dadc6b316f81",
	"mpich/2x2/32768/allgather":              "067b4a91a0a9fc3f/f498c817c16b5f5a",
	"mpich/2x2/32768/allgather/issued":       "ad7d1a65649a3408/f498c817c16b5f5a",
	"mpich/2x2/32768/alltoall":               "ff19b90a100c45ae/d1c04b4568df8eba",
	"mpich/2x2/32768/alltoall/issued":        "d255544a3fb60365/d1c04b4568df8eba",
	"mpich/2x2/32768/reducescatter":          "3c2c92bbb766025d/94c7792f9deba4d0",
	"mpich/2x2/32768/reducescatter/issued":   "b75b964d481a55ff/94c7792f9deba4d0",
	"mpich/2x2/32768/scan":                   "d967ddd54f4b9844/a3382fc7bd615a29",
	"mpich/2x2/32768/scan/issued":            "de7ce827b640bcd0/a3382fc7bd615a29",
	"mpich/2x2/32768/exscan":                 "0cc522d4f13dadd1/47534e8635ad2262",
	"mpich/2x2/32768/exscan/issued":          "bc5cc341da79f5fe/47534e8635ad2262",
	"mpich/3x2/64/barrier":                   "cd6d9d67f07affb5/2b1570c43942e3a4",
	"mpich/3x2/64/barrier/issued":            "bc55945c43064280/2b1570c43942e3a4",
	"mpich/3x2/64/bcast":                     "6d41183d777958bb/6194ce064a08d481",
	"mpich/3x2/64/bcast/issued":              "1faa0a21c8ee6f12/6194ce064a08d481",
	"mpich/3x2/64/reduce":                    "fdf8ef4b078ad320/f918380c64ad024a",
	"mpich/3x2/64/reduce/issued":             "be1afc23f97b7126/f918380c64ad024a",
	"mpich/3x2/64/allreduce":                 "c69a2bd593a2257a/37debfb36c411a2c",
	"mpich/3x2/64/allreduce/issued":          "93bc9659d281115c/37debfb36c411a2c",
	"mpich/3x2/64/gather":                    "695740c5344d99c3/65edb45f65845e8d",
	"mpich/3x2/64/gather/issued":             "061fb6695c8d2782/65edb45f65845e8d",
	"mpich/3x2/64/scatter":                   "06a8b14e0ae90996/658fca9ecfbba578",
	"mpich/3x2/64/scatter/issued":            "1cd7e3832f370d77/658fca9ecfbba578",
	"mpich/3x2/64/allgather":                 "7c320f118a12e15a/054bd2a7dfb19708",
	"mpich/3x2/64/allgather/issued":          "ae0a978354d96349/054bd2a7dfb19708",
	"mpich/3x2/64/alltoall":                  "0da9085e5fa6b63f/2ba609af472253e0",
	"mpich/3x2/64/alltoall/issued":           "946143d05086b5b7/2ba609af472253e0",
	"mpich/3x2/64/reducescatter":             "2bfdc18d1ceacc60/2d853df3a0a739ec",
	"mpich/3x2/64/reducescatter/issued":      "4459370d522cb0b4/2d853df3a0a739ec",
	"mpich/3x2/64/scan":                      "c31e3e0906788ba4/7461161fd2ef7e56",
	"mpich/3x2/64/scan/issued":               "1de459fe0b85e372/7461161fd2ef7e56",
	"mpich/3x2/64/exscan":                    "90ab5726eed38a52/eb6e56f4558185a7",
	"mpich/3x2/64/exscan/issued":             "016b719f3f80495b/eb6e56f4558185a7",
	"mpich/3x2/8192/barrier":                 "cd6d9d67f07affb5/2b1570c43942e3a4",
	"mpich/3x2/8192/barrier/issued":          "bc55945c43064280/2b1570c43942e3a4",
	"mpich/3x2/8192/bcast":                   "9de70f01a23f2f73/a54017be04bc7ecd",
	"mpich/3x2/8192/bcast/issued":            "5999b4be235ef39a/a54017be04bc7ecd",
	"mpich/3x2/8192/reduce":                  "b0be190949c02c9a/06c44b0e880b262e",
	"mpich/3x2/8192/reduce/issued":           "658acd8586508f02/06c44b0e880b262e",
	"mpich/3x2/8192/allreduce":               "77c3250f549dca99/1f770bca2c3d8d24",
	"mpich/3x2/8192/allreduce/issued":        "58b1d5a334c9d982/1f770bca2c3d8d24",
	"mpich/3x2/8192/gather":                  "90e82b64f9843be4/9afa65bbfcd16779",
	"mpich/3x2/8192/gather/issued":           "9b9ffcb4534bbac1/9afa65bbfcd16779",
	"mpich/3x2/8192/scatter":                 "cbb20b6d941a45ca/d161d613ed80da69",
	"mpich/3x2/8192/scatter/issued":          "59fe4c3259053f2e/d161d613ed80da69",
	"mpich/3x2/8192/allgather":               "064855a94614c467/e1984bbea98d3bac",
	"mpich/3x2/8192/allgather/issued":        "1ce841c6195093f5/e1984bbea98d3bac",
	"mpich/3x2/8192/alltoall":                "8f80faac2c1c9084/b72b7ebc334f412d",
	"mpich/3x2/8192/alltoall/issued":         "6851c7d6954dce66/b72b7ebc334f412d",
	"mpich/3x2/8192/reducescatter":           "a98d34c8a2c0c858/fc19fa9224e754d5",
	"mpich/3x2/8192/reducescatter/issued":    "45c464148cc62061/fc19fa9224e754d5",
	"mpich/3x2/8192/scan":                    "b77346d5a050e34c/409c6368b423e553",
	"mpich/3x2/8192/scan/issued":             "a9fd7f9219de61bf/409c6368b423e553",
	"mpich/3x2/8192/exscan":                  "66c51067985aec5e/40ef24f61d5ad336",
	"mpich/3x2/8192/exscan/issued":           "f332ad891b82e9b8/40ef24f61d5ad336",
	"mpich/3x2/32768/barrier":                "cd6d9d67f07affb5/2b1570c43942e3a4",
	"mpich/3x2/32768/barrier/issued":         "bc55945c43064280/2b1570c43942e3a4",
	"mpich/3x2/32768/bcast":                  "48cc612630278e8b/b971e137b6cc57da",
	"mpich/3x2/32768/bcast/issued":           "190af60bd45f3e68/b971e137b6cc57da",
	"mpich/3x2/32768/reduce":                 "b61260441e16c043/a0af2a7dd67cae59",
	"mpich/3x2/32768/reduce/issued":          "cb77dc0bf0c22e9c/a0af2a7dd67cae59",
	"mpich/3x2/32768/allreduce":              "e255347d36189cad/5e65e34ac8435e34",
	"mpich/3x2/32768/allreduce/issued":       "19ae31327fa55cf8/5e65e34ac8435e34",
	"mpich/3x2/32768/gather":                 "dacdc3c3f2f4098d/fb227ce656ee22e5",
	"mpich/3x2/32768/gather/issued":          "80957c2ff4aa93c8/fb227ce656ee22e5",
	"mpich/3x2/32768/scatter":                "b7db5c49898585a3/eaa77de546108efa",
	"mpich/3x2/32768/scatter/issued":         "f04a23f43204666d/eaa77de546108efa",
	"mpich/3x2/32768/allgather":              "5049254af6da5532/291b562212f4048b",
	"mpich/3x2/32768/allgather/issued":       "c100dc615ac79573/291b562212f4048b",
	"mpich/3x2/32768/alltoall":               "17ecfb9d45c8bb86/f8bd4f70b9522e55",
	"mpich/3x2/32768/alltoall/issued":        "499e9e87426c609e/f8bd4f70b9522e55",
	"mpich/3x2/32768/reducescatter":          "18ce7d30f436806e/97db6a19b07eba24",
	"mpich/3x2/32768/reducescatter/issued":   "ae0d94a8e1815ed8/97db6a19b07eba24",
	"mpich/3x2/32768/scan":                   "d97766519186042c/8bf0f3a7d80c5102",
	"mpich/3x2/32768/scan/issued":            "5e21b483e8686e7d/8bf0f3a7d80c5102",
	"mpich/3x2/32768/exscan":                 "08fc349cbe0e49f4/c3fa0a5d85d2c66d",
	"mpich/3x2/32768/exscan/issued":          "5f485d65363c13eb/c3fa0a5d85d2c66d",
}
