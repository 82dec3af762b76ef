package baseline

import (
	"fmt"
	"testing"

	"srmcoll/internal/dtype"
	"srmcoll/internal/sim"
	"srmcoll/internal/tree"
)

// foldPin is one reduce-family run as it was recorded before the tree reduce
// folded its children on receive (1ff2456).
type foldPin struct {
	op         string // reduce, allreduce or reducescatter
	flavor     Flavor
	nodes, tpn int
	size       int    // bytes each member ends with (reduce: the root)
	gets       int    // pool Gets with scratch buffers
	pin        string // sim.Pin of the run: its digest, the Stats and every output
}

// foldData is member r's float64 send vector of n bytes. The values are not
// integers, so a sum taken in another order would round differently.
func foldData(r, n int) []byte {
	v := make([]float64, n/8)
	for i := range v {
		v[i] = float64((r+1)*(i%977)+1) / float64(7+r%5)
	}
	return dtype.Float64Bytes(v)
}

// runFoldPin runs one row and returns what it pins, the pool's Gets, and how
// many members combined children in a tree reduce.
func runFoldPin(t *testing.T, c foldPin) (string, int, int) {
	t.Helper()
	P := c.nodes * c.tpn
	outs := make([][]byte, P)
	m, _ := harness(t, c.nodes, c.tpn, c.flavor, func(g blocking, p *sim.Proc, rank int) {
		switch c.op {
		case "reduce":
			if rank == 0 {
				outs[rank] = make([]byte, c.size)
			}
			g.Reduce(p, rank, foldData(rank, c.size), outs[rank], dtype.Float64, dtype.Sum, 0)
		case "allreduce":
			outs[rank] = make([]byte, c.size)
			g.Allreduce(p, rank, foldData(rank, c.size), outs[rank], dtype.Float64, dtype.Sum)
		case "reducescatter":
			outs[rank] = make([]byte, c.size)
			g.ReduceScatter(p, rank, foldData(rank, P*c.size), outs[rank], dtype.Float64, dtype.Sum)
		}
	})
	gets, _ := m.Buffers.Stats()
	interior := 0
	if !(c.op == "allreduce" && c.flavor == IBM && c.size <= rdAllreduceLimit) {
		var row [tree.MaxBinomialChildren]int
		for i := 0; i < P; i++ {
			if _, kids := tree.BinomialRow(P, 0, i, row[:0]); len(kids) > 0 {
				interior++
			}
		}
	}
	return sim.Pin(m.Env.Digest(), *m.Stats, outs), int(gets), interior
}

// TestReduceFamilyPinned holds the baselines' tree reduce, and the allreduce
// and reduce-scatter built on it, to the schedules, statistics and output
// bytes they had when every child was received into a scratch buffer and the
// accumulator was staged by a copy. Folding on receive
// moves no charge and no event, and every interior member of a tree reduce
// draws one pool buffer fewer: its scratch buffer. IBM's recursive-doubling
// allreduce (up to 32 KiB) keeps its scratch for the exchange.
func TestReduceFamilyPinned(t *testing.T) {
	for _, c := range foldPins {
		name := fmt.Sprintf("%s/%v/%dx%d/%d", c.op, c.flavor, c.nodes, c.tpn, c.size)
		pin, gets, interior := runFoldPin(t, c)
		if pin != c.pin {
			t.Errorf("%s: pin %s, want %s", name, pin, c.pin)
		}
		if want := c.gets - interior; gets != want {
			t.Errorf("%s: %d pool Gets, want %d (%d with scratch, %d interior members)",
				name, gets, want, c.gets, interior)
		}
	}
}

var foldPins = []foldPin{
	{"reduce", IBM, 2, 4, 8, 14, "fe313bc734db124a/c2ca28917675f78e"},
	{"reduce", IBM, 2, 4, 4096, 14, "e83c4ebdc57fb942/c33c31052adb3254"},
	{"reduce", IBM, 2, 4, 65544, 7, "079bacda86815302/75f82fd38d9224c7"},
	{"reduce", IBM, 2, 4, 524288, 7, "3c425c40228d8586/7723152b8994d8c0"},
	{"reduce", IBM, 3, 2, 8, 10, "d45fa738ac63da10/16e22f5853d9e5b9"},
	{"reduce", IBM, 3, 2, 4096, 10, "773a9aede84abc7e/7063c1b312062797"},
	{"reduce", IBM, 3, 2, 65544, 5, "6d230d68cc979889/a095a0b9bbf23f0e"},
	{"reduce", IBM, 3, 2, 524288, 5, "4d49aa8b8c711cea/915a351fbcb10c85"},
	{"reduce", MPICH, 2, 4, 8, 14, "8519b0bd79daccd7/c2ca28917675f78e"},
	{"reduce", MPICH, 2, 4, 4096, 14, "57cf423457258ff8/c33c31052adb3254"},
	{"reduce", MPICH, 2, 4, 65544, 7, "a2701eda4769b8f1/75f82fd38d9224c7"},
	{"reduce", MPICH, 2, 4, 524288, 7, "f5c2e3976926fb7b/7723152b8994d8c0"},
	{"reduce", MPICH, 3, 2, 8, 10, "cd69a6db3a607339/16e22f5853d9e5b9"},
	{"reduce", MPICH, 3, 2, 4096, 10, "793ab6293b81b999/7063c1b312062797"},
	{"reduce", MPICH, 3, 2, 65544, 5, "72d21a29d39d2342/a095a0b9bbf23f0e"},
	{"reduce", MPICH, 3, 2, 524288, 5, "36b6be4351fdeb47/915a351fbcb10c85"},
	{"allreduce", IBM, 2, 4, 8, 32, "15c4333923367d24/6f9e899d2aae07b5"},
	{"allreduce", IBM, 2, 4, 4096, 32, "36f594169ea7ef3e/b65e7742f517c3aa"},
	{"allreduce", IBM, 2, 4, 65544, 7, "e995151d65448e17/d5c3385dabef2285"},
	{"allreduce", IBM, 2, 4, 524288, 7, "fb65342bd7835d5f/0efd060f74aeb059"},
	{"allreduce", IBM, 3, 2, 8, 16, "d52f25dcf3535b5d/48b6adaed027f112"},
	{"allreduce", IBM, 3, 2, 4096, 16, "fc9b91ef52fc5b30/7f2674e0efaab64d"},
	{"allreduce", IBM, 3, 2, 65544, 5, "782186229e18d24b/75b5647fb72af5bc"},
	{"allreduce", IBM, 3, 2, 524288, 5, "f6b0b4783b0f1a3f/30b14ab886ce9d39"},
	{"allreduce", MPICH, 2, 4, 8, 21, "08f5ec2700ccc0ea/eae1a8a238fe5fba"},
	{"allreduce", MPICH, 2, 4, 4096, 21, "f46de6b08c131b79/bc3e1e3f7735abc7"},
	{"allreduce", MPICH, 2, 4, 65544, 7, "e5908e8d64937cf2/d5c3385dabef2285"},
	{"allreduce", MPICH, 2, 4, 524288, 7, "b810642f69432493/0efd060f74aeb059"},
	{"allreduce", MPICH, 3, 2, 8, 15, "9c5ed13720dd5d65/53f3f7dcc9c23bf8"},
	{"allreduce", MPICH, 3, 2, 4096, 15, "7c33547a9d91f602/d1966eae1701908d"},
	{"allreduce", MPICH, 3, 2, 65544, 5, "fda125f64419317c/75b5647fb72af5bc"},
	{"allreduce", MPICH, 3, 2, 524288, 5, "1b13fd9fc332070b/30b14ab886ce9d39"},
	{"reducescatter", IBM, 2, 4, 8, 22, "86001b3c5519b0e7/471fc069092b9a1e"},
	{"reducescatter", IBM, 2, 4, 4096, 14, "fb21ae481e342802/3ae5d890e5156f5d"},
	{"reducescatter", IBM, 2, 4, 65544, 8, "34584919572c9a77/71b3e8884a2ca287"},
	{"reducescatter", IBM, 2, 4, 524288, 8, "6d374dac529a9390/54a045958aa328f9"},
	{"reducescatter", IBM, 3, 2, 8, 16, "53e1f5848e26ddbd/8a3f6ae1efff4706"},
	{"reducescatter", IBM, 3, 2, 4096, 9, "2bc7d76d6050ef0e/9b4918d631423a72"},
	{"reducescatter", IBM, 3, 2, 65544, 6, "101411d94417609b/fa308ccb6349ca44"},
	{"reducescatter", IBM, 3, 2, 524288, 6, "4bbba972fa8171a9/6d746d06c30a2137"},
	{"reducescatter", MPICH, 2, 4, 8, 22, "4fca6a055684e210/471fc069092b9a1e"},
	{"reducescatter", MPICH, 2, 4, 4096, 15, "32fd2ce3afd77d9f/a2b26e7debbf16d2"},
	{"reducescatter", MPICH, 2, 4, 65544, 8, "2270f1352aa222d5/71b3e8884a2ca287"},
	{"reducescatter", MPICH, 2, 4, 524288, 8, "660de4000716e041/54a045958aa328f9"},
	{"reducescatter", MPICH, 3, 2, 8, 16, "dd91febd607fb868/8a3f6ae1efff4706"},
	{"reducescatter", MPICH, 3, 2, 4096, 11, "093b7bfb4199774f/dd367991792d631e"},
	{"reducescatter", MPICH, 3, 2, 65544, 6, "7d33651289437c61/fa308ccb6349ca44"},
	{"reducescatter", MPICH, 3, 2, 524288, 6, "d9635bbacd451f7a/6d746d06c30a2137"},
}
