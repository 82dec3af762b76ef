package baseline

import (
	"crypto/sha256"
	"encoding/hex"
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
	size       int // bytes each member ends with (reduce: the root)
	time       sim.Time
	events     uint64
	gets       int    // pool Gets with scratch buffers
	digest     string // of the per-rank times, the Stats and every output
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

// runFoldPin runs one row and returns what it pins: the end time, the event
// count, the pool's Gets and the digest, plus how many members combined
// children in a tree reduce.
func runFoldPin(t *testing.T, c foldPin) (sim.Time, uint64, int, string, int) {
	t.Helper()
	P := c.nodes * c.tpn
	outs := make([][]byte, P)
	m, done := harness(t, c.nodes, c.tpn, c.flavor, func(g *Group, p *sim.Proc, rank int) {
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
	var end sim.Time
	for _, d := range done {
		end = max(end, d)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%v|%+v|", done, m.Stats)
	for _, o := range outs {
		h.Write(o)
	}
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
	return end, m.Env.Events(), int(gets), hex.EncodeToString(h.Sum(nil))[:16], interior
}

// TestReduceFamilyPinned holds the baselines' tree reduce, and the allreduce
// and reduce-scatter built on it, to the times, per-rank times, statistics,
// event counts and output bytes they had when every child was received into a
// scratch buffer and the accumulator was staged by a copy. Folding on receive
// moves no charge and no event, and every interior member of a tree reduce
// draws one pool buffer fewer: its scratch buffer. IBM's recursive-doubling
// allreduce (up to 32 KiB) keeps its scratch for the exchange.
func TestReduceFamilyPinned(t *testing.T) {
	for _, c := range foldPins {
		name := fmt.Sprintf("%s/%v/%dx%d/%d", c.op, c.flavor, c.nodes, c.tpn, c.size)
		end, events, gets, digest, interior := runFoldPin(t, c)
		if end != c.time || events != c.events || digest != c.digest {
			t.Errorf("%s: time %v, %d events, digest %s; want %v, %d, %s",
				name, end, events, digest, c.time, c.events, c.digest)
		}
		if want := c.gets - interior; gets != want {
			t.Errorf("%s: %d pool Gets, want %d (%d with scratch, %d interior members)",
				name, gets, want, c.gets, interior)
		}
	}
}

var foldPins = []foldPin{
	{"reduce", IBM, 2, 4, 8, 38.6244, 76, 14, "0d39953daa994965"},
	{"reduce", IBM, 2, 4, 4096, 131.57199999999997, 76, 14, "67e2185a25a17299"},
	{"reduce", IBM, 2, 4, 65544, 1226.6564000000003, 156, 7, "3ea632508dfb90fe"},
	{"reduce", IBM, 2, 4, 524288, 8909.281199999996, 642, 7, "c91afeda4ba5001a"},
	{"reduce", IBM, 3, 2, 8, 38.0084, 55, 10, "d9e1acfdf2c7b2f4"},
	{"reduce", IBM, 3, 2, 4096, 122.63, 55, 10, "26f9c6f1652e694f"},
	{"reduce", IBM, 3, 2, 65544, 1278.9708000000003, 103, 5, "ad30fd1f2f6ba61d"},
	{"reduce", IBM, 3, 2, 524288, 9363.665199999998, 346, 5, "e4cee27afe6b688c"},
	{"reduce", MPICH, 2, 4, 8, 48.2436, 83, 14, "cf12a16a3234bd4c"},
	{"reduce", MPICH, 2, 4, 4096, 151.1524, 83, 14, "59390307f4090030"},
	{"reduce", MPICH, 2, 4, 65544, 1341.2768000000003, 163, 7, "29810937bd19d6ce"},
	{"reduce", MPICH, 2, 4, 524288, 9757.891999999993, 649, 7, "0b8482ea4a754f09"},
	{"reduce", MPICH, 3, 2, 8, 47.621199999999995, 60, 10, "fa91f71645ef041f"},
	{"reduce", MPICH, 3, 2, 4096, 138.93359999999998, 60, 10, "dc553dd978a5de37"},
	{"reduce", MPICH, 3, 2, 65544, 1341.0060000000003, 108, 5, "184625d566202e6e"},
	{"reduce", MPICH, 3, 2, 524288, 9792.6956, 351, 5, "228ae0615ea98b4f"},
	{"allreduce", IBM, 2, 4, 8, 41.18840000000001, 264, 32, "9f7afa21bba4757f"},
	{"allreduce", IBM, 2, 4, 4096, 178.02759999999998, 264, 32, "dc2361873f12c56b"},
	{"allreduce", IBM, 2, 4, 65544, 1809.8815999999986, 297, 7, "a28569dffcddc754"},
	{"allreduce", IBM, 2, 4, 524288, 12679.439999999977, 1269, 7, "5e6b01f46c7c9f49"},
	{"allreduce", IBM, 3, 2, 8, 64.7384, 134, 16, "4f32e6f2a9a4d482"},
	{"allreduce", IBM, 3, 2, 4096, 201.37760000000003, 133, 16, "223bb70b2956ea34"},
	{"allreduce", IBM, 3, 2, 65544, 1915.4531999999986, 196, 5, "ebbbd9acdf4c9527"},
	{"allreduce", IBM, 3, 2, 524288, 13589.150799999992, 682, 5, "399374b5d0695cdd"},
	{"allreduce", MPICH, 2, 4, 8, 95.52479999999998, 147, 21, "9cf3d76efde2f442"},
	{"allreduce", MPICH, 2, 4, 4096, 269.156, 147, 21, "ea2447f64b58e59b"},
	{"allreduce", MPICH, 2, 4, 65544, 2091.407599999999, 311, 7, "5e33f5fbf69496e1"},
	{"allreduce", MPICH, 2, 4, 524288, 14795.941999999974, 1283, 7, "9221678ca47d3d2b"},
	{"allreduce", MPICH, 3, 2, 8, 96.58639999999995, 107, 15, "86add68f0ea26278"},
	{"allreduce", MPICH, 3, 2, 4096, 250.44520000000003, 107, 15, "76556e3eaafb0d16"},
	{"allreduce", MPICH, 3, 2, 65544, 2144.3939999999993, 206, 5, "84c1303df90f7662"},
	{"allreduce", MPICH, 3, 2, 524288, 15286.072399999994, 692, 5, "f7af8ab5add972e9"},
	{"reducescatter", IBM, 2, 4, 8, 78.69919999999999, 142, 22, "f728a634ab41d7c3"},
	{"reducescatter", IBM, 2, 4, 4096, 910.3264000000005, 174, 14, "15443f3aa0f08841"},
	{"reducescatter", IBM, 2, 4, 65544, 11377.887999999995, 834, 8, "fd1a322651bbc07f"},
	{"reducescatter", IBM, 2, 4, 524288, 89208.57280000043, 5502, 8, "32112bec61a1572a"},
	{"reducescatter", IBM, 3, 2, 8, 79.1656, 104, 16, "8d44c718d271e7cf"},
	{"reducescatter", IBM, 3, 2, 4096, 769.6468000000003, 137, 9, "bd3b2816322e71ba"},
	{"reducescatter", IBM, 3, 2, 65544, 8989.8964, 383, 6, "ae2ab9112c49e365"},
	{"reducescatter", IBM, 3, 2, 524288, 70172.19720000005, 2129, 6, "77cede79cafd1660"},
	{"reducescatter", MPICH, 2, 4, 8, 98.09759999999999, 156, 22, "8983a61b5fa6ee5b"},
	{"reducescatter", MPICH, 2, 4, 4096, 1045.8860000000006, 182, 15, "76f6ddf3f187864b"},
	{"reducescatter", MPICH, 2, 4, 65544, 12603.247599999992, 848, 8, "6527a773f65f9a74"},
	{"reducescatter", MPICH, 2, 4, 524288, 98874.82200000006, 5516, 8, "d4c8bafb610c2ab0"},
	{"reducescatter", MPICH, 3, 2, 8, 98.47439999999997, 114, 16, "e6c21812183033d0"},
	{"reducescatter", MPICH, 3, 2, 4096, 798.6584000000001, 135, 11, "5108fb6328418f1f"},
	{"reducescatter", MPICH, 3, 2, 65544, 9585.883600000001, 393, 6, "b6670b13cfb4941e"},
	{"reducescatter", MPICH, 3, 2, 524288, 74805.13160000008, 2139, 6, "e4bd0aa1345e5398"},
}
