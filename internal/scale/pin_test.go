package scale

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"srmcoll/internal/fault"
	"srmcoll/internal/machine"
	"srmcoll/internal/rma"
)

// The parent pin: what Run returned for these shapes when the protocol was
// still this package's own state machine (commit b876dd5), where the
// straight-line oracle now in internal/core agreed with it bit for bit. Each
// row holds the completion time's bits, the event count, the statistics, a
// hash of every rank's finish time and the protocol bytes. The oracle is
// written against the same protocol state as the stepper, so it cannot see the
// order that state is created in move; these rows can, the deadline row's
// stall report most directly, since it names each flag and counter by that
// order. The test names are the ones the oracle's rows had here.
type pin struct {
	nodes, tpn  int
	bytes, reps int
	faults      *fault.Plan
	time        uint64 // math.Float64bits(Time)
	events      uint64
	stats       string
	perRank     string // hashTimes(PerRank)
	proto       int64
}

var shapePins = []struct {
	name string
	pin
}{
	{"4x8", pin{4, 8, 256, 2, nil, 0x406a0ae147ae1479, 437, "{copies=136 copyBytes=34816 deferrals=3 putBytes=3072 puts=24 reduceElems=1984 reduceOps=62 shmBytes=34816 shmCopies=136}", "0345bb075e95107d", 11776}},
	{"32x8", pin{32, 8, 512, 1, nil, 0x4071e4a57a786c21, 1970, "{copies=544 copyBytes=278528 deferrals=31 putBytes=31744 puts=124 reduceElems=16320 reduceOps=255 shmBytes=278528 shmCopies=544}", "81f99991bca48c9a", 195584}},
	{"64x16_pipelined", pin{64, 16, 128, 3, nil, 0x408de4f9096bb9a6, 19090, "{copies=6336 copyBytes=811008 deferrals=81 putBytes=48384 puts=756 reduceElems=49104 reduceOps=3069 shmBytes=811008 shmCopies=6336}", "e5b58db61d52f3d7", 163584}},
	{"flat_no_smp", pin{16, 1, 64, 2, nil, 0x4077aaa30553261c, 579, "{copies=96 copyBytes=6144 deferrals=16 putBytes=3840 puts=120 reduceElems=240 reduceOps=30 shmBytes=6144 shmCopies=96}", "4a1c51756fb5c9dc", 4992}},
	{"single_node_smp_only", pin{1, 8, 1024, 2, nil, 0x405036e2eb1c432b, 88, "{copies=34 copyBytes=34816 reduceElems=1792 reduceOps=14 shmBytes=34816 shmCopies=34}", "1e37c90bf6f55883", 10240}},
	{"non_power_of_two", pin{13, 3, 200, 2, nil, 0x40736e6666666666, 768, "{copies=182 copyBytes=36400 deferrals=14 putBytes=9600 puts=96 reduceElems=1900 reduceOps=76 shmBytes=36400 shmCopies=182}", "f21ea5f292c1a0db", 17800}},
}

// check runs the pinned configuration, verified, and compares.
func (p pin) check(t *testing.T) *Result {
	t.Helper()
	res, err := Run(Config{Machine: machine.ColonySP(p.nodes, p.tpn), Bytes: p.bytes, Reps: p.reps, Faults: p.faults, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64bits(res.Time); got != p.time {
		t.Errorf("Time = %v (%#x), pinned %v (%#x)", res.Time, got, math.Float64frombits(p.time), p.time)
	}
	if res.Events != p.events {
		t.Errorf("Events = %d, pinned %d", res.Events, p.events)
	}
	if got := fmt.Sprintf("%+v", res.Stats); got != p.stats {
		t.Errorf("Stats = %s\n pinned %s", got, p.stats)
	}
	if got := hashTimes(res.PerRank); got != p.perRank {
		t.Errorf("PerRank hash = %s, pinned %s", got, p.perRank)
	}
	if res.ProtoBytes != p.proto {
		t.Errorf("ProtoBytes = %d, pinned %d", res.ProtoBytes, p.proto)
	}
	return res
}

func TestEngineEquivalence(t *testing.T) {
	for _, p := range shapePins {
		t.Run(p.name, func(t *testing.T) { p.check(t) })
	}
}

// TestEngineEquivalenceUnderFaults: channel drops and duplicates under the
// reliable ack/retransmit protocol, plus an interrupt storm.
func TestEngineEquivalenceUnderFaults(t *testing.T) {
	res := pin{8, 4, 256, 2, &fault.Plan{
		Seed: 7, Drop: 0.08, Dup: 0.05, AckDrop: 0.05, Reliable: true,
		Storms: []fault.Storm{{Node: 1, From: 20, Until: 600, Extra: 9}},
	}, 0x40988346dc5d638c, 672, "{ackTimeouts=6 copies=144 copyBytes=36864 deferrals=7 drops=4 dupsSuppressed=3 putBytes=7168 puts=56 reduceElems=1984 reduceOps=62 retries=6 shmBytes=36864 shmCopies=144}", "eeccc1641a31ae61", 15872}.check(t)
	if res.Stats.Drops == 0 || res.Stats.Retries == 0 {
		t.Errorf("fault plan took no effect: %+v", res.Stats)
	}
}

// TestEngineEquivalenceDeadline: a plan's deadline stops the run with a
// *fault.StallError, whose report is pinned.
func TestEngineEquivalenceDeadline(t *testing.T) {
	_, err := Run(Config{
		Machine: machine.ColonySP(4, 4),
		Bytes:   64,
		Faults:  &fault.Plan{Seed: 3, Drop: 0.5, Reliable: true, Deadline: 5},
	})
	var se *fault.StallError
	if !errors.As(err, &se) || !errors.Is(err, fault.ErrDeadline) {
		t.Fatalf("err = %v, want a *fault.StallError matching ErrDeadline", err)
	}
	if got, want := fmt.Sprintf("%x", sha256.Sum256([]byte(err.Error())))[:16], "6342ee4acba4c0ec"; got != want {
		t.Errorf("stall report hash = %s, pinned %s; the report:\n%v", got, want, err)
	}
}

// TestEngineEquivalenceUnderWindowCheck reruns the pins with the RMA layer's
// put-window check on, which names a reduce slot or broadcast buffer written
// while a put to it was in flight.
func TestEngineEquivalenceUnderWindowCheck(t *testing.T) {
	rma.CheckWindows(true)
	defer rma.CheckWindows(false)
	t.Run("shapes", TestEngineEquivalence)
	t.Run("faults", TestEngineEquivalenceUnderFaults)
	t.Run("deadline", TestEngineEquivalenceDeadline)
}

// TestScaleSchedulesMatchBenchGolden pins bench's r64k rung, 8192 nodes of 8
// with 64-byte payloads, whose per-rank protocol bytes bench/golden.json holds
// as 95.998046875.
func TestScaleSchedulesMatchBenchGolden(t *testing.T) {
	res := pin{8192, 8, 64, 1, nil, 0x408d2c96bb98c801, 507958, "{copies=139264 copyBytes=8912896 deferrals=8191 putBytes=1048448 puts=32764 reduceElems=524280 reduceOps=65535 shmBytes=8912896 shmCopies=139264}", "5e2372ef1cde3349", 6291328}.check(t)
	if got := res.ProtoBytesPerRank(); got != 95.998046875 {
		t.Errorf("ProtoBytesPerRank = %v, bench/golden.json has 95.998046875", got)
	}
}

// hashTimes returns the first eight bytes of the SHA-256 of the times' bits,
// in hex.
func hashTimes(ts []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, t := range ts {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(t))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
