package scale

import (
	"errors"
	"testing"

	"srmcoll/internal/fault"
	"srmcoll/internal/machine"
	"srmcoll/internal/sim"
)

// The parent pin: what Run returned for these shapes when the protocol was
// still this package's own state machine (commit b876dd5), where the
// straight-line oracle now in internal/core agreed with it bit for bit. Each
// row holds the run's pin (sim.Pin): its event digest, then a hash of its
// statistics and protocol bytes. The oracle is written against the same
// protocol state as the stepper, so it cannot see the order that state is
// created in move; these pins can, the deadline row's most directly, since its
// stall report names each flag and counter by that order. The test names are
// the ones the oracle's rows had here.
type pin struct {
	nodes, tpn  int
	bytes, reps int
	faults      *fault.Plan
	pin         string
}

var shapePins = []struct {
	name string
	pin
}{
	{"4x8", pin{4, 8, 256, 2, nil, "c1819bfeb26f8fb6/e1d66162d5b84662"}},
	{"32x8", pin{32, 8, 512, 1, nil, "2d1249446b1d6c4f/5158cbee35e53a45"}},
	{"64x16_pipelined", pin{64, 16, 128, 3, nil, "61677fc0487ce40a/22fd2bc9b1bf9406"}},
	{"flat_no_smp", pin{16, 1, 64, 2, nil, "5851fd90a701e33b/75c286a7e26240d9"}},
	{"single_node_smp_only", pin{1, 8, 1024, 2, nil, "32306da38ae74e71/c92d167fc8bd41d9"}},
	{"non_power_of_two", pin{13, 3, 200, 2, nil, "17604fd3e7d5c70f/c1adfb6aa004d38b"}},
}

// check runs the pinned configuration, verified, and compares.
func (p pin) check(t *testing.T) *Result {
	t.Helper()
	res, err := Run(Config{Machine: machine.ColonySP(p.nodes, p.tpn), Bytes: p.bytes, Reps: p.reps, Faults: p.faults, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.Pin(res.Digest, res.Stats, res.ProtoBytes); got != p.pin {
		t.Errorf("pin = %s, pinned %s; stats %+v, %d protocol bytes", got, p.pin, res.Stats, res.ProtoBytes)
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
	}, "ddc05d95f0fc1e00/21aa6c0c6e726232"}.check(t)
	if res.Stats.Drops == 0 || res.Stats.Retries == 0 {
		t.Errorf("fault plan took no effect: %+v", res.Stats)
	}
}

// TestEngineEquivalenceDeadline: a plan's deadline stops the run with a
// *fault.StallError, whose digest and report are pinned.
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
	if got, want := sim.Pin(se.Digest, err.Error()), "e45a1cf50a1eba16/6868d465a8c87d72"; got != want {
		t.Errorf("stall pin = %s, pinned %s; the report:\n%v", got, want, err)
	}
}

// TestEngineEquivalenceUnderWindowCheck runs the pins as one set under the RMA
// layer's put-window check, which every test of the package runs under
// (TestMain) and which names a reduce slot or broadcast buffer written while a
// put to it was in flight.
func TestEngineEquivalenceUnderWindowCheck(t *testing.T) {
	t.Run("shapes", TestEngineEquivalence)
	t.Run("faults", TestEngineEquivalenceUnderFaults)
	t.Run("deadline", TestEngineEquivalenceDeadline)
}

// TestScaleSchedulesMatchBenchGolden pins bench's r64k rung, 8192 nodes of 8
// with 64-byte payloads, whose per-rank protocol bytes bench/golden.json holds
// as 95.998046875.
func TestScaleSchedulesMatchBenchGolden(t *testing.T) {
	res := pin{8192, 8, 64, 1, nil, "757ea477b95a34f7/fdd444474accf317"}.check(t)
	if got := res.ProtoBytesPerRank(); got != 95.998046875 {
		t.Errorf("ProtoBytesPerRank = %v, bench/golden.json has 95.998046875", got)
	}
}
