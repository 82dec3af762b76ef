package sim

import (
	"math/rand"
	"testing"
)

// Per-layer benchmarks of the event core (ROADMAP item 1): the numbers the
// next change to this package is sized by, without editing bench/. Each
// reports ns/event (or ns/wake) beside the framework's ns/op, whose "op" is
// a whole round.
//
//	go test -run '^$' -bench . -benchmem ./internal/sim

// benchQueue schedules the timestamps up front and drains them, once per
// iteration. "cold" does it on a fresh Env, as bench/layers.go's sim.queue_*
// drivers do, so it predicts those: the items, the bucket arrays and any
// narrowing are paid inside the round and the collector runs through it.
// "warm" reuses one Env, which is what a long simulation sees.
func benchQueue(b *testing.B, times []Time) {
	fn := func() {}
	round := func(env *Env) {
		for _, t := range times {
			env.At(env.Now()+t, fn)
		}
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	}
	perEvent := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(times)), "ns/event")
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			round(NewEnv())
		}
		perEvent(b)
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		env := NewEnv()
		round(env)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round(env)
		}
		perEvent(b)
	})
}

func benchTimes(n int, at func(*rand.Rand) Time) []Time {
	rng := rand.New(rand.NewSource(1))
	times := make([]Time, n)
	for i := range times {
		times[i] = at(rng)
	}
	return times
}

// SPMD phases: 2^18 events on 64 timestamps, 4096 deep.
func BenchmarkQueueTies(b *testing.B) {
	benchQueue(b, benchTimes(1<<18, func(r *rand.Rand) Time { return Time(r.Intn(64)) }))
}

// 2^18 distinct timestamps over 2 ms: 512 per initial bucket, no ties.
func BenchmarkQueueSpread(b *testing.B) {
	benchQueue(b, benchTimes(1<<18, func(r *rand.Rand) Time { return 2000 * r.Float64() }))
}

// Ack, heartbeat and deadline timers 0.1-1 s ahead: the overflow heap and
// its migration into the wheel.
func BenchmarkQueueFarFuture(b *testing.B) {
	benchQueue(b, benchTimes(1<<18, func(r *rand.Rand) Time { return 1e5 + 9e5*r.Float64() }))
}

// The distribution measured at 65,536 ranks: 64-128 distinct timestamps per
// 4 us bucket, each 20-40 items deep, pushes interleaved across them.
func BenchmarkQueueLadder(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var times []Time
	for bucket := 0; bucket < 32; bucket++ {
		ladderShape(rng, Time(bucket)*calWidth, 64+rng.Intn(65), 20+rng.Intn(21), calWidth,
			func(at Time) { times = append(times, at) })
	}
	benchQueue(b, times)
}

// One Broadcast waking 1,024 parked tasks, each of which parks again.
func BenchmarkCondBroadcastTasks(b *testing.B) {
	const waiters = 1024
	b.ReportAllocs()
	env := NewEnv()
	c := env.NewCond()
	rounds := b.N
	for i := 0; i < waiters; i++ {
		env.SpawnTask("w", i, func(t *Task) {
			left := rounds
			var again func()
			again = func() {
				if left--; left >= 0 {
					c.WaitT(t, again)
				}
			}
			again()
		})
	}
	env.SpawnTask("b", -1, func(t *Task) {
		left := rounds
		var again func()
		again = func() {
			c.Broadcast()
			if left--; left > 0 {
				t.SleepThen(1, again)
			}
		}
		t.SleepThen(1, again)
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*waiters), "ns/wake")
}
