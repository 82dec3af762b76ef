package sim_test

import (
	"testing"

	"srmcoll/internal/machine"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
)

// Two tasks hand a pair of shm flags back and forth: a Set, its broadcast
// item, a parked WaitForT and its resume per hand-off — the primitive the SMP
// collectives spend their time in. It lives here, not in internal/shm, so
// that one `-bench .` over this package sizes the whole event-core path.
func BenchmarkFlagPingPongTasks(b *testing.B) {
	b.ReportAllocs()
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(1, 2))
	ping, pong := shm.NewFlag(m, 0), shm.NewFlag(m, 0)
	rounds := b.N
	env.SpawnTask("ping", -1, func(t *sim.Task) {
		k := 0
		var next func()
		next = func() {
			if k++; k <= rounds {
				ping.Set(k)
				pong.WaitForT(t, k, next)
			}
		}
		next()
	})
	env.SpawnTask("pong", -1, func(t *sim.Task) {
		k := 0
		var next, reply func()
		reply = func() { pong.Set(k); next() }
		next = func() {
			if k++; k <= rounds {
				ping.WaitForT(t, k, reply)
			}
		}
		next()
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/handoff")
}
