package sim

// Failure detection. Real SRM clusters detect task death through missed
// heartbeats: every task beats on a fixed period, and a peer that misses a
// beat is suspected and — after a suspicion timeout with no further beat —
// declared failed. Simulating per-tick heartbeat traffic would flood the
// event queue with O(ranks × time/period) items that carry no information,
// so the detector collapses the protocol analytically: a task that dies at
// time t last beat at floor(t/Period)·Period, its first missed beat is one
// period later, and the declaration lands a suspicion timeout after that.
// The collapsed form is exactly as deterministic as the explicit one and
// costs a single scheduled event per death.

// Detector turns the time of a death into the time of its declaration. Period
// is the heartbeat interval and Timeout the suspicion window; both are virtual
// microseconds. Whoever learns of a death (srmcoll's fault tolerance, from
// Env.OnFailure) schedules the declaration at DeclareTime itself.
type Detector struct {
	Period  Time
	Timeout Time
}

// NewDetector returns a detector. Non-positive period or timeout values are
// clamped to zero (declaration then happens at the death time plus whichever
// components remain).
func NewDetector(period, timeout Time) *Detector {
	if period < 0 {
		period = 0
	}
	if timeout < 0 {
		timeout = 0
	}
	return &Detector{Period: period, Timeout: timeout}
}

// DeclareTime returns the virtual time at which a death at diedAt is
// declared: the first heartbeat the dead task misses, plus the suspicion
// timeout.
func (d *Detector) DeclareTime(diedAt Time) Time {
	if d.Period <= 0 {
		return diedAt + d.Timeout
	}
	beats := float64(int64(diedAt / d.Period)) // completed heartbeats before death
	return beats*d.Period + d.Period + d.Timeout
}
