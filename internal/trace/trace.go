// Package trace collects operation counters during a simulation run.
// The simulator is single-threaded (see internal/sim), so counters are
// plain fields. Stats are used both by the benchmark harness (to report
// data-movement behaviour) and by tests that verify structural claims of
// the paper, such as the copy counts of Figure 2.
package trace

import "strconv"

// Stats counts data-movement and protocol events for one simulation.
// The zero value is ready to use.
type Stats struct {
	// Shared-memory traffic inside SMP nodes.
	ShmCopies int   // memory copies through shared segments (user<->shm, shm<->shm)
	ShmBytes  int64 // bytes moved by those copies

	// Reduction arithmetic.
	ReduceOps     int   // elementwise combine passes
	ReduceElement int64 // elements combined

	// Network (RMA) traffic.
	Puts       int   // LAPI-style put operations (including zero-byte)
	PutBytes   int64 // payload bytes moved by puts
	Gets       int
	GetBytes   int64
	ActiveMsgs int
	Interrupts int // deliveries that needed an interrupt
	Deferrals  int // deliveries deferred until the target entered an RMA call
	Starves    int // deliveries delayed by non-yielding spinners

	// Fault injection and reliable delivery (internal/fault, internal/rma).
	Drops          int // wire puts lost to injected faults
	Retries        int // reliable-mode retransmissions
	DupsSuppressed int // duplicate deliveries suppressed by sequence dedup
	AckTimeouts    int // reliable-mode ack timers that expired
	DeadDrops      int // deliveries dropped because the target was declared failed

	// MPI point-to-point traffic (baselines).
	MPISends    int
	MPIBytes    int64
	EagerSends  int
	RndvSends   int
	Unexpected  int // messages that arrived before the matching receive
	MPIShmSends int // sends that used the intra-node shared-memory device

	// All memory copies regardless of domain (protocol buffers included).
	TotalCopies int
	TotalBytes  int64
}

// AddCopy records one memory copy of n bytes in the shared-memory domain.
func (s *Stats) AddCopy(n int) {
	s.ShmCopies++
	s.ShmBytes += int64(n)
	s.TotalCopies++
	s.TotalBytes += int64(n)
}

// AddPlainCopy records a copy outside the shared-memory domain
// (e.g. protocol staging inside MPI).
func (s *Stats) AddPlainCopy(n int) {
	s.TotalCopies++
	s.TotalBytes += int64(n)
}

// AddReduce records one combine pass over n elements.
func (s *Stats) AddReduce(n int) {
	s.ReduceOps++
	s.ReduceElement += int64(n)
}

// AddPut records one put of n payload bytes.
func (s *Stats) AddPut(n int) {
	s.Puts++
	s.PutBytes += int64(n)
}

// AddGet records one get of n payload bytes.
func (s *Stats) AddGet(n int) {
	s.Gets++
	s.GetBytes += int64(n)
}

// AddSend records one MPI point-to-point send of n bytes; eager selects the
// protocol counter, shm whether it used the intra-node device.
func (s *Stats) AddSend(n int, eager, shm bool) {
	s.MPISends++
	s.MPIBytes += int64(n)
	if eager {
		s.EagerSends++
	} else {
		s.RndvSends++
	}
	if shm {
		s.MPIShmSends++
	}
}

// Sub returns s - o field by field; useful for measuring one operation in a
// longer run.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		ShmCopies:      s.ShmCopies - o.ShmCopies,
		ShmBytes:       s.ShmBytes - o.ShmBytes,
		ReduceOps:      s.ReduceOps - o.ReduceOps,
		ReduceElement:  s.ReduceElement - o.ReduceElement,
		Puts:           s.Puts - o.Puts,
		PutBytes:       s.PutBytes - o.PutBytes,
		Gets:           s.Gets - o.Gets,
		GetBytes:       s.GetBytes - o.GetBytes,
		ActiveMsgs:     s.ActiveMsgs - o.ActiveMsgs,
		Interrupts:     s.Interrupts - o.Interrupts,
		Deferrals:      s.Deferrals - o.Deferrals,
		Starves:        s.Starves - o.Starves,
		Drops:          s.Drops - o.Drops,
		Retries:        s.Retries - o.Retries,
		DupsSuppressed: s.DupsSuppressed - o.DupsSuppressed,
		AckTimeouts:    s.AckTimeouts - o.AckTimeouts,
		DeadDrops:      s.DeadDrops - o.DeadDrops,
		MPISends:       s.MPISends - o.MPISends,
		MPIBytes:       s.MPIBytes - o.MPIBytes,
		EagerSends:     s.EagerSends - o.EagerSends,
		RndvSends:      s.RndvSends - o.RndvSends,
		Unexpected:     s.Unexpected - o.Unexpected,
		MPIShmSends:    s.MPIShmSends - o.MPIShmSends,
		TotalCopies:    s.TotalCopies - o.TotalCopies,
		TotalBytes:     s.TotalBytes - o.TotalBytes,
	}
}

// Reset zeroes every counter in place; with Sub it supports measuring
// per-operation deltas in longer runs.
func (s *Stats) Reset() {
	*s = Stats{}
}

// String renders the non-zero counters as key=value pairs in the ascending
// order of their keys, "{}" when there are none. The fields are listed in that
// order here, and no key is a prefix of another, so the order is that of the
// pairs as sorted strings.
func (s Stats) String() string {
	fields := [...]struct {
		k string
		v int64
	}{
		{"ackTimeouts", int64(s.AckTimeouts)}, {"activeMsgs", int64(s.ActiveMsgs)},
		{"copies", int64(s.TotalCopies)}, {"copyBytes", s.TotalBytes},
		{"deadDrops", int64(s.DeadDrops)}, {"deferrals", int64(s.Deferrals)},
		{"drops", int64(s.Drops)}, {"dupsSuppressed", int64(s.DupsSuppressed)},
		{"eager", int64(s.EagerSends)},
		{"getBytes", s.GetBytes}, {"gets", int64(s.Gets)},
		{"interrupts", int64(s.Interrupts)},
		{"mpiBytes", s.MPIBytes}, {"mpiSends", int64(s.MPISends)}, {"mpiShmSends", int64(s.MPIShmSends)},
		{"putBytes", s.PutBytes}, {"puts", int64(s.Puts)},
		{"reduceElems", s.ReduceElement}, {"reduceOps", int64(s.ReduceOps)},
		{"retries", int64(s.Retries)}, {"rndv", int64(s.RndvSends)},
		{"shmBytes", s.ShmBytes}, {"shmCopies", int64(s.ShmCopies)},
		{"starves", int64(s.Starves)}, {"unexpected", int64(s.Unexpected)},
	}
	b := make([]byte, 0, 512)
	b = append(b, '{')
	for _, f := range fields {
		if f.v == 0 {
			continue
		}
		if len(b) > 1 {
			b = append(b, ' ')
		}
		b = append(b, f.k...)
		b = append(b, '=')
		b = strconv.AppendInt(b, f.v, 10)
	}
	return string(append(b, '}'))
}
