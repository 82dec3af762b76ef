package srmcoll

import (
	"testing"

	"srmcoll/internal/bufpool"
	"srmcoll/internal/rma"
)

// TestMain runs every test of the package under the two oracles of protocol
// memory. Pooled buffers are handed out, and taken back, poisoned
// (bufpool.Poison): a collective that read a slot byte it had not written, or a
// buffer after its operation retired, computes on poison and fails its payload
// check. A clean-wire put poisons its target window at issue and must find it
// intact when it lands (rma.CheckWindows): a protocol that wrote a window while
// a put into it was in flight is reported with origin and target named. On top
// of both, every run holds itself to its books (simulation.outcome).
func TestMain(m *testing.M) {
	bufpool.Poison(true)
	rma.CheckWindows(true)
	m.Run()
}
