package core

import (
	"testing"

	"srmcoll/internal/rma"
)

// TestMain runs every test of the package under the RMA layer's put-window
// check (rma.CheckWindows): a clean-wire put poisons its target window at issue
// and reports a *check.WindowError if anything wrote the window before it
// landed, so a slot or buffer reused ahead of its credit is named, on either
// body. Lossy runs keep their snapshots and run as they do without the check.
func TestMain(m *testing.M) {
	rma.CheckWindows(true)
	m.Run()
}
