// Package check centralizes buffer-shape validation for collective
// operations. Validation failures panic with a *SizeError; the Run
// boundary (srmcoll.Cluster.Run) recovers them into a structured
// *srmcoll.RunError instead of killing the host program, and every layer
// produces the same message shape: operation, rank, buffer, got/want bytes.
//
// It also carries the misuse diagnostics of the non-blocking request API:
// *RequestError for lifecycle violations (double Wait, dropped requests)
// and Buf/Overlaps for detecting user buffers shared between outstanding
// requests.
//
// And it names the two misuses of the RMA layer's put windows: *WindowError
// and *DeathError.
package check

import (
	"fmt"
	"unsafe"
)

// SizeError describes a collective called with a wrong-sized buffer.
type SizeError struct {
	Op        string // operation, e.g. "core.Gather"
	Rank      int    // global rank that made the call
	Buf       string // which buffer: "send" or "recv"
	Got, Want int    // sizes in bytes
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("%s: rank %d: %s buffer is %d bytes, want %d",
		e.Op, e.Rank, e.Buf, e.Got, e.Want)
}

// Size panics with a *SizeError when got != want.
func Size(op string, rank int, buf string, got, want int) {
	if got != want {
		panic(&SizeError{Op: op, Rank: rank, Buf: buf, Got: got, Want: want})
	}
}

// RequestError describes a misuse of the non-blocking request API: waiting
// twice on one request, dropping a request without completing it, or
// issuing a request whose buffers overlap an outstanding one. Like
// *SizeError it is raised as a panic and recovered into a structured
// *srmcoll.RunError at the Run boundary, so misuse is diagnosable instead
// of a hang or silent corruption.
type RequestError struct {
	Op     string // operation context, e.g. "srmcoll.IBcast" or "srmcoll.Run"
	Rank   int    // global rank that misused the API
	Req    string // request identity, e.g. "ibcast#2"
	Reason string
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("%s: rank %d: request %s: %s", e.Op, e.Rank, e.Req, e.Reason)
}

// ReentryError describes a blocking collective started from a continuation-
// passing body whose rank is still running another one, on this communicator
// or any other: the two protocols would interleave on one rank. Raised and
// recovered like *RequestError.
type ReentryError struct {
	Op      string // the collective that was started, e.g. "allreduce"
	Running string // the one still in progress on the rank
	Rank    int    // global rank that made the call
}

func (e *ReentryError) Error() string {
	return fmt.Sprintf("srmcoll.TComm: rank %d: %s started while %s is still running on the rank; start a blocking collective from the continuation of the last one",
		e.Rank, e.Op, e.Running)
}

// WindowError describes a put whose target window was written while the put
// was in flight: between its issue and its landing something stored into the
// bytes it was to land in — a protocol that reused a slot its consumer had not
// drained, or wrote a buffer a peer was still putting into. Only the RMA
// layer's window check (rma.CheckWindows, tests only) raises it.
type WindowError struct {
	Origin, Target int     // global ranks
	Bytes          int     // the put's length
	First          int     // offset of the first overwritten byte
	Issued, Landed float64 // virtual times, µs
}

func (e *WindowError) Error() string {
	return fmt.Sprintf("rma: put of %d bytes from rank %d to rank %d, issued at t=%.3f: its window at the target was written (byte %d) before it landed at t=%.3f",
		e.Bytes, e.Origin, e.Target, e.Issued, e.First, e.Landed)
}

// DeathError describes a rank marked dead on an RMA domain that was not told,
// before its first put, that ranks could die. Such a domain lands a put's
// bytes at issue, so the landings a declaration would discard have already
// happened.
type DeathError struct {
	Rank int
}

func (e *DeathError) Error() string {
	return fmt.Sprintf("rma: rank %d marked dead on a domain not told ranks can die (Domain.AllowDeaths): its puts have already landed", e.Rank)
}

// Buf is the half-open address range of a user buffer, captured when a
// non-blocking request is issued so later requests can be checked against
// the buffers still owned by outstanding ones. A zero Buf (empty slice)
// overlaps nothing.
type Buf struct {
	lo, hi uintptr
	Label  string // which buffer: "send", "recv", "buf"
}

// BufOf captures b's address range under the given label.
func BufOf(label string, b []byte) Buf {
	if len(b) == 0 {
		return Buf{Label: label}
	}
	lo := uintptr(unsafe.Pointer(&b[0]))
	return Buf{lo: lo, hi: lo + uintptr(len(b)), Label: label}
}

// Overlaps reports whether the two ranges share any byte.
func (a Buf) Overlaps(b Buf) bool {
	return a.hi > b.lo && b.hi > a.lo
}
