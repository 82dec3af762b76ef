package trace

// Overlap accounting for non-blocking collectives: each request records an
// issue marker on the calling rank (ClassReqIssue), an execution span on
// its helper track (ClassReqOp) and zero or more Wait spans back on the
// calling rank (ClassReqWait), all linked by one async group id. From
// those the report splits each request's communication time into the part
// the caller sat blocked in Wait (exposed) and the part that ran behind
// the caller's own compute (hidden).

import "sort"

// ReqOverlap is the overlap report for one non-blocking request.
type ReqOverlap struct {
	Name    string  // op span name ("ibcast", "iallreduce", ...)
	Group   int     // async group linking the request's spans
	Track   int     // calling rank's track
	Bytes   int64   // payload bytes
	Issued  float64 // time the request was issued on the calling rank
	Start   float64 // time the op began executing on the helper
	End     float64 // time the op completed
	Exposed float64 // time the caller was blocked in Wait on this request
	Hidden  float64 // End - Issued - Exposed, clamped at 0
}

// OverlapReport reassembles the trace's request spans into per-request
// overlap accounting, ordered by issue time (ties: group id). Returns nil
// when the trace recorded no non-blocking requests.
func (t *Trace) OverlapReport() []ReqOverlap {
	if t == nil {
		return nil
	}
	t.closeOpen()
	idx := make(map[int]int)
	var out []ReqOverlap
	at := func(group int) *ReqOverlap {
		if i, ok := idx[group]; ok {
			return &out[i]
		}
		idx[group] = len(out)
		out = append(out, ReqOverlap{Group: group})
		return &out[len(out)-1]
	}
	for _, s := range t.spans {
		if s.Group < 0 {
			continue
		}
		switch s.Class {
		case ClassReqIssue:
			r := at(s.Group)
			r.Track = s.Track
			r.Issued = s.Begin
		case ClassReqOp:
			r := at(s.Group)
			r.Name = s.Name
			r.Bytes = s.Bytes
			r.Start = s.Begin
			r.End = s.End
		case ClassReqWait:
			at(s.Group).Exposed += s.Dur()
		}
	}
	if len(out) == 0 {
		return nil
	}
	for i := range out {
		if h := out[i].End - out[i].Issued - out[i].Exposed; h > 0 {
			out[i].Hidden = h
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Issued != out[b].Issued {
			return out[a].Issued < out[b].Issued
		}
		return out[a].Group < out[b].Group
	})
	return out
}
