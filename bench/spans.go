package main

import (
	"encoding/json"
	"time"
)

// spans is the harness's own in-memory trace: one record per call into a
// layer's public functions, made from bench/ only (spans inside srmcoll
// are a later issue). A nil *spans records nothing, so untraced
// repetitions pay one nil check per cell.
type spans struct {
	t0   time.Time
	recs []span
}

type span struct {
	name       string
	parent     int // index into recs; -1 for a root
	start, end time.Duration
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span under parent and returns its id (-1 on a nil trace).
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	s.recs = append(s.recs, span{name: name, parent: parent, start: time.Since(s.t0), end: -1})
	return len(s.recs) - 1
}

// end closes span id; -1 (no span open) is accepted.
func (s *spans) end(id int) {
	if s == nil || id < 0 {
		return
	}
	s.recs[id].end = time.Since(s.t0)
}

// chromeEvent is one trace-event "X" (complete) or "M" (metadata) record,
// the subset cmd/tracelint accepts.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeJSON renders the spans as a Chrome trace-event document. Every
// span carries its id and its parent's id in args; the viewer nests them
// by time on one track.
func (s *spans) chromeJSON(process string) ([]byte, error) {
	evs := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": process}}}
	for id, r := range s.recs {
		dur := float64(r.end-r.start) / float64(time.Microsecond)
		evs = append(evs, chromeEvent{
			Name: r.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(r.start) / float64(time.Microsecond),
			Dur:  &dur,
			Args: map[string]any{"id": id, "parent": r.parent},
		})
	}
	return json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}
