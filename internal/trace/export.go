package trace

// Chrome trace-event JSON export. The output loads in Perfetto and
// chrome://tracing. Scoped spans become "X" complete events on one
// thread (tid) per track; async network spans become "b"/"e" async event
// pairs keyed by their transaction group. Encoding uses only structs and
// pre-sorted slices so the bytes are deterministic for a given span list.

import (
	"encoding/json"
	"fmt"
)

// chromeEvent is one entry of the traceEvents array. Field order is the
// emission order; encoding/json keeps struct order, which keeps the bytes
// stable.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// ChromeJSON renders one or more traces as a single Chrome trace-event
// JSON document. Each trace becomes one process (pid = position in the
// argument list, process_name = Label); tracks become threads. Nil traces
// are skipped.
func ChromeJSON(traces ...*Trace) ([]byte, error) {
	var evs []chromeEvent
	for pid, t := range traces {
		if t == nil {
			continue
		}
		t.closeOpen()
		label := t.Label
		if label == "" {
			label = fmt.Sprintf("trace%d", pid)
		}
		evs = append(evs, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": label},
		})
		for id := range t.tracks {
			if !t.tracks[id].named {
				continue
			}
			evs = append(evs, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: id,
				Args: map[string]any{"name": t.TrackName(id)},
			})
		}
		for _, s := range t.spans {
			args := map[string]any{"class": s.Class.String()}
			if s.Bytes > 0 {
				args["bytes"] = s.Bytes
			}
			if s.Track >= 0 {
				d := s.Dur()
				evs = append(evs, chromeEvent{
					Name: s.Name, Cat: s.Class.String(), Ph: "X",
					Ts: s.Begin, Dur: &d, Pid: pid, Tid: s.Track, Args: args,
				})
				continue
			}
			// Async span: begin/end pair sharing the transaction group id.
			id := fmt.Sprintf("g%d", s.Group)
			evs = append(evs, chromeEvent{
				Name: s.Name, Cat: s.Class.String(), Ph: "b",
				Ts: s.Begin, Pid: pid, Tid: 0, ID: id, Args: args,
			}, chromeEvent{
				Name: s.Name, Cat: s.Class.String(), Ph: "e",
				Ts: s.End, Pid: pid, Tid: 0, ID: id,
			})
		}
	}
	return json.MarshalIndent(chromeFile{TraceEvents: evs}, "", " ")
}

// ChromeJSON renders this single trace; see the package-level ChromeJSON.
func (t *Trace) ChromeJSON() ([]byte, error) { return ChromeJSON(t) }
