package sim

import (
	"fmt"
	"hash/fnv"
	"math"
)

// The kinds of queue item, as Step.Kind gives them.
const (
	StepCall uint8 = iota // a callback (At, After)
	StepTask              // a task's resume
	StepCond              // a condition's broadcast (Cond.BroadcastAfter)
)

// Step is one executed queue item as the event digest folds it. Two runs with
// one digest (Env.Digest) executed one schedule: a moved time, a reordered tie
// or a swap of two resource creations moves it.
type Step struct {
	T    Time
	Seq  uint64
	Kind uint8
	ID   int32 // the task's num, or the cond's creation number; 0 for a callback
}

// observe is the switch of Observe.
var observe func(e *Env, s Step, target any)

// Observe sets the function every environment calls with each queue item it is
// about to execute and the *Task or *Cond the item targets (nil for a
// callback); nil turns it off. Set it only while no simulation runs.
func Observe(fn func(e *Env, s Step, target any)) { observe = fn }

// Digest returns the fold of every queue item executed so far: three
// multiply-xor steps an item, always on.
func (e *Env) Digest() uint64 { return e.digest }

func (e *Env) fold(s Step) {
	e.digest = mix(mix(mix(e.digest, math.Float64bits(s.T)), s.Seq), uint64(s.Kind)<<32|uint64(uint32(s.ID)))
}

func mix(h, x uint64) uint64 {
	h = (h ^ x) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// Pin is the one format of a determinism pin: a run's digest, then a hash of
// what the event stream cannot see (payload bytes, counters, fault tallies,
// failure and repair records, report text). A [][]byte part is hashed as its
// bytes, any other as its %+v.
func Pin(digest uint64, unseen ...any) string {
	h, nul := fnv.New64a(), []byte{0}
	for _, u := range unseen {
		if bs, ok := u.([][]byte); ok {
			for _, b := range bs {
				h.Write(b)
				h.Write(nul)
			}
		} else {
			fmt.Fprintf(h, "%+v", u)
		}
		h.Write(nul)
	}
	return fmt.Sprintf("%016x/%016x", digest, h.Sum64())
}
