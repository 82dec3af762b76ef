package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"srmcoll/internal/sim"
)

var stepKinds = [...]string{sim.StepCall: "call", sim.StepTask: "task", sim.StepCond: "cond"}

func checkDiverge(o *opts, args []string) error {
	if (o.stream == "") == (len(args) == 1) {
		return errors.New("want one of -record FILE and a FILE to compare with")
	}
	return checkRanks(o, args)
}

// stepSize is the bytes of one event in a stream file: its time's bits, its
// sequence number and kind<<32 | uint32(id), little-endian, the three words
// the digest folds.
const stepSize = 24

// diverge runs ranks's collective with every executed event, as the digest
// folds it, written to the -record file or compared with the FILE operand's
// as the run goes. A stream file is a header line naming the run, then
// stepSize bytes an event. At the first difference diverge prints both sides
// and what this run's tasks are blocked on.
func diverge(o *opts, args []string) error {
	head := fmt.Sprintf("srmbench diverge -op %s %s\n", o.op, args[0])
	run := func(observe func(*sim.Env, sim.Step, any)) error {
		sim.Observe(observe)
		defer sim.Observe(nil)
		return ranks(&opts{op: o.op, w: io.Discard}, args[:1])
	}
	i := 0 // events written or matched
	if o.stream != "" {
		f, err := os.Create(o.stream)
		if err != nil {
			return err
		}
		w := bufio.NewWriterSize(f, 1<<16)
		w.WriteString(head)
		var b [stepSize]byte
		err = run(func(_ *sim.Env, s sim.Step, _ any) {
			binary.LittleEndian.PutUint64(b[0:], math.Float64bits(s.T))
			binary.LittleEndian.PutUint64(b[8:], s.Seq)
			binary.LittleEndian.PutUint64(b[16:], uint64(s.Kind)<<32|uint64(uint32(s.ID)))
			w.Write(b[:])
			i++
		})
		if err = errors.Join(err, w.Flush(), f.Close()); err != nil {
			os.Remove(o.stream)
			return err
		}
		fmt.Fprintf(o.w, "recorded %d events to %s\n", i, o.stream)
		return nil
	}
	f, err := os.Open(args[1])
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	if got, _ := r.ReadSlice('\n'); string(got) != head {
		return fmt.Errorf("%s does not record %q", args[1], strings.TrimSpace(head))
	}
	var diff strings.Builder
	var bad error // the record's own fault, which ends the comparison
	// differs reads the record's next event and holds it to s, this run's (ok
	// false: the run ended), beginning the report if they differ.
	var b [stepSize]byte
	differs := func(s sim.Step, ok bool) bool {
		_, err := io.ReadFull(r, b[:])
		want, wok := stepOf(b[:]), err == nil
		if err == io.ErrUnexpectedEOF {
			bad = fmt.Errorf("%s is cut partway through event %d", args[1], i)
		} else if k := binary.LittleEndian.Uint32(b[20:]); wok && k >= uint32(len(stepKinds)) {
			bad = fmt.Errorf("%s: event %d has no kind %d", args[1], i, k)
		} else if err != io.EOF {
			bad = err
		}
		if bad != nil || wok == ok && (!ok || want == s) {
			return false
		}
		fmt.Fprintf(&diff, "first difference at event %d\n  record:   %s\n  this run: %s", i, stepLine(want, wok), stepLine(s, ok))
		return true
	}
	err = run(func(e *sim.Env, s sim.Step, target any) {
		if diff.Len() > 0 || bad != nil || !differs(s, true) {
			i++
			return
		}
		// Only the tasks on or as the event's actor are described: a task of
		// its name (a helper's is its node's, shared) or one parked on its
		// cond. The rest are counted.
		who, keep := "a callback", func(*sim.Task) bool { return false }
		switch x := target.(type) {
		case *sim.Task:
			who = x.Name()
			keep = func(t *sim.Task) bool { return t.HasName(who) }
		case *sim.Cond:
			who = x.ID()
			keep = func(t *sim.Task) bool { return t.WaitsOn(x) }
		}
		blocked, parked := e.BlockedWhere(keep)
		fmt.Fprintf(&diff, ", %s\n  %d tasks blocked; on or as %s:\n", who, parked, who)
		for _, b := range blocked {
			fmt.Fprintf(&diff, "    %s: waiting on %s (blocked since t=%.3f)\n", b.Name, b.Waiting, b.Since)
		}
	})
	if diff.Len() == 0 && bad == nil && differs(sim.Step{}, false) {
		diff.WriteString("\n")
	}
	switch {
	case bad != nil:
		return errors.Join(err, bad)
	case diff.Len() > 0:
		fmt.Fprint(o.w, diff.String())
		return errors.Join(err, errors.New("the runs diverge"))
	case err == nil:
		fmt.Fprintf(o.w, "no divergence: %d events match %s\n", i, args[1])
	}
	return err
}

// stepOf decodes an event of a stream file.
func stepOf(b []byte) sim.Step {
	return sim.Step{T: math.Float64frombits(binary.LittleEndian.Uint64(b[0:])), Seq: binary.LittleEndian.Uint64(b[8:]),
		Kind: b[20], ID: int32(binary.LittleEndian.Uint32(b[16:]))}
}

// stepLine renders an event of a stream, or "ended" past its last.
func stepLine(s sim.Step, ok bool) string {
	if !ok {
		return "ended"
	}
	return fmt.Sprintf("t=%.17g seq=%d %s %d", s.T, s.Seq, stepKinds[s.Kind], s.ID)
}
