package main

import (
	"errors"
	"fmt"
	"io"
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

// diverge runs ranks's collective with every executed event, as the digest
// folds it, written to the -record file or compared with the FILE operand's.
// A stream file is a header line naming the run, then a line an event: its
// time, sequence number, kind and id. At the first difference diverge prints
// both sides and what this run's tasks are blocked on.
func diverge(o *opts, args []string) error {
	head := fmt.Sprintf("srmbench diverge -op %s %s\n", o.op, args[0])
	run := func(observe func(*sim.Env, sim.Step, any)) error {
		sim.Observe(observe)
		defer sim.Observe(nil)
		return ranks(&opts{op: o.op, w: io.Discard}, args[:1])
	}
	i := 0 // events written or matched
	if o.stream != "" {
		var out strings.Builder
		out.WriteString(head)
		err := run(func(_ *sim.Env, s sim.Step, _ any) { out.WriteString(stepLine(s)); i++ })
		if err == nil {
			err = os.WriteFile(o.stream, []byte(out.String()), 0o644)
		}
		if err == nil {
			fmt.Fprintf(o.w, "recorded %d events to %s\n", i, o.stream)
		}
		return err
	}
	b, err := os.ReadFile(args[1])
	if err != nil {
		return err
	}
	rest, ok := strings.CutPrefix(string(b), head)
	if !ok {
		return fmt.Errorf("%s does not record %q", args[1], strings.TrimSpace(head))
	}
	rec := strings.SplitAfter(rest, "\n")
	rec = rec[:len(rec)-1] // what follows the last newline
	want := func() string {
		if i < len(rec) {
			return rec[i]
		}
		return "ended\n"
	}
	var diff strings.Builder
	err = run(func(e *sim.Env, s sim.Step, target any) {
		if diff.Len() > 0 || want() == stepLine(s) {
			i++
			return
		}
		who := "a callback"
		switch x := target.(type) {
		case *sim.Task:
			who = x.Name()
		case *sim.Cond:
			who = x.ID()
		}
		blocked := e.Blocked()
		fmt.Fprintf(&diff, "first difference at event %d\n  record:   %s  this run: %s, %s\n  %d tasks blocked; on or as %s:\n",
			i, want(), strings.TrimSpace(stepLine(s)), who, len(blocked), who)
		for _, b := range blocked {
			if b.Name == who || b.Resource == who {
				fmt.Fprintf(&diff, "    %s: waiting on %s (blocked since t=%.3f)\n", b.Name, b.Waiting, b.Since)
			}
		}
	})
	if diff.Len() == 0 && i < len(rec) {
		fmt.Fprintf(&diff, "first difference at event %d\n  record:   %s  this run: ended\n", i, want())
	}
	if diff.Len() == 0 {
		if err == nil {
			fmt.Fprintf(o.w, "no divergence: %d events match %s\n", i, args[1])
		}
		return err
	}
	fmt.Fprint(o.w, diff.String())
	return errors.Join(err, errors.New("the runs diverge"))
}

func stepLine(s sim.Step) string {
	return fmt.Sprintf("t=%.17g seq=%d %s %d\n", s.T, s.Seq, stepKinds[s.Kind], s.ID)
}
