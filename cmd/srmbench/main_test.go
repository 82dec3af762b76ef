package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runArgs(args ...string) (code int, stdout, stderr string) {
	var out, errs bytes.Buffer
	code = run(args, &out, &errs)
	return code, out.String(), errs.String()
}

// A bad argument exits 2 with a message naming it, before anything runs.
func TestBadArguments(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "no subcommand"},
		{[]string{"bogus"}, `unknown subcommand "bogus"`},
		{[]string{"fig", "13"}, `unknown name "13"`},
		{[]string{"fig"}, "missing NAME..."},
		{[]string{"ablation", "bogus"}, `unknown name "bogus"`},
		{[]string{"fig", "-j", "0", "9"}, "-j must be >= 1, got 0"},
		{[]string{"ranks", "-1"}, "flag provided but not defined: -1"},
		{[]string{"ranks", "0"}, `rank count "0"`},
		{[]string{"ranks", "-op", "scan", "64"}, `unknown -op "scan"`},
		{[]string{"tune", "-topo", "12x"}, `bad topology "12x"`},
		{[]string{"tune", "extra"}, `unexpected argument "extra"`},
		{[]string{"tree", "-kind", "hexagonal"}, `unknown kind "hexagonal"`},
		{[]string{"tree", "-root", "128"}, "root 128 out of range for 128 ranks"},
		{[]string{"trace"}, "missing FILE"},
		{[]string{"ranks", "64", "128"}, `unexpected argument "128"`},
		{[]string{"lat", "-quick"}, "flag provided but not defined: -quick"},
	} {
		if job, code := parse(tc.args, io.Discard, io.Discard); job != nil || code != 2 {
			t.Errorf("parse %q: job %v, code %d; want no job, code 2", tc.args, job != nil, code)
		}
		code, stdout, stderr := runArgs(tc.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("srmbench %q: exit %d, stdout %q, stderr %q; want exit 2, no output, a message with %q",
				tc.args, code, stdout, stderr, tc.want)
		}
	}
}

// tree and lat print byte for byte what the standalone tree-embedding,
// tree-broadcast and latency commands they replaced printed; testdata holds
// those commands' output, with the broadcast lines for each tree kind.
func TestToolsMatchGoldens(t *testing.T) {
	for golden, args := range map[string][]string{
		"tree_binomial.txt":  {"tree"},
		"tree_binary.txt":    {"tree", "-kind", "binary"},
		"tree_fibonacci.txt": {"tree", "-kind", "fibonacci"},
		"tree_flat.txt":      {"tree", "-kind", "flat", "-nodes", "8", "-tpn", "16", "-root", "0"},
		"lat.txt":            {"lat"},
		"lat_via.txt":        {"lat", "-via"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		if code, stdout, stderr := runArgs(args...); code != 0 || stdout != string(want) {
			t.Errorf("srmbench %q: exit %d, stderr %q, stdout\n%s\nwant testdata/%s:\n%s", args, code, stderr, stdout, golden, want)
		}
	}
}

// The two kinds beyond the paper's four embed and broadcast too.
func TestTreeNewKinds(t *testing.T) {
	for _, kind := range []string{"multilevel", "bine"} {
		code, stdout, stderr := runArgs("tree", "-kind", kind, "-root", "37")
		if code != 0 || !strings.HasPrefix(stdout, "128-processor "+kind+" tree") ||
			!strings.Contains(stdout, "4 KB SRM broadcast on this cluster") {
			t.Errorf("tree -kind %s: exit %d, stderr %q, stdout\n%s", kind, code, stderr, stdout)
		}
	}
}

func TestRanksBarrier(t *testing.T) {
	code, stdout, stderr := runArgs("ranks", "-op", "barrier", "1024")
	if code != 0 || !strings.HasPrefix(stdout, "ranks 1024 (128 nodes x 8 tasks) barrier: sim ") {
		t.Errorf("ranks -op barrier 1024: exit %d, stderr %q, stdout %q", code, stderr, stdout)
	}
}
