package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testdata/mod plants one case each: an exported func of an internal package
// that only a test calls, one that only the nested bench module calls, and a
// method only an interface of another package reaches. Its allow.txt holds an
// entry that names nothing.
const mod = "testdata/mod"

func lint(t *testing.T, allow string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(mod, allow, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestFindings(t *testing.T) {
	code, out, errs := lint(t, filepath.Join(mod, "allow.txt"))
	if code != 1 || errs != "" {
		t.Fatalf("exit %d, stderr %q; want 1 and nothing", code, errs)
	}
	for _, want := range []string{
		"internal/lib/lib.go:5: example.com/lint/internal/lib.Unused has no reference outside tests",
		"example.com/lint/internal/lib.Gone is allowed but was not found: delete the entry",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	for _, name := range []string{"ForBench", "Square.Area", "NewSquare", "Square", "shape", "main"} {
		if strings.Contains(out, "."+name+" has") {
			t.Errorf("%s is reported, but it has a caller:\n%s", name, out)
		}
	}
	if n := strings.Count(out, "\n"); n != 2 {
		t.Errorf("%d findings, want 2:\n%s", n, out)
	}
}

func TestAllowed(t *testing.T) {
	allow := filepath.Join(t.TempDir(), "allow.txt")
	if err := os.WriteFile(allow, []byte("example.com/lint/internal/lib.Unused its test calls it\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out, errs := lint(t, allow); code != 0 || out != "" || errs != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 0 and nothing", code, out, errs)
	}
}

func TestEntryWithoutReason(t *testing.T) {
	allow := filepath.Join(t.TempDir(), "allow.txt")
	if err := os.WriteFile(allow, []byte("# header\nexample.com/lint/internal/lib.Unused\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errs := lint(t, allow)
	if code != 2 || out != "" || !strings.Contains(errs, "allow.txt:2: example.com/lint/internal/lib.Unused is allowed without a reason") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 2 and the line named", code, out, errs)
	}
}
