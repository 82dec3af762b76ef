package main

import (
	"bytes"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// root is the module root, seen from this package's directory.
var root = filepath.Join("..", "..")

// docs are the files whose command lines the tests below hold to the code: the
// user docs, the verify notes and CI.
var docs = []string{"README.md", "EXPERIMENTS.md", "DESIGN.md",
	".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"}

func readDoc(t *testing.T, doc string) string {
	t.Helper()
	text, err := os.ReadFile(filepath.Join(root, doc))
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
}

// commandLine finds a srmbench invocation: "go run ./cmd/srmbench" up to a
// comment, pipe or redirection, or a `srmbench ...` code span.
var commandLine = regexp.MustCompile("go run \\./cmd/srmbench([^#|;&>`\\n]*)|`srmbench ([^`]+)`")

// Every srmbench command line in the docs, the verify notes and CI parses:
// they cannot drift from the CLI. Nothing is run.
func TestDocsParse(t *testing.T) {
	for _, doc := range docs {
		found := commandLine.FindAllStringSubmatch(readDoc(t, doc), -1)
		if len(found) == 0 {
			t.Errorf("%s: no srmbench command lines found", doc)
		}
		for _, m := range found {
			args := strings.Fields(m[1] + m[2])
			var errs bytes.Buffer
			if _, code := parse(args, io.Discard, &errs); code != 0 {
				problem, _, _ := strings.Cut(errs.String(), "\n")
				t.Errorf("%s: srmbench %s: exit %d: %s", doc, strings.Join(args, " "), code, problem)
			}
		}
	}
}

// goTest finds a `go test` invocation up to a comment, pipe, separator,
// redirection or the end of a code span outside quotes; shellWord splits it
// into arguments.
var (
	goTest    = regexp.MustCompile("go test((?:'[^'\\n]*'|\"[^\"\\n]*\"|[^#|;&>`'\"\\n])*)")
	shellWord = regexp.MustCompile(`'[^']*'|"[^"]*"|\S+`)
	testFunc  = regexp.MustCompile(`(?m)^func ((?:Test|Example|Fuzz)\w*)\(`)
)

// valueFlags are the go test flags the docs use that take a separate value.
var valueFlags = []string{"-count", "-fuzz", "-fuzztime", "-bench", "-benchtime", "-timeout", "-cpu", "-parallel", "-p"}

// goTestArgs returns the -run pattern of a go test argument string and the
// packages it names, relative to the module root ("." when none is named).
func goTestArgs(args string) (pattern string, pkgs []string) {
	words := shellWord.FindAllString(args, -1)
	for i := 0; i < len(words); i++ {
		w := strings.Trim(words[i], `'"`)
		switch {
		case w == "-run" && i+1 < len(words):
			i++
			pattern = strings.Trim(words[i], `'"`)
		case strings.HasPrefix(w, "-run="):
			pattern = strings.TrimPrefix(w, "-run=")
		case slices.Contains(valueFlags, w):
			i++
		case strings.HasPrefix(w, "./") || w == ".":
			pkgs = append(pkgs, path.Clean(w))
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	return pattern, pkgs
}

// packageDirs returns the module's package directories, slash-separated and
// relative to the root, with the names of the tests, examples and fuzz targets
// of each. A nested module (bench/) is not part of ./... and is left out.
func packageDirs(t *testing.T) map[string][]string {
	t.Helper()
	dirs := map[string][]string{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		dir := path.Dir(rel)
		if _, ok := dirs[dir]; !ok {
			dirs[dir] = nil
		}
		if strings.HasSuffix(p, "_test.go") {
			src, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				dirs[dir] = append(dirs[dir], m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// section returns the part of text from the line that starts with heading to
// the next heading of the same level.
func section(text, heading string) string {
	_, rest, ok := strings.Cut(text, "\n"+heading)
	if !ok {
		return ""
	}
	level := heading[:strings.IndexByte(heading, ' ')+1]
	body, _, _ := strings.Cut(rest, "\n"+level)
	return body
}

// The docs name only what exists. No doc runs a program under examples/ (the
// examples are Example functions of the root package); every alternative of a
// `go test -run` pattern names a test, example or fuzz target in a package the
// line runs; and every package under internal/ and cmd/ has its line in
// README's Architecture tree and in DESIGN §3.
func TestDocsNameWhatExists(t *testing.T) {
	dirs := packageDirs(t)
	for _, doc := range docs {
		text := readDoc(t, doc)
		if strings.Contains(text, "go run ./examples/") {
			t.Errorf("%s: runs a program under examples/", doc)
		}
		for _, m := range goTest.FindAllStringSubmatch(text, -1) {
			line := "go test " + strings.TrimSpace(m[1])
			pattern, pkgs := goTestArgs(m[1])
			top, _, _ := strings.Cut(pattern, "/")
			if re, err := regexp.Compile(top); top == "" || err == nil && re.MatchString("") {
				continue // no -run, or one that selects nothing or everything
			}
			var names []string
			for _, pkg := range pkgs {
				for dir, funcs := range dirs {
					if dir == pkg || pkg == "..." || strings.HasSuffix(pkg, "/...") && strings.HasPrefix(dir+"/", strings.TrimSuffix(pkg, "...")) {
						names = append(names, funcs...)
					}
				}
				if _, ok := dirs[pkg]; !ok && !strings.HasSuffix(pkg, "...") {
					t.Errorf("%s: %s: no package %s", doc, line, pkg)
				}
			}
			alts := []string{top}
			if !strings.ContainsAny(top, "()") {
				alts = strings.Split(top, "|")
			}
			for _, alt := range alts {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: %s: %v", doc, line, err)
					continue
				}
				if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("%s: %s: %q names no test, example or fuzz target in %v", doc, line, alt, pkgs)
				}
			}
		}
	}
	tree := section(readDoc(t, "README.md"), "## Architecture")
	inventory := section(readDoc(t, "DESIGN.md"), "## 3. ")
	for dir := range dirs {
		if !strings.HasPrefix(dir, "internal/") && !strings.HasPrefix(dir, "cmd/") {
			continue
		}
		named := regexp.MustCompile(regexp.QuoteMeta(dir) + `\b`)
		if !named.MatchString(tree) {
			t.Errorf("README.md: the Architecture tree lacks %s", dir)
		}
		if !named.MatchString(inventory) {
			t.Errorf("DESIGN.md: §3 lacks %s", dir)
		}
	}
}
