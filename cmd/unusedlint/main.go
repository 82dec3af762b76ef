// Command unusedlint lists the declarations of this module that nothing outside
// _test.go files refers to: what a refactoring left behind, or what only tests
// still keep alive. It judges every unexported package-level declaration and
// method, and every exported one of a package under internal/, which nothing
// outside the module can call.
//
//	go run ./cmd/unusedlint            # from the module root
//	go run ./cmd/unusedlint -allow F   # another allowlist than cmd/unusedlint/allow.txt
//
// It type-checks every package under the module root from source (go/parser and
// go/types, the module's own packages by directory, the standard library
// through the "source" importer), so it needs no network and nothing installed.
// A module nested in the tree (bench/, whose path is its directory's) is loaded
// the same way, as callers only. A declaration is used when an identifier in a
// non-test file resolves to it, and a method also when an interface has one of
// its name, since a call through the interface resolves to that one: for an
// unexported method an interface of its own package, for an exported one any
// interface in the module, or error's Error, or fmt.Stringer's String.
//
// The allowlist holds one finding a line, "<import path>.<name> <reason>" with
// Type.method for a method; blank lines and lines starting with # are skipped.
// Exit status 1 on a finding the allowlist does not name or an entry that names
// no finding, 2 when the module or the allowlist does not load.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loader type-checks the module's packages from their directories and
// everything else through the source importer.
type loader struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*pkg // by import path
}

type pkg struct {
	types  *types.Package
	info   *types.Info
	files  []*ast.File     // the non-test files
	ifaces map[string]bool // the method names of the interfaces in files
	err    error
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	p := l.load(path)
	return p.types, p.err
}

// load parses and checks the non-test files of one of the module's packages,
// once.
func (l *loader) load(path string) *pkg {
	if p, ok := l.pkgs[path]; ok {
		return p
	}
	p := &pkg{info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		ifaces: map[string]bool{}}
	l.pkgs[path] = p
	dir := filepath.Join(l.root, strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/"))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		p.err = err
		return p
	}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			p.err = err
			return p
		}
		p.files = append(p.files, f)
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, name := range m.Names {
						p.ifaces[name.Name] = true
					}
				}
			}
			return true
		})
	}
	p.types, p.err = (&types.Config{Importer: l}).Check(path, l.fset, p.files, p.info)
	return p
}

// walk loads the package of every directory under dir and returns their import
// paths, and the directories of the modules nested in it, which it does not
// enter.
func (l *loader) walk(dir string) (paths, nested []string, err error) {
	err = filepath.WalkDir(dir, func(d string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if d != dir {
			// Hidden and underscore directories and testdata are not packages.
			if n := e.Name(); n[0] == '.' || n[0] == '_' || n == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
				nested = append(nested, d)
				return filepath.SkipDir
			}
		}
		rel, _ := filepath.Rel(l.root, d)
		path := l.module
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		p := l.load(path)
		if _, none := p.err.(*build.NoGoError); none || (p.err == nil && len(p.files) == 0) {
			return nil // no Go files here, or only tests
		}
		if p.err != nil {
			return fmt.Errorf("%s: %w", path, p.err)
		}
		paths = append(paths, path)
		return nil
	})
	return paths, nested, err
}

// unused returns the package's findings as "name" or "Type.method", with
// their positions. used holds what the non-test files refer to, ifaces the
// method names of every interface in the module; exported says whether the
// package's exported names are judged too.
func (p *pkg) unused(used map[types.Object]bool, ifaces map[string]bool, exported bool) map[string]token.Pos {
	found := map[string]token.Pos{}
	for id, obj := range p.info.Defs {
		if obj == nil || used[obj] || id.Name == "_" || token.IsExported(id.Name) && !exported {
			continue
		}
		name := id.Name
		switch o := obj.(type) {
		case *types.Func:
			if recv := o.Type().(*types.Signature).Recv(); recv != nil {
				if token.IsExported(name) && ifaces[name] || p.ifaces[name] {
					continue
				}
				t := recv.Type()
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				if named, ok := t.(*types.Named); ok {
					name = named.Obj().Name() + "." + name
				}
			} else if name == "init" || name == "main" {
				continue
			}
		case *types.Var:
			if o.IsField() || o.Parent() != p.types.Scope() {
				continue
			}
		case *types.Const, *types.TypeName:
			if obj.Parent() != p.types.Scope() {
				continue
			}
		default:
			continue
		}
		found[name] = id.Pos()
	}
	return found
}

func main() {
	allowPath := flag.String("allow", "cmd/unusedlint/allow.txt", "allowlist file")
	flag.Parse()
	os.Exit(run(".", *allowPath, os.Stdout, os.Stderr))
}

// run lints the module at root against the allowlist, prints the findings to
// stdout, and returns the exit status.
func run(root, allowPath string, stdout, stderr io.Writer) int {
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "unusedlint:", err)
		return 2
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return fatal(err)
	}
	module, err := moduleName(filepath.Join(root, "go.mod"))
	if err != nil {
		return fatal(err)
	}
	allowed, err := readAllow(allowPath)
	if err != nil {
		return fatal(err)
	}
	fset := token.NewFileSet()
	l := &loader{root: root, module: module, fset: fset,
		std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*pkg{}}
	paths, nested, err := l.walk(root)
	for _, dir := range nested {
		if err == nil {
			_, _, err = l.walk(dir)
		}
	}
	if err != nil {
		return fatal(err)
	}

	used := map[types.Object]bool{}
	ifaces := map[string]bool{"Error": true, "String": true}
	for _, p := range l.pkgs {
		for _, obj := range p.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			used[obj] = true
		}
		for name := range p.ifaces {
			ifaces[name] = true
		}
	}
	var lines []string
	for _, path := range paths {
		internal := strings.HasPrefix(path, module+"/internal/")
		for name, pos := range l.pkgs[path].unused(used, ifaces, internal) {
			id := path + "." + name
			if _, ok := allowed[id]; ok {
				allowed[id] = true
				continue
			}
			at := fset.Position(pos)
			file, _ := filepath.Rel(root, at.Filename)
			lines = append(lines, fmt.Sprintf("%s:%d: %s has no reference outside tests", file, at.Line, id))
		}
	}
	for id, matched := range allowed {
		if !matched {
			lines = append(lines, fmt.Sprintf("%s: %s is allowed but was not found: delete the entry", allowPath, id))
		}
	}
	sort.Strings(lines)
	for _, line := range lines {
		fmt.Fprintln(stdout, line)
	}
	if len(lines) > 0 {
		return 1
	}
	return 0
}

// moduleName reads the module path off a go.mod.
func moduleName(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("run unusedlint from the module root: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// readAllow reads the allowlist: identifier -> false, set when a finding
// matches it.
func readAllow(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allowed := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		id, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s is allowed without a reason", path, n, id)
		}
		allowed[id] = false
	}
	return allowed, sc.Err()
}
