// Command unusedlint lists the unexported package-level declarations and
// methods of this module that nothing outside _test.go files refers to: what a
// refactoring left behind, or what only tests still keep alive.
//
//	go run ./cmd/unusedlint            # from the module root
//	go run ./cmd/unusedlint -allow F   # another allowlist than cmd/unusedlint/allow.txt
//
// It type-checks every package under the module root from source (go/parser and
// go/types, the module's own packages by directory, the standard library
// through the "source" importer), so it needs no network and nothing installed.
// An unexported name is visible in its package only, so each package is judged
// by its own non-test files: a declaration is used when an identifier there
// resolves to it, and a method also when an interface written in the package
// has one of its name, since a call through the interface resolves to that one.
//
// The allowlist holds one finding a line, "<import path>.<name> <reason>" with
// Type.method for a method; blank lines and lines starting with # are skipped.
// Exit status 1 on a finding the allowlist does not name or an entry that names
// no finding, 2 when the module does not load.
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
	types *types.Package
	info  *types.Info
	files []*ast.File // the non-test files
	err   error
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
	p := &pkg{info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
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
	}
	p.types, p.err = (&types.Config{Importer: l}).Check(path, l.fset, p.files, p.info)
	return p
}

// unused returns the package's findings as "name" or "Type.method", with
// their positions.
func (p *pkg) unused() map[string]token.Pos {
	used := map[types.Object]bool{}
	for _, obj := range p.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		used[obj] = true
	}
	// A method called through an interface resolves to the interface's.
	viaInterface := map[string]bool{}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, name := range m.Names {
						viaInterface[name.Name] = true
					}
				}
			}
			return true
		})
	}
	found := map[string]token.Pos{}
	for id, obj := range p.info.Defs {
		if obj == nil || used[obj] || token.IsExported(id.Name) || id.Name == "_" {
			continue
		}
		name := id.Name
		switch o := obj.(type) {
		case *types.Func:
			if recv := o.Type().(*types.Signature).Recv(); recv != nil {
				if viaInterface[name] {
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
	root, err := filepath.Abs(".")
	if err != nil {
		fatal(err)
	}
	module, err := moduleName(filepath.Join(root, "go.mod"))
	if err != nil {
		fatal(err)
	}
	allowed, err := readAllow(*allowPath)
	if err != nil {
		fatal(err)
	}
	fset := token.NewFileSet()
	l := &loader{root: root, module: module, fset: fset,
		std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*pkg{}}

	var lines []string
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root {
			// Hidden and underscore directories and testdata are not packages,
			// and a directory with a go.mod is another module (bench/).
			if n := d.Name(); n[0] == '.' || n[0] == '_' || n == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		rel, _ := filepath.Rel(root, dir)
		path := module
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
		for name, pos := range p.unused() {
			id := path + "." + name
			if _, ok := allowed[id]; ok {
				allowed[id] = true
				continue
			}
			at := fset.Position(pos)
			file, _ := filepath.Rel(root, at.Filename)
			lines = append(lines, fmt.Sprintf("%s:%d: %s has no reference outside tests", file, at.Line, id))
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
	for id, matched := range allowed {
		if !matched {
			lines = append(lines, fmt.Sprintf("%s: %s is allowed but was not found: delete the entry", *allowPath, id))
		}
	}
	sort.Strings(lines)
	for _, line := range lines {
		fmt.Println(line)
	}
	if len(lines) > 0 {
		os.Exit(1)
	}
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "unusedlint:", err)
	os.Exit(2)
}
