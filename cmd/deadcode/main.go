// Command deadcode fails when the module declares a function that no
// binary links. It builds every main package of the module and of each
// module nested under it (bench/ here), plus a generated main that
// references every exported function and variable of the module's root
// package (the library facade), for linux/amd64 and darwin/arm64, so
// that files built only for arm64 or only off Linux are linked
// somewhere. Inlining is off (-gcflags=all=-l), so a function whose
// every call is inlined still appears as a symbol. It then reads each
// binary's text symbols with `go tool nm` and lists every function
// declared with a body in the module's non-test files (nested modules
// excluded) that no binary links and that the allowlist below does not
// name. It exits 1 when that list is not empty, or when an allowlist
// entry is stale: declared nowhere, or linked after all.
//
// Usage, from the module root:
//
//	go run ./cmd/deadcode
package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// allowlist names the functions no binary links that stay, each with
// the reason. A key is a function as report prints it, or an import
// path, which covers every function of that package.
var allowlist = map[string]string{
	"lossycorr/internal/field.(*Of).At":          "element accessor the tests of every package read fields with",
	"lossycorr/internal/field.(*Of).Set":         "element setter the tests of every package build fields with",
	"lossycorr/internal/field.(*Of).flatIndex":   "index arithmetic behind At and Set",
	"lossycorr/internal/field.(*Of).Clone":       "deep copy the tests of several packages take before mutating",
	"lossycorr/internal/field.(*Of).Window":      "copying window, the oracle the zero-copy window views are tested against",
	"lossycorr/internal/field.(*Of).TileOrigins": "tile enumeration the window-sweep tests of several packages walk",
	"lossycorr/internal/field.(*Of).Widen":       "exact float32-to-float64 widening, the oracle of the lane tests",
	"lossycorr/internal/field.FromData":          "wraps a test's literal samples as a field without a copy",
	"lossycorr/internal/fft.LiveBytes":           "pool gauge the variogram package's memory tests read",
	"lossycorr/internal/statdemo":                "registration-only demo kernel, imported by tests to prove a kernel plugs in without engine edits",
}

// targets are the platforms every root is built for: between them they
// take both sides of each amd64 and linux build constraint in the tree.
var targets = []struct{ goos, goarch string }{
	{"linux", "amd64"},
	{"darwin", "arm64"},
}

// exportsDir is where the generated facade main is placed, through a
// build overlay, inside the module root; nothing is written there.
const exportsDir = "deadcode_exports_main"

func main() {
	report, err := run(".", allowlist)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	if len(report) > 0 {
		for _, line := range report {
			fmt.Println(line)
		}
		os.Exit(1)
	}
}

// fn is one function declared with a body in a non-test file.
type fn struct {
	key   string // import path, then receiver and name as nm prints them
	pkg   string // import path
	pos   string // file:line, relative to the module root
	lines int
}

// module is one go.mod tree: its path, its root directory and the
// import paths of its main packages.
type module struct {
	path, dir string
	mains     map[string]bool
}

// run checks the module at root against allow and returns the report:
// one line per unreached function, then one per stale allowlist entry.
func run(root string, allow map[string]string) ([]string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mods, err := findModules(root)
	if err != nil {
		return nil, err
	}
	decls, pkgs, err := declarations(mods)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "deadcode")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	mod := mods[0]
	overlay, err := exportsOverlay(tmp, mod, pkgs)
	if err != nil {
		return nil, err
	}
	linked := map[string]bool{}
	for _, t := range targets {
		for j, m := range mods {
			if len(m.mains) == 0 {
				continue
			}
			out := filepath.Join(tmp, fmt.Sprint(t.goarch, j)) + string(filepath.Separator)
			args := []string{"build", "-gcflags=all=-l", "-o", out}
			if m == mod && overlay != "" {
				args = append(args, "-overlay", overlay)
			}
			for p := range m.mains {
				args = append(args, p)
			}
			cmd := exec.Command("go", args...)
			cmd.Dir = m.dir
			cmd.Env = append(os.Environ(), "GOOS="+t.goos, "GOARCH="+t.goarch, "CGO_ENABLED=0", "GOFLAGS=")
			if b, err := cmd.CombinedOutput(); err != nil {
				return nil, fmt.Errorf("build %s for %s/%s: %v\n%s", m.path, t.goos, t.goarch, err, b)
			}
			for p := range m.mains {
				if err := symbols(filepath.Join(out, path.Base(p)), p, linked); err != nil {
					return nil, err
				}
			}
		}
	}
	return compare(decls, linked, allow), nil
}

// compare lists, sorted, every declaration neither linked nor allowed,
// then every allowlist entry that no unreached declaration matches.
func compare(decls []fn, linked map[string]bool, allow map[string]string) []string {
	var report, stale []string
	used := map[string]bool{}
	for _, d := range decls {
		if linked[d.key] {
			continue
		}
		if _, ok := allow[d.key]; ok {
			used[d.key] = true
		} else if _, ok := allow[d.pkg]; ok {
			used[d.pkg] = true
		} else {
			report = append(report, fmt.Sprintf("%s: %s (%d lines) is linked by no binary", d.pos, d.key, d.lines))
		}
	}
	for k := range allow {
		if !used[k] {
			stale = append(stale, fmt.Sprintf("allowlist: %s is linked or no longer declared; delete its entry", k))
		}
	}
	sort.Strings(report)
	sort.Strings(stale)
	return append(report, stale...)
}

// findModules returns the module at root, then every module nested
// under it. Nested modules are roots only: their own functions are not
// checked.
func findModules(root string) ([]*module, error) {
	var mods []*module
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		if d.IsDir() || d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
				mods = append(mods, &module{path: strings.Trim(strings.TrimSpace(rest), `"`), dir: filepath.Dir(p), mains: map[string]bool{}})
				return nil
			}
		}
		return fmt.Errorf("%s: no module line", p)
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(mods, func(i, j int) bool { return len(mods[i].dir) < len(mods[j].dir) })
	if len(mods) == 0 || mods[0].dir != root {
		return nil, fmt.Errorf("%s: no go.mod", root)
	}
	return mods, nil
}

func skipDir(name string) bool {
	return name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// declarations parses the non-test Go files that at least one target
// builds. It records every module's main packages and returns the
// first module's function declarations and its files by import path.
func declarations(mods []*module) ([]fn, map[string][]*ast.File, error) {
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{}
	var decls []fn
	for i, m := range mods {
		mode := parser.SkipObjectResolution
		if i > 0 {
			mode = parser.PackageClauseOnly
		}
		err := filepath.WalkDir(m.dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil || p == m.dir {
				return err
			}
			if d.IsDir() {
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil || skipDir(d.Name()) {
					return filepath.SkipDir
				}
				return nil
			}
			dir, name := filepath.Split(p)
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || !built(dir, name) {
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, mode)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(m.dir, filepath.Dir(p))
			if err != nil {
				return err
			}
			ip := path.Join(m.path, filepath.ToSlash(rel))
			if f.Name.Name == "main" {
				m.mains[ip] = true
			}
			if i > 0 {
				return nil
			}
			pkgs[ip] = append(pkgs[ip], f)
			relFile, _ := filepath.Rel(m.dir, p)
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if k, ok := funcKey(ip, f.Name.Name, fd); ok {
					start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
					decls = append(decls, fn{key: k, pkg: ip, pos: fmt.Sprintf("%s:%d", filepath.ToSlash(relFile), start.Line), lines: end.Line - start.Line + 1})
				}
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return decls, pkgs, nil
}

// built reports whether any target compiles the file.
func built(dir, name string) bool {
	for _, t := range targets {
		ctx := build.Default
		ctx.GOOS, ctx.GOARCH, ctx.CgoEnabled = t.goos, t.goarch, false
		if ok, err := ctx.MatchFile(dir, name); err == nil && ok {
			return true
		}
	}
	return false
}

// funcKey names a declaration the way normalize names its symbol:
// pkg.F, pkg.T.M or pkg.(*T).M, type parameters dropped. Functions
// without a body, init, main.main and blank functions have none.
func funcKey(ip, pkgName string, fd *ast.FuncDecl) (string, bool) {
	name := fd.Name.Name
	if fd.Body == nil || name == "_" || (fd.Recv == nil && (name == "init" || (pkgName == "main" && name == "main"))) {
		return "", false
	}
	if fd.Recv == nil {
		return ip + "." + name, true
	}
	t, ptr := fd.Recv.List[0].Type, false
	if s, ok := t.(*ast.StarExpr); ok {
		t, ptr = s.X, true
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	recv := t.(*ast.Ident).Name
	if ptr {
		recv = "(*" + recv + ")"
	}
	return ip + "." + recv + "." + name, true
}

// exportsOverlay writes a main package that references every exported
// function and variable of the module's root package, each generic
// function once per combination of its constraints' listed types, and
// returns a build overlay that places it at exportsDir. It returns ""
// when the root package is missing or is itself a main package.
func exportsOverlay(tmp string, mod *module, pkgs map[string][]*ast.File) (string, error) {
	files := pkgs[mod.path]
	if len(files) == 0 || files[0].Name.Name == "main" {
		return "", nil
	}
	dir := filepath.Join(mod.dir, exportsDir)
	if _, err := os.Stat(dir); err == nil {
		return "", fmt.Errorf("%s exists; the generated main needs its name", dir)
	}
	var refs []string
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil || !d.Name.IsExported() {
					continue
				}
				args, err := instances(d.Type.TypeParams, mod.path, f, pkgs)
				if err != nil {
					return "", fmt.Errorf("%s: %v", d.Name.Name, err)
				}
				for _, a := range args {
					refs = append(refs, "root."+d.Name.Name+a)
				}
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					continue
				}
				for _, s := range d.Specs {
					for _, n := range s.(*ast.ValueSpec).Names {
						if n.IsExported() {
							refs = append(refs, "&root."+n.Name)
						}
					}
				}
			}
		}
	}
	src := fmt.Sprintf("package main\n\nimport root %q\n\nvar roots = []any{\n\t%s,\n}\n\nfunc main() { println(len(roots)) }\n",
		mod.path, strings.Join(refs, ",\n\t"))
	mainFile := filepath.Join(tmp, "exports.go")
	if err := os.WriteFile(mainFile, []byte(src), 0o644); err != nil {
		return "", err
	}
	overlay := filepath.Join(tmp, "overlay.json")
	j := fmt.Sprintf(`{"Replace":{%q:%q}}`, filepath.Join(dir, "main.go"), mainFile)
	if err := os.WriteFile(overlay, []byte(j), 0o644); err != nil {
		return "", err
	}
	mod.mains[path.Join(mod.path, exportsDir)] = true
	return overlay, nil
}

// instances returns the type-argument lists, such as "[float32]", that
// instantiate a function with the given type parameters: every
// combination of the types its constraints list. A function without
// type parameters has the one empty list.
func instances(tps *ast.FieldList, ip string, f *ast.File, pkgs map[string][]*ast.File) ([]string, error) {
	if tps == nil {
		return []string{""}, nil
	}
	combos := [][]string{nil}
	for _, field := range tps.List {
		ts, err := terms(field.Type, ip, f, pkgs)
		if err != nil {
			return nil, err
		}
		for range field.Names {
			var next [][]string
			for _, c := range combos {
				for _, t := range ts {
					next = append(next, append(append([]string(nil), c...), t))
				}
			}
			combos = next
		}
	}
	out := make([]string, len(combos))
	for i, c := range combos {
		out[i] = "[" + strings.Join(c, ", ") + "]"
	}
	return out, nil
}

// terms resolves a constraint, through named and aliased types of the
// module, to the predeclared types its one union lists.
func terms(e ast.Expr, ip string, f *ast.File, pkgs map[string][]*ast.File) ([]string, error) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return terms(x.X, ip, f, pkgs)
	case *ast.UnaryExpr: // ~T
		return terms(x.X, ip, f, pkgs)
	case *ast.BinaryExpr: // A | B
		a, err := terms(x.X, ip, f, pkgs)
		if err != nil {
			return nil, err
		}
		b, err := terms(x.Y, ip, f, pkgs)
		return append(a, b...), err
	case *ast.InterfaceType:
		if len(x.Methods.List) != 1 || len(x.Methods.List[0].Names) != 0 {
			return nil, errors.New("constraint is not a single union of types")
		}
		return terms(x.Methods.List[0].Type, ip, f, pkgs)
	case *ast.Ident:
		for _, g := range pkgs[ip] {
			for _, decl := range g.Decls {
				if d, ok := decl.(*ast.GenDecl); ok && d.Tok == token.TYPE {
					for _, s := range d.Specs {
						if ts := s.(*ast.TypeSpec); ts.Name.Name == x.Name {
							return terms(ts.Type, ip, g, pkgs)
						}
					}
				}
			}
		}
		return []string{x.Name}, nil // predeclared
	case *ast.SelectorExpr:
		pkg, ok := x.X.(*ast.Ident)
		if ok {
			for _, im := range f.Imports {
				p := strings.Trim(im.Path.Value, `"`)
				if (im.Name != nil && im.Name.Name == pkg.Name) || (im.Name == nil && path.Base(p) == pkg.Name) {
					return terms(x.Sel, p, nil, pkgs)
				}
			}
		}
	}
	return nil, fmt.Errorf("cannot list the types of constraint %T", e)
}

// symbols adds the normalized name of every text symbol of the binary
// to linked. mainPath is the import path of the binary's main package.
func symbols(bin, mainPath string, linked map[string]bool) error {
	out, err := exec.Command("go", "tool", "nm", bin).Output()
	if err != nil {
		return fmt.Errorf("go tool nm %s: %v", bin, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		// address, type, then the name, which may hold spaces
		_, rest, _ := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		typ, name, _ := strings.Cut(strings.TrimSpace(rest), " ")
		if typ == "T" || typ == "t" {
			linked[normalize(strings.TrimSpace(name), mainPath)] = true
		}
	}
	return sc.Err()
}

// normalize maps a linked symbol to the declaration it comes from: it
// drops instantiation brackets, names package main by its import path
// and cuts closure, wrapper and range-body suffixes.
func normalize(sym, mainPath string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := b.String()
	if rest, ok := strings.CutPrefix(s, "main."); ok {
		s = mainPath + "." + rest
	}
	// The package path ends at the first dot after its last slash.
	slash := strings.LastIndex(s, "/") + 1
	dot := strings.Index(s[slash:], ".")
	if dot < 0 {
		return s
	}
	pkg, parts := s[:slash+dot], strings.Split(s[slash+dot+1:], ".")
	for i, p := range parts {
		p, _, _ = strings.Cut(p, "-") // F-fm, F-range1
		if closure(p) {
			parts = parts[:i]
			break
		}
		parts[i] = p
	}
	return pkg + "." + strings.Join(parts, ".")
}

// closure reports whether a symbol element names a function literal or
// a compiler wrapper (func1, gowrap2, deferwrap1, or a nested literal's
// bare number) rather than a declared function.
func closure(p string) bool {
	for _, prefix := range []string{"func", "gowrap", "deferwrap", ""} {
		if n, ok := strings.CutPrefix(p, prefix); ok && n != "" && strings.Trim(n, "0123456789") == "" {
			return true
		}
	}
	return false
}
