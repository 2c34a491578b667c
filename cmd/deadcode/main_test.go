package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// testModule is a module with one binary and a facade root package:
// lib.Unused and (*Box).Drop are linked by no binary (a test calls
// Unused, which does not count), armOnly only by the arm64 build, Sum
// and Box's other methods only as instantiations, and Max, Exported and
// FromFacade only through the generated main of the facade.
var testModule = map[string]string{
	"go.mod": "module deadcodetest\n\ngo 1.24\n",
	"root.go": `package deadcodetest

import "deadcodetest/lib"

type Number interface{ ~int | ~float64 }

func Max[T Number](a, b T) T {
	if a > b {
		return a
	}
	return b
}

func Exported() int { return lib.FromFacade() }
`,
	"cmd/app/main.go": `package main

import "deadcodetest/lib"

func main() {
	var b lib.Box[string]
	b.Put("x")
	println(lib.Sum([]int{1, 2}), lib.Arch(), b.Get(), lib.Used())
}
`,
	"lib/lib.go": `package lib

func Used() int       { return 1 }
func Unused() int     { return 2 }
func Kept() int       { return 3 }
func FromFacade() int { return 4 }
func armOnly() int    { return 5 }

func Sum[T int | float64](xs []T) T {
	var s T
	for _, x := range xs {
		s += x
	}
	return s
}

type Box[T any] struct{ v T }

func (b *Box[T]) Put(v T) { b.v = v }
func (b Box[T]) Get() T   { return b.v }
func (b *Box[T]) Drop()   { var zero T; b.v = zero }
`,
	"lib/arch_arm64.go": "package lib\n\nfunc Arch() int { return armOnly() }\n",
	"lib/arch_other.go": "//go:build !arm64\n\npackage lib\n\nfunc Arch() int { return 0 }\n",
	"lib/lib_test.go":   "package lib\n\nimport \"testing\"\n\nfunc TestUnused(t *testing.T) { Unused() }\n",
}

func TestRunReportsUnreachedAndStale(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a module for two targets")
	}
	dir := t.TempDir()
	for name, src := range testModule {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	allow := map[string]string{
		"deadcodetest/lib.Kept": "unreached and allowed",
		"deadcodetest/lib.Used": "stale: linked",
		"deadcodetest/lib.Gone": "stale: not declared",
	}
	got, err := run(dir, allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib/lib.go:21: deadcodetest/lib.(*Box).Drop (1 lines) is linked by no binary",
		"lib/lib.go:4: deadcodetest/lib.Unused (1 lines) is linked by no binary",
		"allowlist: deadcodetest/lib.Gone is linked or no longer declared; delete its entry",
		"allowlist: deadcodetest/lib.Used is linked or no longer declared; delete its entry",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("report:\n%q\nwant:\n%q", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, exportsDir)); !os.IsNotExist(err) {
		t.Fatalf("the generated main was written into the module: %v", err)
	}
}

func TestNormalize(t *testing.T) {
	for _, c := range []struct{ sym, want string }{
		{"lossycorr/internal/field.(*Of[go.shape.float64]).At", "lossycorr/internal/field.(*Of).At"},
		{"lossycorr/internal/x.F[go.shape.struct { A int; B []string }].func1.2", "lossycorr/internal/x.F"},
		{"lossycorr/internal/x.T.M-fm", "lossycorr/internal/x.T.M"},
		{"lossycorr/internal/x.walk-range1", "lossycorr/internal/x.walk"},
		{"lossycorr/internal/x.(*S).run.gowrap1", "lossycorr/internal/x.(*S).run"},
		{"main.helper.deferwrap1", "lossycorr/cmd/tool.helper"},
		{"example.com/m/v2.F", "example.com/m/v2.F"},
	} {
		if got := normalize(c.sym, "lossycorr/cmd/tool"); got != c.want {
			t.Errorf("normalize(%q) = %q, want %q", c.sym, got, c.want)
		}
	}
}
