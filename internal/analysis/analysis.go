// Package analysis is a from-scratch static-analysis framework for
// this repository, built only on the standard library's go/parser,
// go/ast and go/types (the repo is stdlib-only by design — no
// golang.org/x/tools). It exists to *enforce* the determinism and
// safety contracts every experiment table rests on: all randomness
// flows through an injected *rand.Rand, map iteration order never
// leaks into results, balance math never compares floats for
// equality, CSR index narrowing is bounds-checked, and contexts are
// threaded rather than re-rooted.
//
// The framework loads the module's packages from source (see load.go),
// typechecks them, and runs a suite of project-specific checks over
// the typed ASTs. Diagnostics can be suppressed with a mandatory
// reason:
//
//	//mllint:ignore <check> <reason...>
//
// placed on the offending line or on the line directly above it. An
// ignore directive without a reason is itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: position, the check that fired, a
// one-line message and a one-line fix hint. Suppressed findings (an
// //mllint:ignore directive with a reason matched them) are kept and
// marked rather than dropped, so tooling can audit what the
// directives hide; Active filters them out for gating.
type Diagnostic struct {
	Pos        token.Position
	Check      string
	Message    string
	Hint       string
	Suppressed bool
}

// String renders the diagnostic in the conventional
// file:line:col: check: message (fix: hint) form.
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
	if d.Hint != "" {
		s += " (fix: " + d.Hint + ")"
	}
	return s
}

// Pass hands one typechecked package to a check. Checks report
// through Report; suppression and sorting happen in the runner.
type Pass struct {
	Path  string // import path of the package under analysis
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	diags []Diagnostic
}

// Report records a finding at node n.
func (p *Pass) Report(n ast.Node, check, message, hint string) {
	p.ReportPos(n.Pos(), check, message, hint)
}

// ReportPos records a finding at a bare position — for checks whose
// evidence is a dataflow fact (e.g. "lock still held at exit") rather
// than a node in hand.
func (p *Pass) ReportPos(pos token.Pos, check, message, hint string) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   check,
		Message: message,
		Hint:    hint,
	})
}

// Check is one analysis pass.
type Check interface {
	// Name is the identifier used in diagnostics and ignore
	// directives.
	Name() string
	// Doc is a one-line description for -list output.
	Doc() string
	// Run inspects the package and reports findings on pass.
	Run(pass *Pass)
}

// AllChecks returns the full suite in a fixed order.
func AllChecks() []Check {
	return []Check{
		NondetRand{},
		MapOrder{},
		FloatEq{},
		UncheckedNarrow{},
		CtxThread{},
		FaultSite{},
		TelemetryThread{},
		WorkspaceRetain{},
		GoroutineCapture{},
		LockBalance{},
		WaitGroupDiscipline{},
		ChanClose{},
		ParPurity{},
		NumCPUPool{},
	}
}

// deterministicPkgs are the packages whose output must be a pure
// function of their input: the algorithm packages (of (input, seed) —
// map-iteration order must not leak into any ordered result they
// produce, and goroutine-reachable code must stay pure) and the
// analysis framework itself (diagnostics must be byte-stable across
// runs, so the analyzer is held to its own ordering contract).
var deterministicPkgs = []string{
	"internal/coarsen",
	"internal/fm",
	"internal/kway",
	"internal/gainbucket",
	"internal/core",
	"internal/hypergraph",
	"internal/analysis",
	"internal/analysis/cfg",
	"internal/journal",
}

// checksFor selects which checks apply to the package at importPath.
// The scope rules implement ISSUE-level policy:
//
//   - nondet-rand, ctx-thread: everything under internal/ (library
//     code; cmd/ and examples/ may use ambient randomness and root
//     contexts).
//   - float-eq: internal/ plus the root package (balance/tolerance
//     options live there).
//   - nondet-maporder: the deterministic algorithm packages.
//   - unchecked-narrow: the CSR/builder package internal/hypergraph.
//   - faultsite: every package — the registry rules fire in
//     internal/faultinject, the consumer rules everywhere else
//     (including cmd/ and examples/, which must not reach for site
//     constants at all).
//   - telemetry-thread: every package — the no-global-collector rule
//     applies universally; the no-telemetry.New rule fires only in
//     the deterministic pipeline packages (scoped inside the check).
//   - workspace-retain: every package — reusable scratch workspaces
//     must never be retained in package-level variables, anywhere.
//   - goroutine-capture, lock-balance, waitgroup-discipline,
//     chan-close: every package — racy captures, leaked locks,
//     miscounted WaitGroups and double closes are wrong wherever
//     they appear (cmd/ and examples/ included).
//   - par-purity: the deterministic packages — the multi-start
//     supervisor runs pipeline attempts on goroutines, so everything a
//     goroutine there can reach must already be pure. The analysis packages are in the
//     deterministic set too (self-analysis): the linter's own output
//     ordering is a determinism contract.
//   - numcpu-pool: every package — worker pools must size themselves
//     from core.DefaultWorkers() (GOMAXPROCS-aware), never from
//     runtime.NumCPU directly.
func checksFor(modulePath, importPath string) []Check {
	internal := strings.Contains(importPath, "/internal/") ||
		strings.HasPrefix(importPath, "internal/")
	root := importPath == modulePath
	det := false
	for _, d := range deterministicPkgs {
		if strings.HasSuffix(importPath, d) {
			det = true
			break
		}
	}
	var out []Check
	for _, c := range AllChecks() {
		switch c.(type) {
		case NondetRand, CtxThread:
			if internal {
				out = append(out, c)
			}
		case FloatEq:
			if internal || root {
				out = append(out, c)
			}
		case MapOrder:
			if det {
				out = append(out, c)
			}
		case UncheckedNarrow:
			if strings.HasSuffix(importPath, "internal/hypergraph") {
				out = append(out, c)
			}
		case FaultSite, TelemetryThread, WorkspaceRetain,
			GoroutineCapture, LockBalance, WaitGroupDiscipline, ChanClose,
			NumCPUPool:
			out = append(out, c)
		case ParPurity:
			if det {
				out = append(out, c)
			}
		}
	}
	return out
}

// Active filters out suppressed diagnostics: the set that gates
// `make lint` and the exit status.
func Active(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// RunChecks applies the given checks to one loaded package and
// returns all diagnostics — suppressed ones marked, not dropped —
// sorted by position.
func RunChecks(pkg *LoadedPackage, checks []Check) []Diagnostic {
	pass := &Pass{
		Path:  pkg.Path,
		Fset:  pkg.Fset,
		Files: pkg.Files,
		Pkg:   pkg.Types,
		Info:  pkg.Info,
	}
	for _, c := range checks {
		c.Run(pass)
	}
	diags := applyIgnores(pkg, pass.diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags
}

// Run loads the packages matched by patterns (relative to moduleDir)
// and runs the scope-filtered suite over each. It returns all
// diagnostics — suppressed ones marked, not dropped; a non-nil error
// means loading or typechecking failed, which is reported separately
// from findings.
func Run(moduleDir string, patterns []string) ([]Diagnostic, error) {
	return RunFiltered(moduleDir, patterns, nil)
}

// RunFiltered is Run restricted to the named checks; nil means all.
// The scope rules still apply — naming a check does not widen where
// it runs, only narrows which checks do.
func RunFiltered(moduleDir string, patterns []string, only []string) ([]Diagnostic, error) {
	loader, err := NewLoader(moduleDir)
	if err != nil {
		return nil, err
	}
	paths, err := loader.Expand(patterns)
	if err != nil {
		return nil, err
	}
	var allow map[string]bool
	if only != nil {
		allow = make(map[string]bool, len(only))
		for _, name := range only {
			allow[name] = true
		}
	}
	var all []Diagnostic
	for _, path := range paths {
		checks := checksFor(loader.ModulePath, path)
		if allow != nil {
			var kept []Check
			for _, c := range checks {
				if allow[c.Name()] {
					kept = append(kept, c)
				}
			}
			checks = kept
		}
		if len(checks) == 0 {
			continue
		}
		pkg, err := loader.Load(path)
		if err != nil {
			return all, fmt.Errorf("%s: %w", path, err)
		}
		all = append(all, RunChecks(pkg, checks)...)
	}
	return all, nil
}
