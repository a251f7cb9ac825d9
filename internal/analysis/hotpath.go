package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotPathHygiene enforces the softer per-event rules inside noalloc
// regions — no wall-clock reads, no fmt/log formatting, no map
// iteration, no per-event metrics-registry lookups — plus two
// package-wide rules: sync/atomic values are never copied by value, and
// metric handles are resolved once at construction, not per event.
var HotPathHygiene = &Analyzer{
	Name: "hotpathhygiene",
	Doc:  "no clocks, formatting, logging, map iteration, or metric lookups per event; atomics never copied",
	Run:  runHotPathHygiene,
}

// registryLookupMethods are the metrics.Registry methods that take the
// registry mutex and hash the metric name or collector key —
// construction-time only.
var registryLookupMethods = map[string]bool{
	"Counter": true, "Collect": true, "Histogram": true,
}

func runHotPathHygiene(pass *Pass) {
	for _, region := range pass.Index.RegionsFor(pass.Pkg) {
		checkRegionHygiene(pass, region)
	}
	checkAtomicCopies(pass)
}

func checkRegionHygiene(pass *Pass, region Region) {
	info := pass.Pkg.Info
	cold := coldIntervals(pass, region)
	ast.Inspect(region.Node, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if cold.contains(n.Pos()) {
			return false
		}
		switch n := n.(type) {
		case *ast.RangeStmt:
			if _, isMap := info.TypeOf(n.X).Underlying().(*types.Map); isMap {
				pass.Reportf(n.Pos(), "map iteration in a hot path (randomized order, runtime.mapiterinit per event)")
			}
		case *ast.CallExpr:
			switch builtinName(info, n) {
			case "print", "println":
				pass.Reportf(n.Pos(), "print/println in a hot path")
				return true
			}
			pkg, name := calleePkgFunc(info, n)
			switch {
			case pkg == "time" && (name == "Now" || name == "Since"):
				pass.Reportf(n.Pos(), "time.%s in a hot path (wall-clock read per event)", name)
			case pkg == "fmt":
				pass.Reportf(n.Pos(), "fmt.%s in a hot path (reflection-driven formatting allocates)", name)
			case pkg == "log" || pkg == "log/slog":
				pass.Reportf(n.Pos(), "logging in a hot path")
			case registryLookupMethods[name] && isMetricsRegistry(info, n):
				pass.Reportf(n.Pos(), "metrics registry lookup (%s) per event: resolve the handle once at construction", name)
			}
		}
		return true
	})
}

// isMetricsRegistry reports whether the call's receiver is the repo's
// metrics.Registry.
func isMetricsRegistry(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	p, n := namedPkgPath(info.TypeOf(sel.X))
	return n == "Registry" && strings.HasSuffix(p, "metrics")
}

// checkAtomicCopies flags sync/atomic values moved by value anywhere in
// the package: assignment reads, and parameters/results declared by
// value. A copied atomic silently forks the counter.
func checkAtomicCopies(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, rhs := range n.Rhs {
					if isAtomicValueRead(info, rhs) {
						pass.Reportf(rhs.Pos(), "%s copies a sync/atomic value; keep a pointer or embed it", exprString(rhs))
					}
				}
			case *ast.FuncDecl:
				if n.Type.Params != nil {
					for _, field := range n.Type.Params.List {
						if p, name := namedPkgPath(info.TypeOf(field.Type)); p == "sync/atomic" {
							if _, isPtr := info.TypeOf(field.Type).(*types.Pointer); !isPtr {
								pass.Reportf(field.Pos(), "atomic.%s passed by value forks the counter; pass *atomic.%s", name, name)
							}
						}
					}
				}
			}
			return true
		})
	}
}

// isAtomicValueRead reports whether e reads a sync/atomic struct by
// value (not via &, not a method call on it).
func isAtomicValueRead(info *types.Info, e ast.Expr) bool {
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
	default:
		return false
	}
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	if _, isPtr := t.(*types.Pointer); isPtr {
		return false
	}
	p, _ := namedPkgPath(t)
	return p == "sync/atomic"
}
