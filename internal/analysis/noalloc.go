package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoAlloc proves that //redvet:noalloc regions contain no allocating
// constructs: make/new, escaping composite literals, string
// concatenation and conversion (a string(bytes) that is only compared with
// == or !=, or switched on against constant cases, is free), closures,
// goroutine spawns, interface
// boxing of non-pointer values, and append calls whose growth is not
// reassigned into the appended slice (the amortized-reuse idiom the hot
// paths rely on is `s.buf = append(s.buf, ...)` and stays legal).
// Error-return paths are exempt: an allocation inside `if ...` ending in
// a non-nil error return, or inside such a return itself, is cold by
// definition and not a hot-path violation.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "annotated hot-path regions must not contain allocating constructs",
	Run:  runNoAlloc,
}

func runNoAlloc(pass *Pass) {
	for _, region := range pass.Index.RegionsFor(pass.Pkg) {
		checkRegionNoAlloc(pass, region)
	}
}

func checkRegionNoAlloc(pass *Pass, region Region) {
	info := pass.Pkg.Info
	cold := coldIntervals(pass, region)
	sanctioned := sanctionedAppends(info, region.Node)

	ast.Inspect(region.Node, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if cold.contains(n.Pos()) {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure literal allocates (captured environment escapes)")
			return false
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement allocates a goroutine in a noalloc region")
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&%s{...} escapes to the heap", typeLabel(info, cl))
					return false
				}
			}
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal allocates")
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal allocates")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info.TypeOf(n)) {
				pass.Reportf(n.Pos(), "string concatenation allocates")
			}
			if n.Op == token.EQL || n.Op == token.NEQ {
				// string(b) == s compares the bytes in place: the compiler
				// never materializes a conversion that is only compared.
				for _, operand := range []ast.Expr{n.X, n.Y} {
					if call, ok := ast.Unparen(operand).(*ast.CallExpr); ok && len(call.Args) == 1 && isByteSlice(info.TypeOf(call.Args[0])) {
						sanctioned[call] = true
					}
				}
			}
		case *ast.SwitchStmt:
			// switch string(b) { case "x", "y": } compares in place too,
			// provided every case is a constant.
			if call, ok := ast.Unparen(n.Tag).(*ast.CallExpr); ok && len(call.Args) == 1 &&
				isByteSlice(info.TypeOf(call.Args[0])) && constantCases(info, n.Body) {
				sanctioned[call] = true
			}
		case *ast.CallExpr:
			checkCallNoAlloc(pass, info, n, sanctioned)
		}
		return true
	})
}

func checkCallNoAlloc(pass *Pass, info *types.Info, call *ast.CallExpr, sanctioned map[*ast.CallExpr]bool) {
	switch builtinName(info, call) {
	case "make":
		pass.Reportf(call.Pos(), "make allocates")
		return
	case "new":
		pass.Reportf(call.Pos(), "new allocates")
		return
	case "append":
		if !sanctioned[call] {
			pass.Reportf(call.Pos(), "append growth escapes: assign the result back to the appended slice (s = append(s, ...))")
		}
		return
	case "":
	default:
		return // len, cap, copy, ... are alloc-free
	}

	// Conversions: string <-> []byte/[]rune and string(rune) copy.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) != 1 {
			return
		}
		if cv, ok := info.Types[call]; ok && cv.Value != nil {
			return // constant conversion, folded at compile time
		}
		dst, src := info.TypeOf(call), info.TypeOf(call.Args[0])
		switch {
		case sanctioned[call] && isString(dst):
			// compared, not kept (see the BinaryExpr case)
		case isString(dst) && (isByteOrRuneSlice(src) || isBasicKind(src, types.IsInteger)):
			pass.Reportf(call.Pos(), "conversion to string allocates a copy")
		case isByteOrRuneSlice(dst) && isString(src):
			pass.Reportf(call.Pos(), "conversion from string allocates a copy")
		}
		return
	}

	// Interface boxing: a concrete non-pointer argument passed to an
	// interface parameter forces a heap box.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if tv, ok := info.Types[arg]; ok && tv.IsNil() {
			continue
		}
		if _, isPtr := at.Underlying().(*types.Pointer); isPtr {
			continue // pointers fit the interface data word, no box
		}
		pass.Reportf(arg.Pos(), "passing %s to interface parameter boxes it on the heap", at)
	}
}

// constantCases reports whether every case expression of a switch body is
// a constant: only then does the compiler switch on a []byte-to-string
// conversion without materializing it.
func constantCases(info *types.Info, body *ast.BlockStmt) bool {
	for _, stmt := range body.List {
		for _, e := range stmt.(*ast.CaseClause).List {
			if tv, ok := info.Types[e]; !ok || tv.Value == nil {
				return false
			}
		}
	}
	return true
}

// sanctionedAppends collects builtin append calls of the amortized-reuse
// shape `x = append(x, ...)`, matching LHS and first argument textually.
func sanctionedAppends(info *types.Info, root ast.Node) map[*ast.CallExpr]bool {
	out := make(map[*ast.CallExpr]bool)
	ast.Inspect(root, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || builtinName(info, call) != "append" || len(call.Args) == 0 {
				continue
			}
			if exprString(as.Lhs[i]) == exprString(call.Args[0]) {
				out[call] = true
			}
		}
		return true
	})
	return out
}

// intervals is a set of cold (error-path) source ranges.
type intervals []struct{ lo, hi token.Pos }

func (iv intervals) contains(p token.Pos) bool {
	for _, i := range iv {
		if p >= i.lo && p < i.hi {
			return true
		}
	}
	return false
}

// coldIntervals marks error-return paths inside a region: any return
// statement whose error result is non-nil, and any if-body that ends in
// one. Allocation there is failure handling, not the hot path.
func coldIntervals(pass *Pass, region Region) intervals {
	return coldIntervalsInfo(pass.Pkg.Info, region)
}

func coldIntervalsInfo(info *types.Info, region Region) intervals {
	var out intervals
	fn := region.Func
	if fn == nil || !funcReturnsError(info, fn) {
		return out
	}
	ast.Inspect(region.Node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its returns belong to a different signature
		case *ast.ReturnStmt:
			if returnsNonNilError(n) {
				out = append(out, struct{ lo, hi token.Pos }{n.Pos(), n.End()})
			}
		case *ast.IfStmt:
			if body := n.Body.List; len(body) > 0 {
				if ret, ok := body[len(body)-1].(*ast.ReturnStmt); ok && returnsNonNilError(ret) {
					out = append(out, struct{ lo, hi token.Pos }{n.Body.Pos(), n.Body.End()})
				}
			}
		}
		return true
	})
	return out
}

func funcReturnsError(info *types.Info, fn *ast.FuncDecl) bool {
	sig, ok := info.Defs[fn.Name]
	if !ok {
		return false
	}
	res := sig.Type().(*types.Signature).Results()
	return res.Len() > 0 && res.At(res.Len()-1).Type().String() == "error"
}

// returnsNonNilError reports whether ret's last result is anything but a
// literal nil. A bare `return` with named results is treated as cold too
// — hot paths in this repo return explicitly.
func returnsNonNilError(ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		return true
	}
	last := ret.Results[len(ret.Results)-1]
	id, ok := last.(*ast.Ident)
	return !ok || id.Name != "nil"
}
