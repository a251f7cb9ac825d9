package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// exprString renders an expression compactly for identity comparison
// and diagnostics ("sh.mu", "s.buf[i]").
func exprString(e ast.Expr) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, token.NewFileSet(), e)
	return buf.String()
}

func isString(t types.Type) bool {
	return isBasicKind(t, types.IsString)
}

func isBasicKind(t types.Type, info types.BasicInfo) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&info != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	k, ok := sliceElemKind(t)
	return ok && (k == types.Byte || k == types.Rune)
}

func isByteSlice(t types.Type) bool {
	k, ok := sliceElemKind(t)
	return ok && k == types.Byte
}

// sliceElemKind returns the basic kind of a slice type's elements (byte and
// rune report as their aliases uint8 and int32).
func sliceElemKind(t types.Type) (types.BasicKind, bool) {
	if t == nil {
		return 0, false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return 0, false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	if !ok {
		return 0, false
	}
	return e.Kind(), true
}

func typeLabel(info *types.Info, e ast.Expr) string {
	if t := info.TypeOf(e); t != nil {
		return t.String()
	}
	return exprString(e)
}

// namedPkgPath returns the defining package path and name of t if it is
// a (possibly pointer-wrapped) named type, else "", "".
func namedPkgPath(t types.Type) (pkgPath, name string) {
	if t == nil {
		return "", ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Path(), obj.Name()
}

// calleePkgFunc resolves a call to (package path, function/method name)
// when the callee is a plain identifier or selector. For methods the
// package is the receiver type's package.
func calleePkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj := info.Uses[fun]; obj != nil && obj.Pkg() != nil {
			return obj.Pkg().Path(), obj.Name()
		}
		return "", fun.Name
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			// Method or field call: attribute to the receiver's package.
			if p, _ := namedPkgPath(sel.Recv()); p != "" {
				return p, fun.Sel.Name
			}
			return "", fun.Sel.Name
		}
		// Package-qualified call: fmt.Sprintf, time.Now, ...
		if obj := info.Uses[fun.Sel]; obj != nil && obj.Pkg() != nil {
			return obj.Pkg().Path(), obj.Name()
		}
		return "", fun.Sel.Name
	}
	return "", ""
}
