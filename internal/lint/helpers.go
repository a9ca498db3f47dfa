package lint

import (
	"go/ast"
	"go/types"
)

// calleeOf resolves a call expression's callee to the *types.Func it
// invokes, nil for calls through function values, conversions, and
// builtins.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// methodOn reports whether fn is a method named name on a (possibly
// pointed-to) named type typeName defined in a package whose import path
// ends in pkgBase.
func methodOn(fn *types.Func, name, typeName, pkgBase string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != typeName || obj.Pkg() == nil {
		return false
	}
	return pathBase(obj.Pkg().Path()) == pkgBase
}

// isFloat reports whether t's underlying type is a floating-point type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// pkgOneOf reports whether the pass's package path ends in one of the
// given base names — how analyzers scope to subsystems so that the real
// packages and the testdata fixture packages match the same rule.
func pkgOneOf(pass *Pass, bases ...string) bool {
	base := pathBase(pass.PkgPath)
	for _, b := range bases {
		if base == b {
			return true
		}
	}
	return false
}
