// Package configvalidate enforces the ROADMAP's "config validation that
// panics loudly" mandate mechanically: every exported struct type whose
// name ends in Config must have a Validate method, every exported
// numeric field (knob) of such a struct must be referenced inside that
// method, and every exported constructor (New*) taking such a config
// must call its Validate. A new knob therefore cannot dodge validation:
// adding the field without touching Validate is a build failure, not a
// review nit.
//
// "Referenced" is literal: the field must appear as a selector on the
// receiver in Validate's body. A knob for which every value is legal
// still gets a line — `_ = c.Records` with a comment — so the method
// records that the knob was considered, which is the invariant. If the
// receiver escapes Validate (passed whole to a helper), the analyzer
// assumes the helper checks everything and stays quiet.
package configvalidate

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the configvalidate pass.
var Analyzer = &analysis.Analyzer{
	Name: "configvalidate",
	Doc:  "exported *Config structs need a Validate method referencing every numeric knob, called by constructors",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	pkg := pass.Pkg
	scope := pkg.Types.Scope()
	configs := make(map[*types.Named]bool)
	for _, name := range scope.Names() {
		obj, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !obj.Exported() || !strings.HasSuffix(name, "Config") {
			continue
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		configs[named] = true
		checkConfig(pass, obj, named, st)
	}
	checkConstructors(pass, configs)
	return nil
}

// checkConfig verifies the Validate method exists and references every
// exported numeric field.
func checkConfig(pass *analysis.Pass, obj *types.TypeName, named *types.Named, st *types.Struct) {
	validate := findMethod(named, "Validate")
	if validate == nil {
		pass.Reportf(obj.Pos(),
			"exported config struct %s has no Validate method; every config must validate its knobs (and panic loudly on invalid ones)", obj.Name())
		return
	}
	decl, ok := pass.Prog.Decls[validate]
	if !ok || decl.Body == nil {
		// Defined outside the load unit — nothing more to check.
		return
	}
	recv := receiverObj(pass, decl)
	referenced, escapes := receiverFieldRefs(pass, decl, recv)
	if escapes {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() || !isNumeric(f.Type()) {
			continue
		}
		if !referenced[f.Name()] {
			pass.Reportf(f.Pos(),
				"%s.%s is a numeric knob not referenced in %s.Validate; every knob must be validated (or explicitly waved through with `_ = c.%s`)",
				obj.Name(), f.Name(), obj.Name(), f.Name())
		}
	}
}

// checkConstructors requires every exported New* function with a
// config-typed parameter to call Validate on it (directly, or by
// passing the config onward — escape is trusted).
func checkConstructors(pass *analysis.Pass, configs map[*types.Named]bool) {
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Body == nil {
				continue
			}
			if !strings.HasPrefix(fd.Name.Name, "New") || !ast.IsExported(fd.Name.Name) {
				continue
			}
			fn, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			sig := fn.Type().(*types.Signature)
			for i := 0; i < sig.Params().Len(); i++ {
				param := sig.Params().At(i)
				named := configNamed(param.Type())
				if named == nil || !configs[named] {
					continue
				}
				if !callsValidate(pass, fd, param) {
					pass.Reportf(fd.Pos(),
						"constructor %s does not call %s.Validate on its %s parameter",
						fd.Name.Name, named.Obj().Name(), param.Name())
				}
			}
		}
	}
}

// configNamed unwraps T or *T to a named struct type.
func configNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// callsValidate reports whether fd calls param.Validate(...) or lets
// param escape whole into another call (trusted to validate).
func callsValidate(pass *analysis.Pass, fd *ast.FuncDecl, param *types.Var) bool {
	info := pass.Pkg.Info
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Validate" {
			if base, ok := ast.Unparen(sel.X).(*ast.Ident); ok && info.ObjectOf(base) == param {
				found = true
			}
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.ObjectOf(id) == param {
				found = true // escapes whole; the callee owns validation
			}
		}
		return true
	})
	return found
}

// findMethod returns the Validate *types.Func on T or *T, or nil.
func findMethod(named *types.Named, name string) *types.Func {
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		if f, ok := ms.At(i).Obj().(*types.Func); ok && f.Name() == name {
			return f
		}
	}
	return nil
}

// receiverObj returns the receiver variable of a method declaration.
func receiverObj(pass *analysis.Pass, decl *ast.FuncDecl) types.Object {
	if decl.Recv == nil || len(decl.Recv.List) == 0 || len(decl.Recv.List[0].Names) == 0 {
		return nil
	}
	return pass.Prog.DeclPkg[pass.Pkg.Info.Defs[decl.Name].(*types.Func)].
		Info.Defs[decl.Recv.List[0].Names[0]]
}

// receiverFieldRefs collects the field names selected from the receiver
// anywhere in the method body, and whether the receiver escapes as a
// whole value (in which case all fields count as referenced).
func receiverFieldRefs(pass *analysis.Pass, decl *ast.FuncDecl, recv types.Object) (map[string]bool, bool) {
	refs := make(map[string]bool)
	if recv == nil {
		return refs, true // unnamed receiver: nothing can be referenced
	}
	declPkg := pass.Prog.DeclPkg[pass.Pkg.Info.Defs[decl.Name].(*types.Func)]
	info := declPkg.Info
	escapes := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || info.ObjectOf(id) != recv {
			return true
		}
		// Walk up one level conceptually: the parent must be a selector.
		// ast.Inspect gives no parent, so detect via position: mark and
		// let the selector pass below claim it.
		escapes = true
		return true
	})
	// Re-walk properly: clear escape for receiver idents that are
	// selector bases.
	selectorBases := make(map[*ast.Ident]bool)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if base, ok := ast.Unparen(sel.X).(*ast.Ident); ok && info.ObjectOf(base) == recv {
			refs[sel.Sel.Name] = true
			selectorBases[base] = true
		}
		return true
	})
	if escapes {
		// The receiver escaped only if some receiver ident is NOT a
		// selector base.
		escapes = false
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if ok && info.ObjectOf(id) == recv && !selectorBases[id] {
				escapes = true
			}
			return true
		})
	}
	return refs, escapes
}

// isNumeric reports whether t's core type is an integer or float —
// the "knob" types the analyzer insists are validated.
func isNumeric(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsInteger|types.IsFloat) != 0
}
