// Package analysis is the dependency-free core of orthrus-vet, the
// static-analysis suite that mechanically enforces this repository's
// concurrency invariants (lock ordering, hot-path purity and
// allocation, atomic-field discipline, config validation, panic
// attribution).
//
// It deliberately mirrors the golang.org/x/tools/go/analysis surface —
// Analyzer, Pass, Diagnostic, an analysistest-style golden harness with
// `// want` comments — but is reimplemented on the standard library
// alone: the module carries no external dependencies, so the x/tools
// framework is not available. Packages are loaded through
// `go list -export -deps -json` and type-checked with go/types, using
// gc export data for imports (the unitchecker model); see load.go.
//
// Three comment directives drive the suite:
//
//	//orthrus:hotpath
//	    Marks a function as a hot-path root: it and everything it
//	    statically calls must stay free of I/O, printing, sleeps and
//	    blocking channel operations (rule hotpath) and of steady-state
//	    heap allocation (rule noalloc), both checked by one walk in the
//	    hotpath analyzer.
//
//	//orthrus:coldpath <reason>
//	    Marks a function as an intentional hot-path traversal boundary
//	    (an idle backoff, a one-time setup). The reason is mandatory.
//
//	//orthrus:allow(<rule>) <reason>
//	    Suppresses that rule's diagnostics on the same line, the line
//	    below, or (in a function's doc comment) the whole function. A
//	    rule is an analyzer's name, or one of the names an analyzer
//	    reports under (hotpath, noalloc). The reason is mandatory: a
//	    suppression without one is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Exactly one of Run (invoked
// once per package) and RunProgram (invoked once for the whole load
// unit — for cross-package analyses such as call-graph walks) is set.
type Analyzer struct {
	Name string
	Doc  string

	Run        func(*Pass) error
	RunProgram func(*Pass) error
}

// Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one type-checked source package.
type Package struct {
	Path  string
	Types *types.Package
	Info  *types.Info
	Files []*ast.File
}

// Program is a load unit: every package the driver was pointed at,
// type-checked from source against a shared file set, plus the indexes
// the analyzers share.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package

	// Decls maps every function and method object defined in the load
	// unit to its declaration (and owning package) — the call-graph
	// index used by program-level analyzers.
	Decls   map[*types.Func]*ast.FuncDecl
	DeclPkg map[*types.Func]*Package

	allows     map[string]map[int][]*allow // file → line → suppressions
	funcAllows []*funcAllow
	directives map[*ast.FuncDecl]map[string]string // decl → directive → arg
}

// allow is one //orthrus:allow(<analyzer>) suppression comment.
type allow struct {
	analyzer string
	reason   string
	pos      token.Position
}

// funcAllow is an allow in a function's doc comment: it covers the
// whole declaration span.
type funcAllow struct {
	file       string
	start, end int // line span
	*allow
}

// Pass carries one analyzer invocation. For per-package analyzers Pkg
// is the package under inspection; for program-level analyzers Pkg is
// nil and the analyzer walks Prog.Packages itself.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package

	diags *[]Diagnostic
}

// Fset returns the program's shared file set.
func (p *Pass) Fset() *token.FileSet { return p.Prog.Fset }

// Reportf records a diagnostic at pos unless an //orthrus:allow
// suppression covers it. A suppression with an empty reason is itself
// converted into a diagnostic: silent opt-outs are not a thing.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.ReportRulef(p.Analyzer.Name, pos, format, args...)
}

// ReportRulef is Reportf for an analyzer that enforces more than one
// rule: the diagnostic carries rule in place of the analyzer's name,
// and only //orthrus:allow(rule) suppresses it.
func (p *Pass) ReportRulef(rule string, pos token.Pos, format string, args ...interface{}) {
	position := p.Prog.Fset.Position(pos)
	if a := p.Prog.suppression(rule, position); a != nil {
		if a.reason == "" {
			*p.diags = append(*p.diags, Diagnostic{
				Pos:      position,
				Analyzer: rule,
				Message:  fmt.Sprintf("orthrus:allow(%s) requires a reason", rule),
			})
		}
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: rule,
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppression returns the allow covering (analyzer, position), if any:
// same line, the line above the flagged one, or an enclosing function
// whose doc comment carries the allow.
func (prog *Program) suppression(analyzer string, pos token.Position) *allow {
	if lines, ok := prog.allows[pos.Filename]; ok {
		for _, l := range [2]int{pos.Line, pos.Line - 1} {
			for _, a := range lines[l] {
				if a.analyzer == analyzer {
					return a
				}
			}
		}
	}
	for _, fa := range prog.funcAllows {
		if fa.analyzer == analyzer && fa.file == pos.Filename &&
			fa.start <= pos.Line && pos.Line <= fa.end {
			return fa.allow
		}
	}
	return nil
}

// Directive returns the argument of an //orthrus:<name> directive in
// decl's doc comment, and whether the directive is present.
func (prog *Program) Directive(decl *ast.FuncDecl, name string) (arg string, ok bool) {
	m, found := prog.directives[decl]
	if !found {
		return "", false
	}
	arg, ok = m[name]
	return arg, ok
}

var (
	allowRE     = regexp.MustCompile(`^//\s*orthrus:allow\((\w+)\)\s*(.*)$`)
	directiveRE = regexp.MustCompile(`^//\s*orthrus:(\w+)\s*(.*)$`)
)

// index builds the suppression, directive and declaration indexes after
// all packages are loaded.
func (prog *Program) index() {
	prog.allows = make(map[string]map[int][]*allow)
	prog.directives = make(map[*ast.FuncDecl]map[string]string)
	prog.Decls = make(map[*types.Func]*ast.FuncDecl)
	prog.DeclPkg = make(map[*types.Func]*Package)

	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := allowRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					byLine := prog.allows[pos.Filename]
					if byLine == nil {
						byLine = make(map[int][]*allow)
						prog.allows[pos.Filename] = byLine
					}
					byLine[pos.Line] = append(byLine[pos.Line], &allow{
						analyzer: m[1],
						reason:   strings.TrimSpace(m[2]),
						pos:      pos,
					})
				}
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					prog.Decls[obj] = fd
					prog.DeclPkg[obj] = pkg
				}
				if fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					if m := allowRE.FindStringSubmatch(c.Text); m != nil {
						pos := prog.Fset.Position(c.Pos())
						prog.funcAllows = append(prog.funcAllows, &funcAllow{
							file:  pos.Filename,
							start: pos.Line,
							end:   prog.Fset.Position(fd.End()).Line,
							allow: &allow{
								analyzer: m[1],
								reason:   strings.TrimSpace(m[2]),
								pos:      pos,
							},
						})
						continue
					}
					if m := directiveRE.FindStringSubmatch(c.Text); m != nil && m[1] != "allow" {
						dm := prog.directives[fd]
						if dm == nil {
							dm = make(map[string]string)
							prog.directives[fd] = dm
						}
						dm[m[1]] = strings.TrimSpace(m[2])
					}
				}
			}
		}
	}
}

// Run executes the analyzers over the program and returns the surviving
// diagnostics sorted by position. Duplicate diagnostics (same position,
// analyzer and message — possible when program-level traversals reach
// one site from several roots) collapse.
func (prog *Program) Run(analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		switch {
		case a.RunProgram != nil:
			pass := &Pass{Analyzer: a, Prog: prog, diags: &diags}
			if err := a.RunProgram(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
			}
		case a.Run != nil:
			for _, pkg := range prog.Packages {
				pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, diags: &diags}
				if err := a.Run(pass); err != nil {
					return nil, fmt.Errorf("analysis: %s: %s: %w", a.Name, pkg.Path, err)
				}
			}
		default:
			return nil, fmt.Errorf("analysis: %s has neither Run nor RunProgram", a.Name)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out, nil
}

// Callee resolves the static callee of call within pkg: a *types.Func
// for direct function and method calls, nil for function values,
// interface dispatch, type conversions and builtins. A method of an
// instantiated generic type resolves to its generic declaration (Origin),
// which is the one that has a body.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			// Method call: only concrete (non-interface) receivers have
			// a statically known body.
			if f, ok := sel.Obj().(*types.Func); ok && !types.IsInterface(sel.Recv()) {
				return f.Origin()
			}
			return nil
		}
		id = fun.Sel // package-qualified function
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}
