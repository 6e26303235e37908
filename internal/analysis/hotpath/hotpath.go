// Package hotpath enforces the two rules that keep latency-critical
// threads from re-introducing the synchronization and allocation
// overhead the message-passing design removes. Functions annotated
// //orthrus:hotpath (CC drain loops, SPSC ring operations,
// execution-thread commit paths, WAL appends) and everything they
// statically call are walked once, and every reached body is checked
// against both rule sets:
//
//   - hotpath: no file or network I/O, fmt/log printing, sleeps, or
//     blocking channel operations. Calls are checked against a forbidden
//     list (all of os, net, log, bufio and syscall; fmt's printing and
//     scanning functions; time.Sleep/After/Tick/NewTimer/NewTicker; and
//     time.Now, which reads the wall clock as well as the monotonic one —
//     metrics.Now is the one-read stamp).
//     Channel sends and receives are flagged except inside a select
//     with a default clause — the non-blocking shape the WAL wake
//     channel uses.
//   - noalloc: no steady-state heap allocation. Flagged are &T{...}
//     literals, slice and map literals, the make and new builtins,
//     appends that do not feed back into the slice they extend
//     (x = append(x, ...) and x = append(x[:0], ...) amortize to zero;
//     y = append(x, ...) or a bare append argument allocates every
//     time), and function literals that capture variables of the
//     enclosing function (each evaluation allocates the environment).
//
// Each rule reports under its own name, so //orthrus:allow(hotpath)
// <reason> and //orthrus:allow(noalloc) <reason> each suppress only
// their own rule at a site. //orthrus:coldpath <reason> on a function
// marks a traversal boundary for both (an idle backoff that sleeps, a
// one-time setup that allocates); the reason is mandatory.
//
// Dynamic calls — function values, interface dispatch — are not
// traversed; a hot loop that dispatches through an interface annotates
// the concrete implementations as roots instead. The message plane has
// none: its queues are concrete SPSC rings, so the walk from every CC,
// exec and net step reaches the ring operations statically.
package hotpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the hot-path pass; it reports under the rule names
// hotpath and noalloc.
var Analyzer = &analysis.Analyzer{
	Name:       ruleHotpath,
	Doc:        "//orthrus:hotpath functions and their static callees must not do I/O, print, sleep or block on channels (hotpath), nor heap-allocate in steady state (noalloc)",
	RunProgram: run,
}

// The two rules, each its own diagnostic name and suppression key.
const (
	ruleHotpath = "hotpath"
	ruleNoalloc = "noalloc"
)

// forbiddenPkgs are wholesale-forbidden import paths.
var forbiddenPkgs = map[string]string{
	"os":      "file I/O",
	"net":     "network I/O",
	"log":     "logging",
	"bufio":   "buffered I/O",
	"syscall": "system calls",
}

// forbiddenFuncs are forbidden (package, function-prefix) pairs in
// otherwise allowed packages.
var forbiddenFuncs = map[string][]string{
	"fmt":  {"Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf", "Scan", "Sscan", "Fscan"},
	"time": {"Sleep", "After", "Tick", "NewTimer", "NewTicker", "Now"},
}

// forbiddenHints name the replacement for a forbidden function that has
// one, keyed by package.function.
var forbiddenHints = map[string]string{
	"time.Now": "reads the wall and the monotonic clock; metrics.Now reads the monotonic one",
}

func run(pass *analysis.Pass) error {
	w := &walker{pass: pass, reported: make(map[site]bool)}
	for _, pkg := range pass.Prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if reason, ok := pass.Prog.Directive(fd, "coldpath"); ok && reason == "" {
					pass.Reportf(fd.Pos(), "//orthrus:coldpath requires a reason")
				}
				if _, ok := pass.Prog.Directive(fd, "hotpath"); !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				w.visited = map[*types.Func]bool{obj: true}
				w.root = obj
				w.walk(&body{pkg: pkg, decl: fd})
			}
		}
	}
	return nil
}

type walker struct {
	pass     *analysis.Pass
	root     *types.Func
	visited  map[*types.Func]bool
	reported map[site]bool
}

// site is one reported (rule, position) pair.
type site struct {
	rule string
	pos  token.Pos
}

// body is one reached function: its package, its declaration (the
// scope a closure captures from), and the call chain from the root to
// it (nil at the root itself).
type body struct {
	pkg   *analysis.Package
	decl  *ast.FuncDecl
	chain []*types.Func
}

func (w *walker) walk(b *body) {
	if b.decl.Body != nil {
		w.node(b, b.decl.Body, false)
	}
}

// node recursively walks n. selectDefault is true when n is inside a
// select statement that has a default clause (its channel operations
// are non-blocking).
func (w *walker) node(b *body, n ast.Node, selectDefault bool) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.GoStmt:
		// The spawned body runs on another goroutine; the spawn itself
		// is cheap and allowed.
		return
	case *ast.SelectStmt:
		hasDefault := false
		for _, clause := range n.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		for _, clause := range n.Body.List {
			cc := clause.(*ast.CommClause)
			// The communicated operation is non-blocking iff the select
			// has a default; the clause bodies run normally.
			w.node(b, cc.Comm, hasDefault)
			for _, s := range cc.Body {
				w.node(b, s, false)
			}
		}
		return
	case *ast.SendStmt:
		if !selectDefault {
			w.flag(b, ruleHotpath, n.Pos(), "blocking channel send")
		}
		w.node(b, n.Chan, false)
		w.node(b, n.Value, false)
		return
	case *ast.UnaryExpr:
		if n.Op == token.ARROW && !selectDefault {
			w.flag(b, ruleHotpath, n.Pos(), "blocking channel receive")
		}
		if lit, ok := n.X.(*ast.CompositeLit); ok && n.Op == token.AND {
			w.flag(b, ruleNoalloc, n.Pos(), "composite literal escapes to the heap (&T{...})")
			for _, e := range lit.Elts {
				w.node(b, e, false)
			}
			return
		}
	case *ast.CompositeLit:
		if tv, ok := b.pkg.Info.Types[n]; ok && tv.Type != nil {
			switch tv.Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				w.flag(b, ruleNoalloc, n.Pos(), "slice/map literal allocates backing store")
			}
		}
	case *ast.RangeStmt:
		if tv, ok := b.pkg.Info.Types[n.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.flag(b, ruleHotpath, n.X.Pos(), "blocking channel receive (range over channel)")
			}
		}
	case *ast.AssignStmt:
		// lhs = append(src, ...) is the sanctioned scratch-reuse shape
		// when src, stripped of slicing, spells lhs: its growth
		// amortizes to zero. The call itself is not re-checked as a
		// bare append.
		if call := appendAssign(b.pkg, n); call != nil {
			if types.ExprString(stripSlices(n.Lhs[0])) != types.ExprString(stripSlices(call.Args[0])) {
				w.flag(b, ruleNoalloc, call.Pos(), "append result is assigned to a different slice than its source (fresh allocation per call)")
			}
			w.node(b, n.Lhs[0], false)
			for _, arg := range call.Args {
				w.node(b, arg, false)
			}
			return
		}
	case *ast.CallExpr:
		w.call(b, n)
	case *ast.FuncLit:
		// A literal's body may run elsewhere, but every in-tree hot
		// path that builds one runs it inline, so the walk enters it.
		if v := captured(b, n); v != "" {
			w.flag(b, ruleNoalloc, n.Pos(), "closure captures "+v+" (allocates its environment per evaluation)")
		}
	}
	// Generic descent.
	children(n, func(c ast.Node) {
		w.node(b, c, selectDefault && isCommPart(n))
	})
}

// isCommPart reports nodes whose direct children keep select-default
// context (assignment/expression wrappers inside a CommClause comm).
func isCommPart(n ast.Node) bool {
	switch n.(type) {
	case *ast.AssignStmt, *ast.ExprStmt:
		return true
	}
	return false
}

// call checks one call site and descends into the callee when it is
// defined in the load unit and not behind a coldpath boundary.
func (w *walker) call(b *body, call *ast.CallExpr) {
	if name := builtin(b.pkg, call); name != "" {
		switch name {
		case "make", "new":
			w.flag(b, ruleNoalloc, call.Pos(), name+" allocates")
		case "append":
			w.flag(b, ruleNoalloc, call.Pos(), "append result is not assigned back to its source slice (fresh allocation per call)")
		}
		return
	}
	fn := analysis.Callee(b.pkg.Info, call)
	if fn == nil {
		return
	}
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	if what, bad := forbiddenPkgs[path]; bad {
		w.flag(b, ruleHotpath, call.Pos(), fmt.Sprintf("calls %s.%s (%s)", path, fn.Name(), what))
		return
	}
	for _, prefix := range forbiddenFuncs[path] {
		if strings.HasPrefix(fn.Name(), prefix) {
			what := fmt.Sprintf("calls %s.%s", path, fn.Name())
			if hint, ok := forbiddenHints[path+"."+fn.Name()]; ok {
				what += " (" + hint + ")"
			}
			w.flag(b, ruleHotpath, call.Pos(), what)
			return
		}
	}
	decl, ok := w.pass.Prog.Decls[fn]
	if !ok || w.visited[fn] {
		return
	}
	if _, cold := w.pass.Prog.Directive(decl, "coldpath"); cold {
		return
	}
	w.visited[fn] = true
	w.walk(&body{pkg: w.pass.Prog.DeclPkg[fn], decl: decl, chain: append(b.chain, fn)})
}

// builtin returns the name of the builtin call invokes, or "".
func builtin(pkg *analysis.Package, call *ast.CallExpr) string {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			return id.Name
		}
	}
	return ""
}

// appendAssign returns the append call of a single assignment
// lhs = append(...), or nil.
func appendAssign(pkg *analysis.Package, as *ast.AssignStmt) *ast.CallExpr {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	if call, ok := as.Rhs[0].(*ast.CallExpr); ok && builtin(pkg, call) == "append" {
		return call
	}
	return nil
}

// stripSlices removes slicing, parenthesization and dereference wrappers:
// (*buf)[:0] and buf[n:] both reduce to buf.
func stripSlices(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return e
		}
	}
}

// captured returns the name of a variable lit captures from b's
// declaration, or "": a variable declared inside the declaration but
// outside the literal (package-level variables are static; the
// literal's own parameters and locals are its frame).
func captured(b *body, lit *ast.FuncLit) string {
	enc := b.decl
	name := ""
	ast.Inspect(lit.Body, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok && name == "" {
			if v, ok := b.pkg.Info.Uses[id].(*types.Var); ok && !v.IsField() &&
				v.Pos() > enc.Pos() && v.Pos() < enc.End() && (v.Pos() < lit.Pos() || v.Pos() > lit.End()) {
				name = v.Name()
			}
		}
		return name == ""
	})
	return name
}

// flag reports one violation of rule, once per site.
func (w *walker) flag(b *body, rule string, pos token.Pos, what string) {
	if w.reported[site{rule, pos}] {
		return
	}
	w.reported[site{rule, pos}] = true
	via := ""
	if len(b.chain) > 0 {
		names := make([]string, len(b.chain))
		for i, f := range b.chain {
			names[i] = f.Name()
		}
		via = " via " + strings.Join(names, " → ")
	}
	w.pass.ReportRulef(rule, pos, "%s on the hot path of //orthrus:hotpath %s%s", what, w.root.FullName(), via)
}

// children invokes fn for each direct child node of n, using
// ast.Inspect's traversal but stopping at depth one.
func children(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			fn(c)
		}
		return false
	})
}
