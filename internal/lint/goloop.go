package lint

import (
	"go/ast"
	"go/token"
)

// Goloop keeps every background goroutine of the live prototype
// stoppable. The janitor, heartbeat, accept and read loops are the
// population: each one must be able to reach an exit — a return (the
// idiomatic reaction to a closed stop channel or a dead connection), a
// break or goto out of the loop, a panic, or process exit. A goroutine
// whose body spins in a `for {}` with none of those can never be joined:
// Close hangs, tests leak, and the chaos harness cannot tear a node down.
//
// The check resolves the go statement's body statically — a function
// literal or the declaration of the called function — and follows one
// level of in-program calls from it (`go p.run()` and
// `go func() { p.run() }()` are both judged by run's body). Unresolvable
// calls (function values, out-of-program callees such as http.Server.
// Serve) are given the benefit of the doubt. Deliberately unstoppable
// goroutines carry a justified //lint:allow goloop.
var Goloop = &Analyzer{
	Name: "goloop",
	Doc:  "goroutines in the live prototype must have a reachable stop path",
	Run:  runGoloop,
}

var goloopSegments = []string{"internal/remote", "internal/proto", "internal/dirshard", "internal/load", "internal/chaos", "internal/obs", "cmd/gmsnode", "internal/dirlog"}

func runGoloop(pass *Pass) {
	if !pathInSegments(pass.Path, goloopSegments) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if loop := unstoppableLoop(pass, g); loop != nil {
				pos := pass.Fset.Position(loop.Pos())
				pass.Reportf(g.Pos(), "goroutine has no reachable stop path: the loop at line %d never returns, breaks or exits; select on a done channel or context (or justify with //lint:allow goloop <why>)", pos.Line)
			}
			return true
		})
	}
}

// unstoppableLoop returns the first exitless infinite loop in the
// goroutine's resolved bodies, or nil.
func unstoppableLoop(pass *Pass, g *ast.GoStmt) *ast.ForStmt {
	seen := map[*ast.BlockStmt]bool{}
	var bodies []*ast.BlockStmt
	add := func(b *ast.BlockStmt) {
		if b != nil && !seen[b] {
			seen[b] = true
			bodies = append(bodies, b)
		}
	}
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		add(lit.Body)
	} else if info := pass.Prog.FuncOf(staticCallee(pass.Info, g.Call)); info != nil {
		add(info.Decl.Body)
	}
	// One level of in-program calls from the resolved bodies.
	for _, b := range bodies[:len(bodies):len(bodies)] {
		for _, call := range bodyCalls(b.List) {
			if info := pass.Prog.FuncOf(staticCallee(pass.Info, call)); info != nil {
				add(info.Decl.Body)
			}
		}
	}
	for _, b := range bodies {
		var found *ast.ForStmt
		ast.Inspect(b, func(n ast.Node) bool {
			if found != nil {
				return false
			}
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			loop, ok := n.(*ast.ForStmt)
			if !ok || loop.Cond != nil {
				return true
			}
			if !loopHasExit(pass, loop) {
				found = loop
				return false
			}
			return true
		})
		if found != nil {
			return found
		}
	}
	return nil
}

// loopHasExit reports whether anything inside the loop body (not counting
// nested function literals) can leave the enclosing function or the loop:
// return, break, goto, panic, or process exit.
func loopHasExit(pass *Pass, loop *ast.ForStmt) bool {
	exit := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			exit = true
		case *ast.BranchStmt:
			if tok := n.Tok; tok == token.BREAK || tok == token.GOTO {
				exit = true
			}
		case *ast.CallExpr:
			if isFailCall(pass, n) {
				exit = true
			}
		}
		return !exit
	})
	return exit
}
