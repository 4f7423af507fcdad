package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Deadlinecheck proves the invariant the paper's latency story depends
// on: the live prototype never waits on the network without a bound.
// Every read or write of a connection reachable from the prototype
// packages must be dominated — on all paths, in the branch-local sense of
// the shared flow walker — by a SetDeadline/SetReadDeadline/
// SetWriteDeadline on that connection.
//
// The analysis is interprocedural one level deep, in both directions:
//
//   - A helper that arms a deadline satisfies its caller: summaries
//     record which parameters a function arms before returning.
//   - A helper that performs I/O on a handle it was given surfaces that
//     obligation at the call site: summaries record which parameters a
//     function reads or writes without arming them itself.
//
// Parameters and receivers are treated as armed at entry when checking a
// function body (the caller owns the deadline of a connection it hands
// over — that is what the io half of the summary enforces at the caller),
// and as unarmed when computing its summary. Handles that wrap other
// handles (proto.Writer/proto.Reader around a net.Conn, the srvConn and
// dirConn structs) are tracked by unioning aliases as they flow through
// assignments, so arming the connection covers the framing reader and
// writer built on top of it.
//
// Deliberately unbounded waits (the client's data-stream read loop, a
// server reading requests until the peer hangs up) carry a justified
// //lint:allow deadlinecheck.
var Deadlinecheck = &Analyzer{
	Name: "deadlinecheck",
	Doc:  "network reads and writes in the live prototype not bounded by a Set*Deadline on every path",
	Run:  runDeadlinecheck,
}

// deadlineSegments scopes the check to the packages that own live
// connections.
var deadlineSegments = []string{"internal/remote", "internal/proto", "internal/dirshard", "internal/load", "cmd/gmsnode"}

func pathInSegments(path string, segs []string) bool {
	for _, seg := range segs {
		if pathHasSegment(path, seg) {
			return true
		}
	}
	return false
}

// dlState is the flow fact: which handle roots have a deadline armed on
// the current path. A root is the base identifier of a handle expression
// ("sc" for both sc.conn and sc.w), and roots that alias — because one
// was built from or assigned the other — live in one union-find set, so
// arming any member arms them all. Reassigning a whole variable re-points
// it at a fresh set (a redialed connection does not inherit the old
// deadline).
type dlState struct {
	parent map[string]string
	armed  map[string]bool
	gen    *int
}

func newDLState() *dlState {
	gen := 0
	return &dlState{parent: map[string]string{}, armed: map[string]bool{}, gen: &gen}
}

func (s *dlState) clone() *dlState {
	c := &dlState{parent: make(map[string]string, len(s.parent)), armed: make(map[string]bool, len(s.armed)), gen: s.gen}
	for k, v := range s.parent {
		c.parent[k] = v
	}
	for k, v := range s.armed {
		c.armed[k] = v
	}
	return c
}

func (s *dlState) find(k string) string {
	for {
		p, ok := s.parent[k]
		if !ok || p == k {
			return k
		}
		k = p
	}
}

func (s *dlState) union(a, b string) {
	ra, rb := s.find(a), s.find(b)
	if ra == rb {
		return
	}
	s.parent[rb] = ra
	if s.armed[rb] {
		s.armed[ra] = true
		delete(s.armed, rb)
	}
}

// reset points k at a brand-new singleton set, severing old aliases and
// dropping any armed fact.
func (s *dlState) reset(k string) {
	*s.gen++
	fresh := k + "#" + strconv.Itoa(*s.gen)
	s.parent[fresh] = fresh
	s.parent[k] = fresh
}

func (s *dlState) arm(k string)          { s.armed[s.find(k)] = true }
func (s *dlState) isArmed(k string) bool { return s.armed[s.find(k)] }

// deadlineSummary is a function's deadline behavior at its boundary:
// arms holds the parameter indices (receiver = -1) guaranteed armed on
// the fall-through return path; io maps each parameter the function
// performs unarmed network I/O on to one representative description.
type deadlineSummary struct {
	arms map[int]bool
	io   map[int]string
}

var emptyDeadlineSummary = &deadlineSummary{}

func (p *Program) deadlineSummary(fn *types.Func) *deadlineSummary {
	if s, ok := p.dlSummaries[fn]; ok {
		return s
	}
	info := p.FuncOf(fn)
	if info == nil || info.Decl.Body == nil {
		p.dlSummaries[fn] = emptyDeadlineSummary
		return emptyDeadlineSummary
	}
	if p.dlInFlight[fn] {
		// Call cycle: stay conservative (no arms claimed, no io
		// surfaced) without memoizing the partial answer.
		return emptyDeadlineSummary
	}
	p.dlInFlight[fn] = true
	defer delete(p.dlInFlight, fn)

	sum := &deadlineSummary{arms: map[int]bool{}, io: map[int]string{}}
	w := &dlWalker{prog: p, info: info.Pkg.Info, params: paramIndexes(info.Decl), sum: sum}
	st := newDLState()
	for name := range w.params {
		st.parent[name] = name
	}
	w.flow().walk(info.Decl.Body.List, st)
	for name, idx := range w.params {
		if st.isArmed(name) {
			sum.arms[idx] = true
		}
	}
	p.dlSummaries[fn] = sum
	return sum
}

// paramIndexes maps receiver and parameter names to their summary index
// (receiver = -1, parameters from 0).
func paramIndexes(decl *ast.FuncDecl) map[string]int {
	params := map[string]int{}
	if decl.Recv != nil && len(decl.Recv.List) == 1 && len(decl.Recv.List[0].Names) == 1 {
		if n := decl.Recv.List[0].Names[0].Name; n != "_" {
			params[n] = -1
		}
	}
	if decl.Type.Params != nil {
		i := 0
		for _, field := range decl.Type.Params.List {
			if len(field.Names) == 0 {
				i++
				continue
			}
			for _, name := range field.Names {
				if name.Name != "_" {
					params[name.Name] = i
				}
				i++
			}
		}
	}
	return params
}

// dlWalker runs one function body. Exactly one of report (check mode) and
// sum (summary mode) is set.
type dlWalker struct {
	prog   *Program
	info   *types.Info
	params map[string]int
	report func(pos token.Pos, root, what string)
	sum    *deadlineSummary
}

func (w *dlWalker) flow() flowFuncs[*dlState] {
	return flowFuncs[*dlState]{
		clone: (*dlState).clone,
		stmt:  w.stmt,
		expr:  w.scanExpr,
	}
}

// stmt claims assignments so handle aliases flow between variables.
func (w *dlWalker) stmt(s ast.Stmt, st *dlState) bool {
	as, ok := s.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, e := range as.Rhs {
		w.scanExpr(e, st)
	}
	for i, lhs := range as.Lhs {
		w.scanExpr(lhs, st)
		root := w.root(lhs)
		if root == "" {
			continue
		}
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
			// Whole-variable (re)binding: the old aliases and any armed
			// fact no longer describe this variable.
			st.reset(root)
		}
		var sources []ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			sources = []ast.Expr{as.Rhs[i]}
		} else {
			sources = as.Rhs
		}
		for _, src := range sources {
			for _, hr := range w.handleRoots(src) {
				st.union(root, hr)
			}
		}
	}
	return true
}

// scanExpr walks one expression on the current path, firing arm/IO/
// summary events at calls. Function literals run on a cloned state.
func (w *dlWalker) scanExpr(e ast.Expr, st *dlState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// The literal's own parameters are handles its eventual
			// invoker hands over already armed (same caller-owns-the-
			// deadline convention as function parameters): exchange's
			// send callback writes on a writer exchange armed.
			inner := st.clone()
			if n.Type.Params != nil {
				for _, field := range n.Type.Params.List {
					for _, name := range field.Names {
						if name.Name != "_" {
							inner.parent[name.Name] = name.Name
							inner.arm(name.Name)
						}
					}
				}
			}
			w.flow().walk(n.Body.List, inner)
			return false
		case *ast.CallExpr:
			w.call(n, st)
		}
		return true
	})
}

func (w *dlWalker) call(call *ast.CallExpr, st *dlState) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		name := sel.Sel.Name
		if strings.HasPrefix(name, "Set") && strings.HasSuffix(name, "Deadline") {
			if root := w.root(sel.X); root != "" {
				st.arm(root)
			}
			return
		}
		if deadlineIOName(name) && w.handleish(sel.X) {
			w.site(call.Pos(), w.root(sel.X), name, st)
			return
		}
	}
	fn := staticCallee(w.info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if fn.Pkg().Path() == "io" && ioTransferFunc(fn.Name()) {
		for _, arg := range call.Args {
			if w.handleish(arg) {
				if root := w.root(arg); root != "" {
					w.site(call.Pos(), root, "io."+fn.Name(), st)
				}
			}
		}
		return
	}
	if w.prog == nil || w.prog.FuncOf(fn) == nil {
		return
	}
	sum := w.prog.deadlineSummary(fn)
	for idx := range sum.arms {
		if root := w.argRoot(call, idx); root != "" {
			st.arm(root)
		}
	}
	for idx, what := range sum.io {
		if root := w.argRoot(call, idx); root != "" {
			w.site(call.Pos(), root, fmt.Sprintf("call to %s, which does %s", fn.Name(), what), st)
		}
	}
}

// site handles one network-I/O event on root: in check mode an unarmed
// root is reported; in summary mode it is attributed to the parameter it
// aliases, if any.
func (w *dlWalker) site(pos token.Pos, root, what string, st *dlState) {
	if root == "" || st.isArmed(root) {
		return
	}
	if w.report != nil {
		w.report(pos, root, what)
		return
	}
	for name, idx := range w.params {
		if st.find(name) == st.find(root) {
			if _, dup := w.sum.io[idx]; !dup {
				w.sum.io[idx] = what
			}
		}
	}
}

// argRoot resolves the root of the argument bound to summary index idx
// (receiver for -1).
func (w *dlWalker) argRoot(call *ast.CallExpr, idx int) string {
	if idx < 0 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return w.root(sel.X)
		}
		return ""
	}
	if idx >= len(call.Args) {
		return ""
	}
	return w.root(call.Args[idx])
}

// root reduces a handle expression to its base identifier: sc.conn,
// sc.w and (*sc).r all root at "sc". A call rooted nowhere (such as
// proto.NewReader(conn).Next()) roots at its first handle argument.
func (w *dlWalker) root(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return ""
		}
		return e.Name
	case *ast.SelectorExpr:
		return w.root(e.X)
	case *ast.IndexExpr:
		return w.root(e.X)
	case *ast.StarExpr:
		return w.root(e.X)
	case *ast.TypeAssertExpr:
		return w.root(e.X)
	case *ast.UnaryExpr:
		return w.root(e.X)
	case *ast.CallExpr:
		for _, arg := range e.Args {
			if w.handleish(arg) {
				if r := w.root(arg); r != "" {
					return r
				}
			}
		}
	}
	return ""
}

// handleRoots collects the roots of every handle-typed expression inside
// e — the aliasing sources of an assignment's right-hand side.
func (w *dlWalker) handleRoots(e ast.Expr) []string {
	var roots []string
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		x, ok := n.(ast.Expr)
		if !ok || !w.handleish(x) {
			return true
		}
		if r := w.root(x); r != "" {
			roots = append(roots, r)
		}
		return true
	})
	return roots
}

// handleish reports whether e's static type is a deadline-bearing handle:
// anything with SetDeadline in its method set (net.Conn, *net.TCPConn,
// *tls.Conn, the fake conns in fixtures), or one of the prototype's
// framing types (proto.Reader/proto.Writer and structs embedding or
// holding them are reached via aliasing, not typing).
func (w *dlWalker) handleish(e ast.Expr) bool {
	tv, ok := w.info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return deadlineHandleType(tv.Type)
}

func deadlineHandleType(t types.Type) bool {
	t = types.Unalias(t)
	elem := t
	if ptr, ok := elem.(*types.Pointer); ok {
		elem = types.Unalias(ptr.Elem())
	}
	named, isNamed := elem.(*types.Named)
	if isNamed && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "os" {
		// os.File has SetDeadline too, but file reads (the timerfd
		// sleeper, pidfd plumbing) are not network waits.
		return false
	}
	if types.NewMethodSet(t).Lookup(nil, "SetDeadline") != nil {
		return true
	}
	if !isNamed || named.Obj().Pkg() == nil {
		return false
	}
	name, path := named.Obj().Name(), named.Obj().Pkg().Path()
	return (name == "Reader" || name == "Writer") && pathHasSegment(path, "internal/proto")
}

// deadlineIOName matches the blocking transfer methods of conns and the
// proto framing layer. Set*, Close, LocalAddr etc. fall through.
func deadlineIOName(name string) bool {
	for _, prefix := range []string{"Read", "Write", "Send", "Recv"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return name == "Next" || name == "Flush"
}

// ioTransferFunc matches the io package helpers that block on their
// reader/writer arguments.
func ioTransferFunc(name string) bool {
	switch name {
	case "ReadFull", "ReadAtLeast", "ReadAll", "Copy", "CopyN", "CopyBuffer", "WriteString":
		return true
	}
	return false
}

func runDeadlinecheck(pass *Pass) {
	if !pathInSegments(pass.Path, deadlineSegments) {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &dlWalker{
				prog:   pass.Prog,
				info:   pass.Info,
				params: paramIndexes(fd),
				report: func(pos token.Pos, root, what string) {
					pass.Reportf(pos, "network I/O (%s) on %q is not bounded by a deadline on every path; arm the connection with SetDeadline/SetReadDeadline/SetWriteDeadline first, or justify an unbounded wait with //lint:allow deadlinecheck <why>", what, root)
				},
			}
			st := newDLState()
			for name := range w.params {
				st.parent[name] = name
				st.arm(name)
			}
			w.flow().walk(fd.Body.List, st)
		}
	}
}
