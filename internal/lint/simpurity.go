package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// Simpurity guards the determinism of the trace-driven simulator.
//
// Model code — the packages that produce the paper's numbers — must be
// bit-reproducible: it advances a seeded event clock, draws randomness
// from the seeded internal/rng, and never observes the wall clock or Go's
// randomized map iteration order in its output. Three rules at two scopes:
//
//   - In the model packages (internal/sim, internal/core,
//     internal/experiments, internal/analytic, and internal/obs, whose
//     tracer and exposition must be byte-reproducible): no wall clock at
//     all (time.Now/Since/Sleep/After/...), no math/rand import
//     (internal/rng is the seeded, version-stable source), and no printing
//     from inside a range over a map.
//   - Everywhere: no global math/rand top-level functions (shared,
//     unseeded process state; constructing a seeded *rand.Rand via
//     rand.New(rand.NewSource(seed)) is fine), and no time.Now/time.Since
//     outside the live-prototype packages (wallClockExempt: the RPC path's
//     deadlines and latency stats, and the load harness's throughput and
//     SLO measurements, genuinely are wall-clock) — prototype timing paths
//     elsewhere carry a justified //lint:allow instead.
var Simpurity = &Analyzer{
	Name: "simpurity",
	Doc:  "wall clock, unseeded randomness and map-ordered output in deterministic simulator code",
	Run:  runSimpurity,
}

var modelSegments = []string{"internal/sim", "internal/core", "internal/experiments", "internal/analytic", "internal/obs"}

func isModelPkg(path string) bool {
	for _, seg := range modelSegments {
		if pathHasSegment(path, seg) {
			return true
		}
	}
	return false
}

// Seeded constructors of math/rand: building a local generator from an
// explicit seed is exactly what the rule wants, so these are exempt.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func isRandPath(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

// wallClockExempt lists the live-prototype packages whose use of the wall
// clock is the point: RPC deadlines in internal/proto (Conn.Call, the one
// place a request/reply exchange is bounded), attempt timers and latency
// stats in internal/remote, real-time service emulation in the sharded directory, the load
// harness's wall-clock throughput/latency measurements, and the
// directory journal's recovery/replay timings (its fsync cadence and the
// `make bench` dirlog section measure real disk time).
var wallClockExempt = []string{"internal/proto", "internal/remote", "internal/dirshard", "internal/load", "internal/dirlog"}

func isWallClockExempt(path string) bool {
	for _, seg := range wallClockExempt {
		if pathHasSegment(path, seg) {
			return true
		}
	}
	return false
}

func runSimpurity(pass *Pass) {
	model := isModelPkg(pass.Path)
	wallClockScope := !isWallClockExempt(pass.Path)
	for _, f := range pass.Files {
		if model {
			for _, imp := range f.Imports {
				if path, err := strconv.Unquote(imp.Path.Value); err == nil && isRandPath(path) {
					pass.Reportf(imp.Pos(), "model code imports %s; use the seeded internal/rng so experiment output is stable across runs and Go versions", path)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CallExpr:
				checkPurityCall(pass, e, model, wallClockScope)
			case *ast.RangeStmt:
				if model {
					checkMapOrderOutput(pass, e)
				}
			}
			return true
		})
	}
}

// calleeFunc resolves the *types.Func a call invokes, if any.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.Info.Uses[id].(*types.Func)
	return fn
}

func checkPurityCall(pass *Pass, call *ast.CallExpr, model, wallClockScope bool) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return
	}
	switch {
	case pkg == "time" && sig.Recv() == nil:
		switch name {
		case "Now", "Since":
			if wallClockScope {
				pass.Reportf(call.Pos(), "wall-clock time.%s in simulator code; model time advances on the event clock (prototype timing paths: //lint:allow simpurity <why>)", name)
			}
		case "Sleep", "After", "Tick", "NewTimer", "NewTicker", "AfterFunc":
			if model {
				pass.Reportf(call.Pos(), "time.%s in model code; the simulator advances via the event clock, never by real waiting", name)
			}
		}
	case isRandPath(pkg) && sig.Recv() == nil && !seededConstructors[name]:
		pass.Reportf(call.Pos(), "global math/rand.%s draws from shared, unseeded process-wide state; use a seeded *rand.Rand or internal/rng", name)
	}
}

// checkMapOrderOutput flags printing from inside a range over a map: the
// iteration order is randomized per run, so anything emitted inside the
// loop is nondeterministic output.
func checkMapOrderOutput(pass *Pass, rng *ast.RangeStmt) {
	if _, ok := types.Unalias(pass.Info.Types[rng.X].Type).Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
			return true
		}
		if strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint") {
			pass.Reportf(call.Pos(), "fmt.%s inside a range over a map emits in nondeterministic order; collect the keys, sort, then print", fn.Name())
		}
		return true
	})
}
