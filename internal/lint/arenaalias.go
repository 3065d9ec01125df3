package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"eds/internal/lint/analysis"
)

// ArenaAlias enforces the lifetime contract of sim.StateArena: slices
// carved with Ints/Bools (and the arena itself) live exactly as long as
// one run. The engines rewind the arenas when the run's state returns
// to the pool, so a carve retained beyond the run aliases memory that a
// later, unrelated run will zero and hand out again. Like the outbox
// buffers, the corruption shows only when a later run reuses the pooled
// arena, after the run that leaked the carve was compared and passed —
// precisely the class of divergence the equivalence suite cannot see.
//
// Within any function or closure that receives a *sim.StateArena
// parameter (BuildNodes implementations, program init hooks, carve
// helpers), the analyzer tracks the arena, the direct results of its
// Ints/Bools calls, and their local slice aliases, and reports:
//
//   - stores of the arena or a carved slice into a package-level
//     variable or any variable captured from an enclosing function;
//   - stores into a field of a sim.Algorithm implementor — algorithm
//     values outlive every run, so an arena-backed field is a dangling
//     view by the next Run* call (node state, which dies with the run,
//     may hold carves freely: that is what the arena is for);
//   - returning the arena or a carved slice from a method of a
//     sim.Algorithm implementor;
//   - sending either on a channel, or launching a goroutine that
//     captures one — BuildNodes is concurrency-safe only across
//     disjoint shard ranges, and an escaping goroutine outlives them
//     all.
//
// Free functions may return carves (carve helpers are the sanctioned
// pattern); the analysis is intraprocedural, so only direct
// arena.Ints/arena.Bools results are tracked through such helpers'
// bodies, not their call sites.
var ArenaAlias = &analysis.Analyzer{
	Name: "arenaalias",
	Doc:  "flag retention of sim.StateArena carves beyond the run that owns them",
	Run:  runArenaAlias,
}

func runArenaAlias(pass *analysis.Pass) (any, error) {
	sim := simPackage(pass.Pkg)
	if sim == nil {
		return nil, nil
	}
	arenaType := simNamedType(sim, "StateArena")
	algIface := simInterface(sim, "Algorithm")
	if arenaType == nil {
		return nil, nil
	}
	isArenaPtr := func(t types.Type) bool {
		p, ok := t.(*types.Pointer)
		return ok && types.Identical(p.Elem(), arenaType)
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var ftype *ast.FuncType
			var body *ast.BlockStmt
			var recv *ast.FieldList
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ftype, body, recv = fn.Type, fn.Body, fn.Recv
			case *ast.FuncLit:
				ftype, body = fn.Type, fn.Body
			default:
				return true
			}
			if body == nil || ftype.Params == nil {
				return true
			}
			arenas := map[types.Object]bool{}
			for _, field := range ftype.Params.List {
				for _, name := range field.Names {
					obj := pass.TypesInfo.Defs[name]
					if obj != nil && isArenaPtr(obj.Type()) {
						arenas[obj] = true
					}
				}
			}
			if len(arenas) > 0 {
				checkArenaRetention(pass, n, body, recv, arenas, algIface)
			}
			return true
		})
	}
	return nil, nil
}

// checkArenaRetention analyzes one function whose arena parameters seed
// the tracked set of carved slices.
func checkArenaRetention(pass *analysis.Pass, fn ast.Node, body *ast.BlockStmt, recv *ast.FieldList, arenas map[types.Object]bool, algIface *types.Interface) {
	info := pass.TypesInfo

	// isArenaExpr reports whether e denotes a tracked arena pointer.
	isArenaExpr := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && arenas[info.Uses[id]]
	}

	// carves holds local variables bound to arena-backed slices.
	carves := map[types.Object]bool{}

	// isCarve reports whether e is an arena-backed slice: a direct
	// arena.Ints/arena.Bools call, a reslice of one, or a tracked alias.
	var isCarve func(e ast.Expr) bool
	isCarve = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			return carves[info.Uses[e]]
		case *ast.SliceExpr:
			return isCarve(e.X)
		case *ast.CallExpr:
			sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr)
			if !ok || !isArenaExpr(sel.X) {
				return false
			}
			return sel.Sel.Name == "Ints" || sel.Sel.Name == "Bools"
		}
		return false
	}

	// Fixpoint: locals assigned from carves (or from other aliases)
	// join the tracked set, so `peer := arena.Ints(d); a.f = peer` is
	// still caught.
	addAlias := func(id *ast.Ident) bool {
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil || carves[obj] || !funcScopeContains(fn, obj) {
			return false
		}
		carves[obj] = true
		return true
	}
	for {
		grew := false
		ast.Inspect(body, func(n ast.Node) bool {
			if n, ok := n.(*ast.AssignStmt); ok {
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok || !isCarve(n.Rhs[i]) {
						continue
					}
					if addAlias(id) {
						grew = true
					}
				}
			}
			return true
		})
		if !grew {
			break
		}
	}

	rooted := func(e ast.Expr) bool { return isCarve(e) || isArenaExpr(e) }

	report := func(pos interface{ Pos() token.Pos }, what string) {
		pass.Reportf(pos.Pos(), "%s: arena memory is rewound and recycled when the run ends; carve per run or copy the data", what)
	}

	// onAlgorithm reports whether the base expression of a field store
	// is (a pointer to) a sim.Algorithm implementor.
	onAlgorithm := func(base ast.Expr) bool {
		t := pass.TypeOf(base)
		if t == nil {
			return false
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		return implementsEither(t, algIface)
	}

	// methodOnAlgorithm: does fn's receiver implement sim.Algorithm?
	// Only such methods are checked for carve returns — free carve
	// helpers (arenaInts and friends) legitimately return arena slices.
	methodOnAlgorithm := false
	if recv != nil && len(recv.List) > 0 {
		if t := pass.TypeOf(recv.List[0].Type); t != nil {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			methodOnAlgorithm = implementsEither(t, algIface)
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) || !rooted(n.Rhs[i]) {
					continue
				}
				switch l := ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr:
					if onAlgorithm(l.X) {
						report(n, "arena carve stored in an algorithm field")
					}
				case *ast.Ident:
					obj := info.Defs[l]
					if obj == nil {
						obj = info.Uses[l]
					}
					if obj != nil && !funcScopeContains(fn, obj) {
						report(n, "arena carve stored outside the function")
					}
				}
			}
		case *ast.ReturnStmt:
			if !methodOnAlgorithm {
				return true
			}
			for _, res := range n.Results {
				if rooted(res) {
					report(n, "arena carve returned from an algorithm method")
				}
			}
		case *ast.SendStmt:
			if rooted(n.Value) {
				report(n, "arena carve sent on a channel")
			}
		case *ast.GoStmt:
			captured := false
			ast.Inspect(n.Call, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := info.Uses[id]; carves[obj] || arenas[obj] {
						captured = true
					}
				}
				return !captured
			})
			if captured {
				report(n, "arena captured by a goroutine")
			}
		}
		return true
	})
}
