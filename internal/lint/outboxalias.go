package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"eds/internal/lint/analysis"
)

// OutboxAlias enforces the lifetime contract of the engines' flat
// message buffers. The engines hand round hooks a zero-copy view of
// their outbox ([][]sim.Message backed by one flat array), reuse the
// inbox slice they pass to Receive, and hand SendInto — and Output,
// once after the last round — a window into the pooled flat outbox
// itself; all are overwritten at the next round barrier, and the pooled
// buffers outlive the run — a retained SendInto or Output slice can
// alias a later, unrelated run's outbox. Any code that retains such a
// slice past the call observes torn, recycled data — and only on the
// engines that reuse buffers, which is exactly the class of divergence
// the equivalence suite can miss when the retained data is inspected
// after the run.
//
// Within any function or closure that receives a []sim.Message or
// [][]sim.Message parameter (hook callbacks, Receive implementations,
// SendInto and Output implementations, trace sinks), the analyzer
// tracks the parameter and its local slice aliases and reports:
//
//   - stores of an aliased slice into a struct field, map/slice
//     element, package-level variable, or a variable captured from an
//     enclosing function;
//   - append of an aliased slice header (not its elements) onto
//     another slice;
//   - returning an aliased slice;
//   - sending an aliased slice on a channel or launching a goroutine
//     that captures one.
//
// Copying element values (messages themselves) is always fine; the
// analyzer only chases slice headers that point into the engine's
// buffers.
var OutboxAlias = &analysis.Analyzer{
	Name: "outboxalias",
	Doc:  "flag retention of engine-owned message buffers ([]sim.Message views) beyond the callback that received them",
	Run:  runOutboxAlias,
}

func runOutboxAlias(pass *analysis.Pass) (any, error) {
	sim := simPackage(pass.Pkg)
	if sim == nil {
		return nil, nil
	}
	msgType := simNamedType(sim, "Message")
	if msgType == nil {
		return nil, nil
	}
	bufType := func(t types.Type) bool {
		if t == nil {
			return false
		}
		if isSliceOf(t, msgType) {
			return true
		}
		s, ok := t.(*types.Slice)
		return ok && isSliceOf(s.Elem(), msgType)
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var ftype *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ftype, body = fn.Type, fn.Body
			case *ast.FuncLit:
				ftype, body = fn.Type, fn.Body
			default:
				return true
			}
			if body == nil || ftype.Params == nil {
				return true
			}
			rooted := map[types.Object]bool{}
			for _, field := range ftype.Params.List {
				for _, name := range field.Names {
					obj := pass.TypesInfo.Defs[name]
					if obj != nil && bufType(obj.Type()) {
						rooted[obj] = true
					}
				}
			}
			if len(rooted) > 0 {
				checkBufferRetention(pass, n, body, rooted)
			}
			return true
		})
	}
	return nil, nil
}

// checkBufferRetention analyzes one function whose rooted set seeds the
// buffer-derived slice aliases.
func checkBufferRetention(pass *analysis.Pass, fn ast.Node, body *ast.BlockStmt, rooted map[types.Object]bool) {
	info := pass.TypesInfo

	// isRootedSlice reports whether e is a slice expression backed by an
	// engine buffer: the parameter itself, an indexed row, a reslice, or
	// a local alias of one of those.
	var isRootedSlice func(e ast.Expr) bool
	isRootedSlice = func(e ast.Expr) bool {
		t := pass.TypeOf(e)
		if t == nil {
			return false
		}
		if _, ok := t.Underlying().(*types.Slice); !ok {
			return false
		}
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			return rooted[info.Uses[e]]
		case *ast.IndexExpr:
			return isRootedSlice(e.X)
		case *ast.SliceExpr:
			return isRootedSlice(e.X)
		}
		return false
	}

	// Fixpoint: a local variable assigned from a rooted slice joins the
	// rooted set, so `row := sent[v]; s.f = row` is still caught.
	addAlias := func(id *ast.Ident) bool {
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil || rooted[obj] || !funcScopeContains(fn, obj) {
			return false
		}
		rooted[obj] = true
		return true
	}
	for {
		grew := false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok || !isRootedSlice(n.Rhs[i]) {
						continue
					}
					if addAlias(id) {
						grew = true
					}
				}
			case *ast.RangeStmt:
				// for _, row := range sent: row aliases a matrix row.
				id, ok := n.Value.(*ast.Ident)
				if !ok || !isRootedSlice(n.X) {
					return true
				}
				if t := pass.TypeOf(id); t != nil {
					if _, isSlice := t.Underlying().(*types.Slice); isSlice && addAlias(id) {
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

	report := func(pos interface{ Pos() token.Pos }, what string) {
		pass.Reportf(pos.Pos(), "%s: the slice is a view of an engine-owned buffer that is overwritten at the next round barrier; copy the data instead", what)
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) || !isRootedSlice(n.Rhs[i]) {
					continue
				}
				switch l := ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr:
					report(n, "outbox-backed slice stored in a field")
				case *ast.IndexExpr:
					if !isRootedSlice(l.X) {
						report(n, "outbox-backed slice stored in a container element")
					}
				case *ast.Ident:
					obj := info.Defs[l]
					if obj == nil {
						obj = info.Uses[l]
					}
					if obj != nil && !funcScopeContains(fn, obj) {
						report(n, "outbox-backed slice stored outside the callback")
					}
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 1 {
				for _, arg := range n.Args[1:] {
					if !isRootedSlice(arg) {
						continue
					}
					if n.Ellipsis.IsValid() && arg == n.Args[len(n.Args)-1] {
						// append(dst, buf...) copies the elements; that
						// aliases engine memory only when the elements
						// are themselves slice headers (matrix rows).
						s, ok := pass.TypeOf(arg).Underlying().(*types.Slice)
						if !ok {
							continue
						}
						if _, elemIsSlice := s.Elem().Underlying().(*types.Slice); !elemIsSlice {
							continue
						}
					}
					report(n, "outbox-backed slice appended to another slice")
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if isRootedSlice(res) {
					report(n, "outbox-backed slice returned from the callback")
				}
			}
		case *ast.SendStmt:
			if isRootedSlice(n.Value) {
				report(n, "outbox-backed slice sent on a channel")
			}
		case *ast.GoStmt:
			captured := false
			ast.Inspect(n.Call, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && rooted[info.Uses[id]] {
					captured = true
				}
				return !captured
			})
			if captured {
				report(n, "outbox-backed slice captured by a goroutine")
			}
		}
		return true
	})
}
