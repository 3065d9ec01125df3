package lint

import (
	"go/ast"
	"go/types"

	"eds/internal/lint/analysis"
)

// AlgDeterminism enforces the port-numbering model's core constraint
// (Section 2 of the paper): a node's behaviour must be a deterministic
// function of its degree, its local state, and the messages it has
// received. Inside any method of a type implementing sim.Node or
// sim.Algorithm — including function literals nested in those methods,
// which is how the core package scripts its protocols — it reports:
//
//   - calls to time.Now / time.Since / time.Until (wall-clock input);
//   - any use of math/rand or math/rand/v2, seeded or not (the model
//     forbids coin flips; randomized baselines live outside sim.Node);
//   - iteration over a map that feeds message emission or port
//     selection (appends/stores producing []sim.Message or []int, or a
//     return from the loop): map order would make the emitted messages
//     engine- and run-dependent;
//   - reads of package-level variables (shared mutable state breaks
//     both determinism and the sharded engine's race-freedom).
//
// These are exactly the bugs the cross-engine equivalence suite cannot
// catch reliably: a map-ordered SendInto can agree across engines for
// many seeds and diverge on the next, so the property must hold by
// construction.
var AlgDeterminism = &analysis.Analyzer{
	Name: "algdeterminism",
	Doc:  "flag nondeterministic inputs (time, rand, map order, global state) in sim.Node/sim.Algorithm implementations",
	Run:  runAlgDeterminism,
}

func runAlgDeterminism(pass *analysis.Pass) (any, error) {
	sim := simPackage(pass.Pkg)
	if sim == nil {
		return nil, nil
	}
	nodeIface := simInterface(sim, "Node")
	algIface := simInterface(sim, "Algorithm")
	msgType := simNamedType(sim, "Message")
	if nodeIface == nil && algIface == nil {
		return nil, nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			recv := obj.Signature().Recv()
			if recv == nil {
				continue
			}
			if !implementsEither(recv.Type(), nodeIface) && !implementsEither(recv.Type(), algIface) {
				continue
			}
			checkDeterminism(pass, fd.Name.Name, fd.Body, msgType)
		}
	}
	return nil, nil
}

// checkDeterminism walks one algorithm-code region (a method body of a
// Node/Algorithm implementation, closures included).
func checkDeterminism(pass *analysis.Pass, method string, body ast.Node, msgType types.Type) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			obj := calleeObject(pass.TypesInfo, n)
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "time":
				switch obj.Name() {
				case "Now", "Since", "Until":
					pass.Reportf(n.Pos(), "call to time.%s in %s: node code must be a deterministic function of local state and received messages", obj.Name(), method)
				}
			case "math/rand", "math/rand/v2":
				pass.Reportf(n.Pos(), "use of %s.%s in %s: the port-numbering model forbids randomness in node code", obj.Pkg().Name(), obj.Name(), method)
			}
		case *ast.RangeStmt:
			t := pass.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if method == "SendInto" || method == "AppendOutput" || emitsFromLoop(pass, n.Body, msgType) {
				pass.Reportf(n.Pos(), "map iteration order feeds message emission or port selection in %s: emitted messages would differ between runs and engines; iterate sorted keys instead", method)
			}
		case *ast.Ident:
			obj, ok := pass.TypesInfo.Uses[n].(*types.Var)
			if !ok || obj.Pkg() == nil {
				return true
			}
			if obj.Parent() == obj.Pkg().Scope() {
				pass.Reportf(n.Pos(), "algorithm code in %s reads package-level state %s: node state must be confined to the Node value (shared state breaks determinism and the sharded engine's race-freedom)", method, obj.Name())
			}
		}
		return true
	})
}

// emitsFromLoop reports whether a map-range body produces messages or
// port numbers: it appends to or stores into a []sim.Message or []int,
// or returns (so iteration order picks the result).
func emitsFromLoop(pass *analysis.Pass, body ast.Node, msgType types.Type) bool {
	intSlice := types.NewSlice(types.Typ[types.Int])
	produces := func(t types.Type) bool {
		return t != nil && (isSliceOf(t, msgType) || types.Identical(t, intSlice))
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			found = true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" && produces(pass.TypeOf(n)) {
				found = true
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if produces(pass.TypeOf(lhs)) {
					found = true
				}
				if ix, ok := lhs.(*ast.IndexExpr); ok && produces(pass.TypeOf(ix.X)) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
