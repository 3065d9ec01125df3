package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"eds/internal/lint/analysis"
)

// engineBaseline is the set of engines whose result-equivalence the
// cross-engine suite (internal/sim/engines_test.go) asserts today. The
// server's result cache deliberately excludes the engine from its key
// because of exactly this property (see cacheKey in internal/server),
// so the two facts must move together.
var engineBaseline = map[string]bool{
	"sequential": true,
	"sharded":    true,
}

// EngineKey closes the ROADMAP's cache-key hazard mechanically. The
// edsd result cache serves one engine's output for every engine, which
// is sound only while every registered engine is result-equivalent. A
// new entry in the engine registry (the map literal returned by
// Engines()) therefore must carry one of two markers, each naming the
// obligation its author has discharged:
//
//	"mine": RunMine, // enginekey:equivalent — covered by engines_test.go
//	"rand": RunRand, // enginekey:cache-keyed — cacheKey includes engine
//
// An unmarked new engine is reported: either add it to the equivalence
// corpus and mark it enginekey:equivalent, or extend the server's
// cacheKey with an engine component and mark it enginekey:cache-keyed.
var EngineKey = &analysis.Analyzer{
	Name: "enginekey",
	Doc:  "require new engine registrations to assert result-equivalence or opt out of result-cache sharing",
	Run:  runEngineKey,
}

func runEngineKey(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		markers := markerLines(pass, file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Engines" || fd.Body == nil || !returnsEngineRegistry(pass, fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				if _, isMap := pass.TypeOf(lit).Underlying().(*types.Map); !isMap {
					return true
				}
				for _, elt := range lit.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					basic, ok := kv.Key.(*ast.BasicLit)
					if !ok {
						continue
					}
					name, err := strconv.Unquote(basic.Value)
					if err != nil || engineBaseline[name] {
						continue
					}
					line := pass.Fset.Position(kv.Pos()).Line
					if markers[line] {
						continue
					}
					pass.Reportf(kv.Pos(), "engine %q is not in the asserted-equivalent baseline: add it to the cross-engine equivalence suite and mark the entry `// enginekey:equivalent`, or extend the server result-cache key with an engine component and mark it `// enginekey:cache-keyed` — otherwise the cache would serve another engine's results for it", name)
				}
				return true
			})
		}
	}
	return nil, nil
}

// returnsEngineRegistry reports whether fn's single result is a
// map[string]F for some function type F — the engine registry shape.
func returnsEngineRegistry(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
	if !ok {
		return false
	}
	results := obj.Signature().Results()
	if results.Len() != 1 {
		return false
	}
	m, ok := results.At(0).Type().Underlying().(*types.Map)
	if !ok || !types.Identical(m.Key(), types.Typ[types.String]) {
		return false
	}
	_, isFunc := m.Elem().Underlying().(*types.Signature)
	return isFunc
}

// markerLines collects the lines carrying an enginekey marker comment.
func markerLines(pass *analysis.Pass, file *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := c.Text
			if containsMarker(text) {
				lines[pass.Fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

func containsMarker(text string) bool {
	return strings.Contains(text, "enginekey:equivalent") ||
		strings.Contains(text, "enginekey:cache-keyed")
}
