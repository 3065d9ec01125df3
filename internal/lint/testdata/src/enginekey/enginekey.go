// Package enginekey is the enginekey fixture: an engine registry that
// grows three new entries — one unmarked (reported), one asserted
// result-equivalent, one opted out of result-cache sharing. The
// equivalence tests cannot catch the unmarked case at all: the hazard
// is not a wrong result today but a silently shared cache entry the day
// a non-equivalent engine lands.
package enginekey

import (
	"eds/internal/graph"
	"eds/internal/sim"
)

type runner = func(*graph.Graph, sim.Algorithm, ...sim.Option) (*sim.Result, error)

// Engines mirrors the real registry in eds/internal/sim/sharded.go.
func Engines() map[string]runner {
	return map[string]runner{
		"sequential": sim.RunSequential,
		"sharded":    sim.RunSharded,
		"frontier":   sim.RunSharded,    // want `not in the asserted-equivalent baseline`
		"replay":     sim.RunSequential, // enginekey:equivalent — asserted by TestEngineEquivalence
		"sampled":    sim.RunSharded,    // enginekey:cache-keyed — cacheKey carries an engine component for it
	}
}
