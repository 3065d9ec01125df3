package sim

import (
	"testing"

	"eds/internal/gen"
)

// TestEngineChoiceBoundary pins RunAuto's decision boundary: the
// cutover is derived from the port count (nodes×degree — the setup and
// per-round work volume), not the node count, and sharding is never
// chosen without usable parallelism. If AutoShardedPorts is retuned,
// this table is the place that must change with it.
func TestEngineChoiceBoundary(t *testing.T) {
	const cut = AutoShardedPorts
	cases := []struct {
		name            string
		n, ports, procs int
		want            string
	}{
		// Single CPU: sequential no matter the size — the sharded
		// engine's barriers cannot win without parallelism.
		{"1cpu-small", 100, 200, 1, "sequential"},
		{"1cpu-huge", 1_000_000, 3_000_000, 1, "sequential"},
		{"0cpu-degenerate", 100, 200, 0, "sequential"},

		// Multi-core: the port volume decides.
		{"below-cutover", cut / 2, cut - 1, 8, "sequential"},
		{"at-cutover", cut / 2, cut, 8, "sharded"},
		{"above-cutover", cut, 2 * cut, 8, "sharded"},

		// Many sparse nodes vs few dense nodes: ports, not n, decide.
		// The old node-count heuristic (n > 4096) got both of these
		// wrong — sharding port-free graphs and serializing dense ones.
		{"many-isolated-nodes", 100_000, 0, 8, "sequential"},
		{"few-dense-nodes", 300, 300 * 299, 8, "sharded"},

		{"2-procs-large", cut, 2 * cut, 2, "sharded"},
	}
	for _, tc := range cases {
		if got := EngineChoice(tc.n, tc.ports, tc.procs); got != tc.want {
			t.Errorf("%s: EngineChoice(n=%d, ports=%d, procs=%d) = %q, want %q",
				tc.name, tc.n, tc.ports, tc.procs, got, tc.want)
		}
	}
}

// TestRunAutoMatchesEngineChoice runs RunAuto on graphs straddling the
// boundary and checks the result matches the sequential engine —
// whatever engine the policy picked, Results must be identical.
func TestRunAutoMatchesEngineChoice(t *testing.T) {
	for _, n := range []int{64, AutoShardedPorts} { // cycle: 2n ports
		g := gen.Cycle(n)
		ref, err := RunSequential(g, sumAlg{rounds: 2})
		if err != nil {
			t.Fatalf("sequential n=%d: %v", n, err)
		}
		res, err := RunAuto(g, sumAlg{rounds: 2})
		if err != nil {
			t.Fatalf("auto n=%d: %v", n, err)
		}
		if res.Rounds != ref.Rounds || res.Messages != ref.Messages {
			t.Errorf("n=%d: auto %+v diverges from sequential %+v", n, res, ref)
		}
	}
}
