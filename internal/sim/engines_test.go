// Cross-engine equivalence suite: the paper's algorithms executed on a
// corpus of port-numbered graph families must produce identical Results
// from the sequential engine, the sharded engine, and the dense
// test-only reference loop (sim.RunReference) — including error cases.
// This is the contract that lets the fast engine stand in for the model
// on large graphs.
//
// The file lives in package sim_test because it drives the real
// algorithms from internal/core, which itself imports sim.
package sim_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"eds/internal/core"
	"eds/internal/gen"
	"eds/internal/graph"
	"eds/internal/sim"
)

type engine struct {
	name string
	run  func(*graph.Graph, sim.Algorithm, ...sim.Option) (*sim.Result, error)
}

// engines lists the reference oracle first, then the engines held to
// it.
func engines() []engine {
	return []engine{
		{"reference", sim.RunReference},
		{"sequential", sim.RunSequential},
		{"sharded", sim.RunSharded},
	}
}

// algorithmsFor returns the paper's full algorithm set instantiated for
// the graph. Algorithms run even on families outside their guarantee
// (e.g. RegularOdd on an irregular graph): the output need not be a good
// edge dominating set, but every engine must still compute the same one.
func algorithmsFor(g *graph.Graph) []sim.Algorithm {
	delta := g.MaxDegree()
	if delta < 2 {
		delta = 2
	}
	return []sim.Algorithm{
		core.PortOne{},
		core.RegularOdd{},
		core.NewGeneral(delta),
		core.AllEdges{},
	}
}

// TestCrossEngineEquivalence runs every algorithm on every corpus graph
// with both engines and demands the reference's Outputs, Rounds and
// Messages — or its error.
func TestCrossEngineEquivalence(t *testing.T) {
	for _, ng := range gen.EquivalenceCorpus() {
		for _, alg := range algorithmsFor(ng.G) {
			t.Run(ng.Name+"/"+alg.Name(), func(t *testing.T) {
				ref, refErr := sim.RunReference(ng.G, alg)
				for _, e := range engines()[1:] {
					res, err := e.run(ng.G, alg)
					if (err == nil) != (refErr == nil) {
						t.Fatalf("%s: err = %v, reference err = %v", e.name, err, refErr)
					}
					if err != nil {
						if err.Error() != refErr.Error() {
							t.Fatalf("%s: err %q, reference err %q", e.name, err, refErr)
						}
						continue
					}
					if !reflect.DeepEqual(res.Outputs, ref.Outputs) {
						t.Errorf("%s: Outputs diverge from the reference", e.name)
					}
					if res.Rounds != ref.Rounds {
						t.Errorf("%s: Rounds = %d, reference %d", e.name, res.Rounds, ref.Rounds)
					}
					if res.Messages != ref.Messages {
						t.Errorf("%s: Messages = %d, reference %d", e.name, res.Messages, ref.Messages)
					}
				}
			})
		}
	}
}

// TestShardCountInvariance fixes the workload and sweeps the shard count:
// 1, 2, NumCPU, and one shard per node must all reproduce the sequential
// result exactly. Run under -race this also proves phase isolation.
func TestShardCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := gen.MustRandomRegular(rng, 30, 3)
	counts := []int{1, 2, runtime.NumCPU(), g.N()}
	for _, alg := range algorithmsFor(g) {
		ref, err := sim.RunSequential(g, alg)
		if err != nil {
			t.Fatalf("sequential %s: %v", alg.Name(), err)
		}
		for _, p := range counts {
			res, err := sim.RunSharded(g, alg, sim.WithShards(p))
			if err != nil {
				t.Fatalf("sharded %s shards=%d: %v", alg.Name(), p, err)
			}
			if !reflect.DeepEqual(res.Outputs, ref.Outputs) ||
				res.Rounds != ref.Rounds || res.Messages != ref.Messages {
				t.Errorf("%s: shards=%d diverges from sequential", alg.Name(), p)
			}
		}
	}
}

// TestTraceCrossEngineEquivalence runs every corpus workload with a
// trace attached on both engines and demands the identical
// round-by-round profile. This is the contract that lets -profile and
// the figures pipeline use the sharded engine on graphs too large for
// the sequential engine.
func TestTraceCrossEngineEquivalence(t *testing.T) {
	for _, ng := range gen.EquivalenceCorpus() {
		for _, alg := range algorithmsFor(ng.G) {
			t.Run(ng.Name+"/"+alg.Name(), func(t *testing.T) {
				seqTrace, seqOpt := sim.NewTrace(core.KindName)
				if _, err := sim.RunSequential(ng.G, alg, seqOpt); err != nil {
					t.Fatalf("sequential: %v", err)
				}
				shTrace, shOpt := sim.NewTrace(core.KindName)
				if _, err := sim.RunSharded(ng.G, alg, shOpt, sim.WithShards(runtime.NumCPU())); err != nil {
					t.Fatalf("sharded: %v", err)
				}
				if !reflect.DeepEqual(seqTrace.Rounds, shTrace.Rounds) {
					t.Errorf("traces diverge:\nsequential: %v\nsharded:    %v", seqTrace.Rounds, shTrace.Rounds)
				}
			})
		}
	}
}

// TestAutoHonoursHookAboveThreshold pins the fix for the silent
// fallback: RunAuto above AutoShardedThreshold used to reroute hooked
// runs to the sequential engine because the sharded engine dropped the
// hook. Now the sharded engine drives the hook itself, so an auto run on
// a large graph must produce the full trace.
func TestAutoHonoursHookAboveThreshold(t *testing.T) {
	n := sim.AutoShardedPorts // cycle: 2n ports, comfortably above the cutover
	g := gen.Cycle(n)
	tr, opt := sim.NewTrace(core.KindName)
	res, err := sim.RunAuto(g, core.PortOne{}, opt)
	if err != nil {
		t.Fatalf("RunAuto: %v", err)
	}
	if len(tr.Rounds) != res.Rounds {
		t.Fatalf("trace has %d rounds, result says %d", len(tr.Rounds), res.Rounds)
	}
	if tr.TotalMessages() != res.Messages {
		t.Fatalf("trace counted %d messages, result says %d", tr.TotalMessages(), res.Messages)
	}
	// Cross-check against the sequential engine on the same graph.
	refTrace, refOpt := sim.NewTrace(core.KindName)
	if _, err := sim.RunSequential(g, core.PortOne{}, refOpt); err != nil {
		t.Fatalf("sequential: %v", err)
	}
	if !reflect.DeepEqual(refTrace.Rounds, tr.Rounds) {
		t.Errorf("auto trace diverges from sequential engine")
	}
}

// cancelSendAlg never terminates on its own but cancels the attached
// context from SendInto at a fixed round — a deterministic mid-run
// cancellation point that exists identically in every engine.
type cancelSendAlg struct {
	cancel  context.CancelFunc
	atRound int
}

func (a cancelSendAlg) Name() string { return "cancel-send" }
func (a cancelSendAlg) BuildNodes(g *graph.Graph, lo, hi int, _ *sim.StateArena, nodes []sim.Node) {
	sim.BuildEach(g, lo, nodes, func(int) sim.Node { return cancelSendNode{alg: a} })
}

type cancelSendNode struct{ alg cancelSendAlg }

func (n cancelSendNode) SendInto(round int, buf []sim.Message) {
	if round >= n.alg.atRound {
		n.alg.cancel()
	}
}
func (cancelSendNode) Receive(round int, inbox []sim.Message) {}
func (cancelSendNode) Done() bool                             { return false }
func (cancelSendNode) AppendOutput(dst []int) []int           { return dst }

// awaitBaselineGoroutines waits for the goroutine count to return to the
// pre-run baseline, failing the test if it does not: a canceled engine
// must not leak its workers.
func awaitBaselineGoroutines(t *testing.T, label string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%s: %d goroutines still alive, baseline %d", label, runtime.NumGoroutine(), base)
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCancellationParity checks the WithContext contract on both
// engines and the reference: cancel-before-start, cancel-mid-run, and
// deadline-exceeded must surface the identical error (wrapping
// ErrCanceled plus the context cause) from every engine, return no
// Result, and leak no goroutines. Run under -race this also proves the cancellation path is
// race-free.
func TestCancellationParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := gen.MustRandomRegular(rng, 20, 3)

	check := func(t *testing.T, mkCtx func() context.Context, mkAlg func(context.CancelFunc) sim.Algorithm,
		wantCause error, opts ...sim.Option) {
		t.Helper()
		base := runtime.NumGoroutine()
		var msgs []string
		for _, e := range engines() {
			ctx := mkCtx()
			cancel := func() {}
			var alg sim.Algorithm = stuckAlg{}
			if mkAlg != nil {
				var ccancel context.CancelFunc
				ctx, ccancel = context.WithCancel(ctx)
				alg = mkAlg(ccancel)
				cancel = ccancel
			}
			res, err := e.run(g, alg, append([]sim.Option{sim.WithContext(ctx)}, opts...)...)
			cancel()
			if res != nil {
				t.Errorf("%s: got a Result alongside cancellation", e.name)
			}
			if !errors.Is(err, sim.ErrCanceled) {
				t.Fatalf("%s: err = %v, want ErrCanceled", e.name, err)
			}
			if wantCause != nil && !errors.Is(err, wantCause) {
				t.Errorf("%s: err = %v, want cause %v", e.name, err, wantCause)
			}
			msgs = append(msgs, err.Error())
			awaitBaselineGoroutines(t, e.name, base)
		}
		for _, m := range msgs[1:] {
			if m != msgs[0] {
				t.Errorf("cancellation errors differ across engines: %q vs %q", msgs[0], m)
			}
		}
	}

	t.Run("CancelBeforeStart", func(t *testing.T) {
		check(t, func() context.Context {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx
		}, nil, context.Canceled)
	})
	t.Run("DeadlineAlreadyExceeded", func(t *testing.T) {
		check(t, func() context.Context {
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			_ = cancel // ctx is already expired; engines never see Done undone
			return ctx
		}, nil, context.DeadlineExceeded)
	})
	t.Run("CancelMidRun", func(t *testing.T) {
		check(t, context.Background,
			func(cancel context.CancelFunc) sim.Algorithm {
				return cancelSendAlg{cancel: cancel, atRound: 3}
			}, context.Canceled)
	})
	t.Run("DeadlineMidRun", func(t *testing.T) {
		// A live deadline against an algorithm that never terminates:
		// each engine must notice at a round barrier and return well
		// within the test's patience, not after 100k rounds.
		base := runtime.NumGoroutine()
		for _, e := range engines() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			start := time.Now()
			_, err := e.run(g, stuckAlg{}, sim.WithContext(ctx), sim.WithMaxRounds(1<<30))
			elapsed := time.Since(start)
			cancel()
			if !errors.Is(err, sim.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%s: err = %v, want ErrCanceled wrapping DeadlineExceeded", e.name, err)
			}
			if elapsed > 5*time.Second {
				t.Errorf("%s: took %v to notice a 30ms deadline", e.name, elapsed)
			}
			awaitBaselineGoroutines(t, e.name, base)
		}
	})
}

// stuckAlg never terminates; every engine must surface ErrRoundLimit.
type stuckAlg struct{}

func (stuckAlg) Name() string { return "stuck" }
func (stuckAlg) BuildNodes(g *graph.Graph, lo, hi int, _ *sim.StateArena, nodes []sim.Node) {
	sim.BuildEach(g, lo, nodes, func(int) sim.Node { return stuckNode{} })
}

type stuckNode struct{}

func (stuckNode) SendInto(round int, buf []sim.Message)  {}
func (stuckNode) Receive(round int, inbox []sim.Message) {}
func (stuckNode) Done() bool                             { return false }
func (stuckNode) AppendOutput(dst []int) []int           { return dst }

// faultyAlg fails on the nodes in bad, and only there, in one of two
// ways: with nilNodes BuildNodes leaves them nil, otherwise they stop at
// once and output port 99. Every other node stops at once with no
// output.
type faultyAlg struct {
	bad      map[int]bool
	nilNodes bool
}

func (a faultyAlg) Name() string {
	if a.nilNodes {
		return "nil-node"
	}
	return "bad-output"
}

func (a faultyAlg) BuildNodes(g *graph.Graph, lo, hi int, _ *sim.StateArena, nodes []sim.Node) {
	for v := lo; v < hi; v++ {
		if !a.bad[v] {
			nodes[v-lo] = faultyNode{}
		} else if !a.nilNodes {
			nodes[v-lo] = faultyNode{port: 99}
		}
	}
}

// faultyNode is born done and outputs port, if nonzero.
type faultyNode struct{ port int }

func (faultyNode) SendInto(round int, buf []sim.Message)  {}
func (faultyNode) Receive(round int, inbox []sim.Message) {}
func (faultyNode) Done() bool                             { return true }
func (n faultyNode) AppendOutput(dst []int) []int {
	if n.port != 0 {
		dst = append(dst, n.port)
	}
	return dst
}

// TestEngineErrorParity checks that the failure modes surface
// identically from every engine and shard count: the round budget as
// ErrRoundLimit, and a node that BuildNodes left nil or that outputs an
// invalid port as one error naming the lowest offending node — never a
// panic.
func TestEngineErrorParity(t *testing.T) {
	t.Run("RoundLimit", func(t *testing.T) {
		g := gen.Cycle(6)
		var msgs []string
		for _, e := range engines() {
			_, err := e.run(g, stuckAlg{}, sim.WithMaxRounds(10))
			if !errors.Is(err, sim.ErrRoundLimit) {
				t.Fatalf("%s: err = %v, want ErrRoundLimit", e.name, err)
			}
			msgs = append(msgs, err.Error())
		}
		for _, m := range msgs[1:] {
			if m != msgs[0] {
				t.Errorf("round-limit errors differ: %q vs %q", msgs[0], m)
			}
		}
	})
	// Each case has two bad nodes, one in each half of the cycle: at
	// P = 2 and P = n they land in different shards, and the lower one
	// must win.
	g := gen.Cycle(64)
	runs := []engine{{"reference", sim.RunReference}, {"sequential", sim.RunSequential}}
	for _, p := range []int{1, 2, g.N()} {
		p := p
		runs = append(runs, engine{fmt.Sprintf("sharded/P=%d", p),
			func(g *graph.Graph, a sim.Algorithm, opts ...sim.Option) (*sim.Result, error) {
				return sim.RunSharded(g, a, append(opts, sim.WithShards(p))...)
			}})
	}
	for _, tc := range []struct {
		name string
		alg  faultyAlg
		want string
	}{
		{"NilNode", faultyAlg{bad: map[int]bool{17: true, 41: true}, nilNodes: true},
			`sim: algorithm "nil-node": BuildNodes left node 17 nil`},
		{"InvalidOutputPort", faultyAlg{bad: map[int]bool{23: true, 57: true}},
			`sim: algorithm "bad-output": node 23 output invalid port 99`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, e := range runs {
				res, err := e.run(g, tc.alg)
				if err == nil || err.Error() != tc.want {
					t.Errorf("%s: err = %v, want %q", e.name, err, tc.want)
				}
				if res != nil {
					t.Errorf("%s: got a Result alongside the error", e.name)
				}
			}
		})
	}
}
