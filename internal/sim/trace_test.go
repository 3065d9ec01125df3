package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"eds/internal/gen"
)

// sumKind names sumAlg's one message kind for its traces.
func sumKind(Message) string { return "sum" }

func TestTraceRecordsProfile(t *testing.T) {
	g := gen.Cycle(5)
	tr, opt := NewTrace(sumKind)
	res, err := RunSequential(g, sumAlg{rounds: 3}, opt)
	if err != nil {
		t.Fatalf("RunSequential: %v", err)
	}
	if len(tr.Rounds) != res.Rounds {
		t.Errorf("trace has %d rounds, result says %d", len(tr.Rounds), res.Rounds)
	}
	if tr.TotalMessages() != res.Messages {
		t.Errorf("trace counted %d messages, result says %d", tr.TotalMessages(), res.Messages)
	}
	totals := tr.KindTotals()
	if totals["sum"] != res.Messages {
		t.Errorf("KindTotals = %v, want all %d messages of kind sum", totals, res.Messages)
	}
	out := tr.String()
	for _, want := range []string{"rounds: 3", "sum", "busiest round"} {
		if !strings.Contains(out, want) {
			t.Errorf("String missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentHookUnsupported pins the ROADMAP fix: a hooked run on
// the concurrent engine must fail eagerly with the documented sentinel
// instead of silently dropping the hook, while the hook-capable engines
// accept the identical options. The error must carry the algorithm name
// (the engines' shared error shape) and must not be confused with
// cancellation.
func TestConcurrentHookUnsupported(t *testing.T) {
	g := gen.Cycle(5)
	tr, opt := NewTrace(sumKind)
	res, err := RunConcurrent(g, sumAlg{rounds: 3}, opt)
	if !errors.Is(err, ErrHookUnsupported) {
		t.Fatalf("RunConcurrent with hook: err = %v, want ErrHookUnsupported", err)
	}
	if res != nil {
		t.Errorf("RunConcurrent with hook returned a result alongside the error")
	}
	if errors.Is(err, ErrCanceled) {
		t.Errorf("hook-unsupported error must not wrap ErrCanceled: %v", err)
	}
	if !strings.Contains(err.Error(), `"degree-sum"`) {
		t.Errorf("error %q does not name the algorithm", err)
	}
	if len(tr.Rounds) != 0 {
		t.Errorf("trace recorded %d rounds from a rejected run", len(tr.Rounds))
	}
	// The rejection is checked before the context, so it wins even over
	// an already-canceled run: hook misuse is a programming error, not a
	// runtime condition.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunConcurrent(g, sumAlg{rounds: 3}, opt, WithContext(ctx)); !errors.Is(err, ErrHookUnsupported) {
		t.Errorf("canceled hooked run: err = %v, want ErrHookUnsupported", err)
	}
	// The hook-capable engines accept the same option set.
	for _, tc := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"sequential", func() (*Result, error) { _, o := NewTrace(sumKind); return RunSequential(g, sumAlg{rounds: 3}, o) }},
		{"sharded", func() (*Result, error) { _, o := NewTrace(sumKind); return RunSharded(g, sumAlg{rounds: 3}, o) }},
		{"auto", func() (*Result, error) { _, o := NewTrace(sumKind); return RunAuto(g, sumAlg{rounds: 3}, o) }},
	} {
		if _, err := tc.run(); err != nil {
			t.Errorf("%s engine rejected a hooked run: %v", tc.name, err)
		}
	}
}

func TestTraceEmptyRun(t *testing.T) {
	g := gen.PerfectMatching(2)
	tr, opt := NewTrace(func(Message) string { return "mark" })
	// markAlg stops after one round.
	if _, err := RunSequential(g, markAlg{}, opt); err != nil {
		t.Fatalf("RunSequential: %v", err)
	}
	if len(tr.Rounds) != 1 {
		t.Errorf("rounds = %d, want 1", len(tr.Rounds))
	}
}
