package core

import (
	"testing"

	"eds/internal/gen"
	"eds/internal/sim"
)

// TestRegularOddPhaseWindows verifies the protocol structure round by
// round: label exchange exactly in round 0, only propose/respond traffic
// during phase I (rounds 1..2d²), only probe traffic during phase II.
func TestRegularOddPhaseWindows(t *testing.T) {
	g := gen.Complete(4) // 3-regular
	const d = 3
	tr, opt := sim.NewTrace(KindName)
	if _, err := sim.RunSequential(g, RegularOdd{}, opt); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(tr.Rounds) != 1+4*d*d {
		t.Fatalf("rounds = %d, want %d", len(tr.Rounds), 1+4*d*d)
	}
	for _, r := range tr.Rounds {
		for k := range r.ByKind {
			var ok bool
			switch {
			case r.Round == 0:
				ok = k == kindLabel.String()
			case r.Round <= 2*d*d:
				ok = k == kindPropose.String() || k == kindRespond.String()
			default:
				ok = k == kindProbe.String() || k == kindProbeRespond.String()
			}
			if !ok {
				t.Errorf("round %d: unexpected message kind %s", r.Round, k)
			}
		}
	}
}

// TestGeneralPhaseWindows does the same for A(Δ): label exchange, phase
// I pair traffic, then only status/proposal/answer traffic.
func TestGeneralPhaseWindows(t *testing.T) {
	g := gen.Petersen()
	alg := NewGeneral(3)
	delta := alg.Delta()
	tr, opt := sim.NewTrace(KindName)
	if _, err := sim.RunSequential(g, alg, opt); err != nil {
		t.Fatalf("run: %v", err)
	}
	phaseIEnd := 2 * delta * delta // rounds 1..phaseIEnd are phase I
	for _, r := range tr.Rounds {
		for k := range r.ByKind {
			var ok bool
			switch {
			case r.Round == 0:
				ok = k == kindLabel.String()
			case r.Round <= phaseIEnd:
				ok = k == kindPropose.String() || k == kindRespond.String()
			default:
				ok = k == kindStatus.String() ||
					k == kindProposal.String() ||
					k == kindAnswer.String()
			}
			if !ok {
				t.Errorf("round %d: unexpected message kind %s", r.Round, k)
			}
		}
	}
	// The status broadcasts happen in exactly Δ rounds (one per phase II
	// iteration plus the phase III opener).
	statusRounds := 0
	for _, r := range tr.Rounds {
		if r.ByKind[kindStatus.String()] > 0 {
			statusRounds++
		}
	}
	if want := delta - 1 + 1; statusRounds != want {
		t.Errorf("status rounds = %d, want %d", statusRounds, want)
	}
}
