package harness

import (
	"strings"
	"testing"
)

func TestTable1AllRowsTight(t *testing.T) {
	rows, err := Table1(10, 9, 9)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if !r.Tight {
			t.Errorf("%s param=%d: measured %v != paper %v", r.Family, r.Param, r.Measured, r.Paper)
		}
		if r.Rounds > r.ScheduledRounds {
			t.Errorf("%s param=%d: rounds %d exceed schedule %d", r.Family, r.Param, r.Rounds, r.ScheduledRounds)
		}
	}
	text := FormatTable1(rows)
	for _, want := range []string{"d-regular (even)", "d-regular (odd)", "max degree Δ", "yes"} {
		if !strings.Contains(text, want) {
			t.Errorf("formatted table missing %q", want)
		}
	}
	if strings.Contains(text, " no\n") {
		t.Error("formatted table contains a non-tight row")
	}
}

func TestRandomRegularStudySmall(t *testing.T) {
	row, err := RandomRegularStudy(1, 3, 10, 5)
	if err != nil {
		t.Fatalf("RandomRegularStudy: %v", err)
	}
	if !row.Exact {
		t.Error("10-node instances should use the exact solver")
	}
	if row.WorstRatio > row.PaperBound+1e-9 {
		t.Errorf("worst ratio %.4f exceeds the paper bound %.4f", row.WorstRatio, row.PaperBound)
	}
	if row.AvgRatio < 1 {
		t.Errorf("average ratio %.4f below 1", row.AvgRatio)
	}
}

func TestRandomBoundedStudySmall(t *testing.T) {
	row, err := RandomBoundedStudy(2, 4, 10, 5)
	if err != nil {
		t.Fatalf("RandomBoundedStudy: %v", err)
	}
	if row.WorstRatio > row.PaperBound+1e-9 {
		t.Errorf("worst ratio %.4f exceeds the paper bound %.4f", row.WorstRatio, row.PaperBound)
	}
}

func TestRandomizedBaselineBeatsDeterministicBound(t *testing.T) {
	// On the Theorem 1 construction for d = 6, deterministic algorithms
	// are forced to ratio 4 - 2/6 ≈ 3.67; the randomized maximal
	// matching stays at 2 or below.
	row, err := RandomizedBaselineStudy(3, 6, 20)
	if err != nil {
		t.Fatalf("RandomizedBaselineStudy: %v", err)
	}
	if row.WorstRatio > 2+1e-9 {
		t.Errorf("randomized baseline worst ratio %.4f exceeds 2", row.WorstRatio)
	}
	if row.WorstRatio >= 4-2.0/6 {
		t.Errorf("randomized baseline did not beat the deterministic bound: %.4f", row.WorstRatio)
	}
}

func TestRandomizedBaselineRejectsOddD(t *testing.T) {
	if _, err := RandomizedBaselineStudy(1, 5, 3); err == nil {
		t.Error("odd d accepted")
	}
}

func TestRoundScalingIndependentOfN(t *testing.T) {
	for _, d := range []int{3, 4} {
		rows, err := RoundScaling(4, d, []int{16, 32, 64, 128})
		if err != nil {
			t.Fatalf("RoundScaling(d=%d): %v", d, err)
		}
		for _, r := range rows[1:] {
			if r.Rounds != rows[0].Rounds {
				t.Errorf("d=%d: rounds vary with n: %d at n=%d vs %d at n=%d",
					d, r.Rounds, r.N, rows[0].Rounds, rows[0].N)
			}
		}
		if !strings.Contains(FormatScaling(rows), rows[0].Algorithm) {
			t.Error("FormatScaling missing algorithm name")
		}
	}
}

func TestFormatStudy(t *testing.T) {
	row, err := RandomRegularStudy(5, 4, 12, 3)
	if err != nil {
		t.Fatalf("RandomRegularStudy: %v", err)
	}
	out := FormatStudy([]StudyRow{row})
	if !strings.Contains(out, "random d-regular") {
		t.Errorf("FormatStudy output missing family: %s", out)
	}
}
