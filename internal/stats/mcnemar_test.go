package stats

import (
	"math"
	"testing"
)

func TestChiSquare1PValue(t *testing.T) {
	cases := []struct {
		x, want float64
	}{
		{0, 1},
		{3.841, 0.05}, // the classic 5% critical value
		{6.635, 0.01},
		{10.828, 0.001},
	}
	for _, c := range cases {
		got := chiSquare1PValue(c.x)
		if math.Abs(got-c.want) > 0.0005 {
			t.Errorf("p(chi2 >= %g) = %g, want ~%g", c.x, got, c.want)
		}
	}
}

func TestMcNemarKnownExample(t *testing.T) {
	// Textbook example: b=10, c=2 -> chi2 = (|10-2|-1)^2/12 = 49/12 ≈ 4.083,
	// p ≈ 0.0433.
	res, err := McNemar(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Statistic-49.0/12.0) > 1e-12 {
		t.Fatalf("statistic = %g", res.Statistic)
	}
	if math.Abs(res.PValue-0.0433) > 0.001 {
		t.Fatalf("p = %g, want ~0.0433", res.PValue)
	}
	if !res.Significant(0.05) || res.Significant(0.01) {
		t.Fatal("significance thresholds wrong")
	}
}

func TestMcNemarNoDiscordance(t *testing.T) {
	res, err := McNemar(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue != 1 || res.Statistic != 0 {
		t.Fatalf("no-evidence case: %+v", res)
	}
	// Perfectly balanced disagreement is maximally insignificant too.
	res, _ = McNemar(5, 5)
	if res.Significant(0.05) {
		t.Fatalf("balanced disagreement significant? p=%g", res.PValue)
	}
}

func TestMcNemarValidation(t *testing.T) {
	if _, err := McNemar(-1, 0); err == nil {
		t.Fatal("negative count accepted")
	}
}

func TestMcNemarPowerGrowsWithImbalance(t *testing.T) {
	weak, _ := McNemar(6, 4)
	strong, _ := McNemar(30, 4)
	if strong.PValue >= weak.PValue {
		t.Fatalf("more imbalance should mean smaller p: %g vs %g", strong.PValue, weak.PValue)
	}
	if !strong.Significant(0.001) {
		t.Fatalf("30 vs 4 should be highly significant, p=%g", strong.PValue)
	}
}
