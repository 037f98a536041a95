package workload

import (
	"strings"
	"testing"

	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/svclang/reference"
)

// TestOracleProbeReductionStandardCorpus asserts the pruning payoff the
// vd_oracle_* telemetry reports: labelling a standard corpus (the
// experiment default's shape) must execute at most a fifth of the
// exhaustive probe space. It runs the pruned search itself, once per
// distinct service as corpus labelling does (renamed instantiations of
// one template share an oracle-cache entry), rather than through
// Generate, whose process-wide oracle cache would elide every probe on a
// repeated run.
func TestOracleProbeReductionStandardCorpus(t *testing.T) {
	corpus, err := Generate(Config{Services: 200, TargetPrevalence: 0.35, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	before := svclang.OracleTotalsSnapshot()
	for _, cs := range corpus.Cases {
		// The printed form's first line carries only the service name.
		_, body, _ := strings.Cut(svclang.Print(cs.Service), "\n")
		if seen[body] {
			continue
		}
		seen[body] = true
		if _, err := svclang.AnalyzeProbing(cs.Service, reference.Probe); err != nil {
			t.Fatalf("%s: %v", cs.Service.Name, err)
		}
	}
	after := svclang.OracleTotalsSnapshot()
	executed := after.Probes - before.Probes
	space := executed + (after.Pruned - before.Pruned)
	if space == 0 {
		t.Fatal("the pruned search advanced no oracle counters")
	}
	if executed*5 > space {
		t.Fatalf("pruned oracle executed %d of %d exhaustive probes (%.1fx): below the 5x bar",
			executed, space, float64(space)/float64(executed))
	}
	t.Logf("oracle pruning: executed=%d space=%d reduction=%.1fx early-exits=%d",
		executed, space, float64(space)/float64(executed), after.EarlyExits-before.EarlyExits)
}
