package workload

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/svclang/compile"
)

// TestGenerateMatchesReferenceEngine labels corpora on the reference
// engine — the tree-walking interpreter with the exhaustive oracle
// search — and requires them deep-equal to Generate's, labels and
// witnesses included. The configs are the experiments' cross-worker
// corpus (30 services at prevalence 0.35) at the determinism seeds, and
// E13's 8:1 SQL-to-command skewed corpus.
func TestGenerateMatchesReferenceEngine(t *testing.T) {
	var skewed []svclang.SinkKind
	for i := 0; i < 8; i++ {
		skewed = append(skewed, svclang.SinkSQL)
	}
	skewed = append(skewed, svclang.SinkCmd)
	var cfgs []Config
	for _, seed := range []uint64{1, 7, 42} {
		cfgs = append(cfgs,
			Config{Services: 30, TargetPrevalence: 0.35, Seed: seed},
			Config{Services: 30, TargetPrevalence: 0.35, Kinds: skewed, Seed: seed + 13})
	}
	for _, cfg := range cfgs {
		t.Run(fmt.Sprintf("seed=%d/kinds=%d", cfg.Seed, len(cfg.Kinds)), func(t *testing.T) {
			want, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := generate(cfg, compile.NewReferenceEngine())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("reference-engine corpus differs from the production corpus")
			}
		})
	}
}
