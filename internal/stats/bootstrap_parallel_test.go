package stats

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestBootstrapIdenticalAcrossWorkers is the stats-layer half of the
// serial ≡ parallel guarantee: for every seed × worker combination the
// interval must be identical to the Workers=1 run, bit for bit.
func TestBootstrapIdenticalAcrossWorkers(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		xs := make([]float64, 230)
		gen := NewRNG(seed)
		for i := range xs {
			xs[i] = gen.NormFloat64()
		}
		base := BootstrapConfig{Resamples: 500, Confidence: 0.95, Workers: 1}
		want, err := Bootstrap(NewRNG(seed), xs, base, meanOf)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 13} {
			cfg := base
			cfg.Workers = workers
			got, err := Bootstrap(NewRNG(seed), xs, cfg, meanOf)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("seed %d workers %d: interval %+v differs from serial %+v", seed, workers, got, want)
			}
		}
	}
}

func TestBootstrapIndexedIdenticalAcrossWorkers(t *testing.T) {
	vals := make([]float64, 173)
	gen := NewRNG(3)
	for i := range vals {
		vals[i] = gen.Float64()
	}
	sumIdx := func(idx []int) float64 {
		var s float64
		for _, i := range idx {
			s += vals[i]
		}
		return s / float64(len(idx))
	}
	for _, seed := range []uint64{1, 7, 42} {
		base := BootstrapConfig{Resamples: 321, Confidence: 0.9, Workers: 1}
		want, err := BootstrapIndexed(NewRNG(seed), len(vals), base, sumIdx)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 13} {
			cfg := base
			cfg.Workers = workers
			got, err := BootstrapIndexed(NewRNG(seed), len(vals), cfg, sumIdx)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("seed %d workers %d: interval %+v differs from serial %+v", seed, workers, got, want)
			}
		}
	}
}

func TestBootstrapWorkersValidation(t *testing.T) {
	cfg := BootstrapConfig{Resamples: 10, Confidence: 0.9, Workers: -2}
	if _, err := Bootstrap(NewRNG(1), []float64{1, 2, 3}, cfg, meanOf); err == nil {
		t.Fatal("negative Workers accepted")
	}
}

// TestBootstrapWorkerCountExceedingBlocks exercises the degenerate
// parallel shapes: more workers than blocks, and a resample count that
// does not divide the block size.
func TestBootstrapWorkerCountExceedingBlocks(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	serial := BootstrapConfig{Resamples: 70, Confidence: 0.8, Workers: 1}
	want, err := Bootstrap(NewRNG(2), xs, serial, meanOf)
	if err != nil {
		t.Fatal(err)
	}
	wide := serial
	wide.Workers = 32 // 70 resamples = 2 blocks; 32 workers mostly idle
	got, err := Bootstrap(NewRNG(2), xs, wide, meanOf)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("oversubscribed pool changed the interval: %+v vs %+v", got, want)
	}
}

// TestBootstrapCodesZeroWorkersRunsParallel pins Workers: 0 to
// GOMAXPROCS, as every other layer reads it: the first two resample
// calls must be in flight at once. A serial run blocks the first call
// at the barrier until the timeout, since the second never starts.
func TestBootstrapCodesZeroWorkersRunsParallel(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	codes := []uint8{0, 1, 2, 3, 1, 1, 0, 2}
	var calls, arrived atomic.Int32
	var timedOut atomic.Bool
	both := make(chan struct{})
	fn := func(cnt *[16]int) float64 {
		if calls.Add(1) == 1 {
			return 0 // the point estimate, on the calling goroutine
		}
		switch arrived.Add(1) {
		case 1:
			select {
			case <-both:
			case <-time.After(5 * time.Second):
				timedOut.Store(true)
			}
		case 2:
			close(both)
		}
		return float64(cnt[1])
	}
	cfg := BootstrapConfig{Resamples: 2 * bootstrapBlock, Confidence: 0.9, Workers: 0}
	if _, err := BootstrapCodes(NewRNG(1), codes, cfg, fn); err != nil {
		t.Fatal(err)
	}
	if timedOut.Load() {
		t.Fatal("Workers: 0 ran the resamples serially; want GOMAXPROCS workers")
	}
}
