package smo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/sparse"
)

// tiny hand-checkable dataset: two separable clusters in 1-D.
func tinyData() (*sparse.Matrix, []float64) {
	x := sparse.FromDense([][]float64{
		{-2}, {-1.5}, {-1.2}, {1.2}, {1.5}, {2},
	})
	y := []float64{-1, -1, -1, 1, 1, 1}
	return x, y
}

func defaultCfg() Config {
	return Config{
		Kernel:  kernel.Params{Type: kernel.Gaussian, Gamma: 0.5},
		C:       10,
		Eps:     1e-3,
		Workers: 1,
	}
}

func TestTrainTinySeparable(t *testing.T) {
	x, y := tinyData()
	res, err := Train(x, y, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if err := res.Model.Validate(); err != nil {
		t.Fatal(err)
	}
	// The trained model must classify its own training set perfectly.
	mt, err := res.Model.Evaluate(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Accuracy != 100 {
		t.Fatalf("training accuracy = %v%%, want 100%%", mt.Accuracy)
	}
	if res.Model.NumSV() < 2 {
		t.Fatalf("only %d SVs", res.Model.NumSV())
	}
}

func TestTrainInputValidation(t *testing.T) {
	x, y := tinyData()
	cfg := defaultCfg()

	if _, err := Train(x, y[:3], cfg); err == nil {
		t.Error("mismatched labels accepted")
	}
	bad := cfg
	bad.C = 0
	if _, err := Train(x, y, bad); err == nil {
		t.Error("C=0 accepted")
	}
	bad = cfg
	bad.Kernel.Gamma = -1
	if _, err := Train(x, y, bad); err == nil {
		t.Error("invalid kernel accepted")
	}
	oneClass := []float64{1, 1, 1, 1, 1, 1}
	if _, err := Train(x, oneClass, cfg); err == nil {
		t.Error("single-class data accepted")
	}
	badLabels := []float64{0, 1, -1, 1, -1, 1}
	if _, err := Train(x, badLabels, cfg); err == nil {
		t.Error("non ±1 labels accepted")
	}
	small, _ := x.SubMatrix(0, 1)
	if _, err := Train(small, y[:1], cfg); err == nil {
		t.Error("n=1 accepted")
	}
}

func TestConvergenceQualityOnSyntheticData(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.2) // 400 samples
	cfg := Config{Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3, Workers: 2}
	res, err := Train(ds.X, ds.Y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	if res.Objective <= 0 {
		t.Fatalf("dual objective = %v, want > 0", res.Objective)
	}
	mt, err := res.Model.Evaluate(ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Accuracy < 90 {
		t.Fatalf("training accuracy = %v%%", mt.Accuracy)
	}
	if res.Model.SVFraction() >= 0.9 {
		t.Fatalf("SV fraction = %v; expected a small fraction of samples", res.Model.SVFraction())
	}
}

func TestParallelWorkersMatchSequential(t *testing.T) {
	// Drive the chunked gradient pass on this small problem too.
	defer func(m int) { minParallelActive = m }(minParallelActive)
	minParallelActive = 16

	ds := dataset.MustGenerate("blobs", 0.15)
	for _, shrink := range []bool{false, true} {
		cfgSeq := Config{Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3, Workers: 1,
			Shrinking: shrink, ShrinkEvery: 50}
		r1, err := Train(ds.X, ds.Y, cfgSeq)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 4} {
			cfgPar := cfgSeq
			cfgPar.Workers = workers
			r2, err := Train(ds.X, ds.Y, cfgPar)
			if err != nil {
				t.Fatal(err)
			}
			// The gradient update is a pure map over disjoint chunks and
			// the chunk scans merge in index order, so the iterate
			// sequence must be identical regardless of worker count.
			if r1.Iterations != r2.Iterations {
				t.Fatalf("workers=%d shrink=%v: iterations differ: %d vs %d", workers, shrink, r1.Iterations, r2.Iterations)
			}
			if math.Float64bits(r1.Beta) != math.Float64bits(r2.Beta) {
				t.Fatalf("workers=%d shrink=%v: beta differs: %v vs %v", workers, shrink, r1.Beta, r2.Beta)
			}
			for i := range r1.Alpha {
				if math.Float64bits(r1.Alpha[i]) != math.Float64bits(r2.Alpha[i]) {
					t.Fatalf("workers=%d shrink=%v: alpha[%d] differs: %v vs %v", workers, shrink, i, r1.Alpha[i], r2.Alpha[i])
				}
			}
		}
	}
}

// TestCacheCounters checks that every row request is counted exactly once:
// a cold first-order run asks for two rows per iteration.
func TestCacheCounters(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.15)
	for _, budget := range []int64{0, 64 << 10, 64 << 20} {
		cfg := Config{Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3, Workers: 1, CacheBytes: budget}
		res, err := Train(ds.X, ds.Y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.CacheHits+res.CacheMisses, 2*uint64(res.Iterations); got != want {
			t.Errorf("cache %d B: hits+misses = %d+%d, want %d (2 x %d iterations)",
				budget, res.CacheHits, res.CacheMisses, want, res.Iterations)
		}
		if budget == 0 && res.CacheHits != 0 {
			t.Errorf("cache disabled but %d hits counted", res.CacheHits)
		}
		if budget == 64<<20 && res.CacheHits == 0 {
			t.Errorf("64 MiB cache never hit")
		}
	}
}

func TestCacheDoesNotChangeResult(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.15)
	base := Config{Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3, Workers: 2}
	withCache := base
	withCache.CacheBytes = 64 << 20
	r1, err := Train(ds.X, ds.Y, base)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Train(ds.X, ds.Y, withCache)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Iterations != r2.Iterations || math.Abs(r1.Model.Beta-r2.Model.Beta) > 1e-12 {
		t.Fatalf("cache changed the result: iters %d vs %d, beta %v vs %v",
			r1.Iterations, r2.Iterations, r1.Model.Beta, r2.Model.Beta)
	}
	if r2.CacheHits == 0 {
		t.Fatal("cache enabled but never hit")
	}
	if r2.KernelEvals >= r1.KernelEvals {
		t.Fatalf("cache did not reduce kernel evals: %d vs %d", r2.KernelEvals, r1.KernelEvals)
	}
}

func TestShrinkingPreservesAccuracy(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.25)
	base := Config{Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3, Workers: 2}
	withShrink := base
	withShrink.Shrinking = true
	withShrink.ShrinkEvery = 50
	r1, err := Train(ds.X, ds.Y, base)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Train(ds.X, ds.Y, withShrink)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Converged {
		t.Fatal("shrinking run did not converge")
	}
	a1, _ := r1.Model.Evaluate(ds.TestX, ds.TestY)
	a2, _ := r2.Model.Evaluate(ds.TestX, ds.TestY)
	if math.Abs(a1.Accuracy-a2.Accuracy) > 2.0 {
		t.Fatalf("accuracy diverged: %v vs %v", a1.Accuracy, a2.Accuracy)
	}
	if math.Abs(r1.Objective-r2.Objective) > 1e-2*(1+math.Abs(r1.Objective)) {
		t.Fatalf("objective diverged: %v vs %v", r1.Objective, r2.Objective)
	}
}

func TestMaxIterStopsEarly(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.2)
	cfg := Config{Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-6, Workers: 1, MaxIter: 10}
	res, err := Train(ds.X, ds.Y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("claimed convergence after 10 iterations at eps=1e-6")
	}
	if res.Iterations != 10 {
		t.Fatalf("iterations = %d, want 10", res.Iterations)
	}
}

func TestDualObjectiveMonotoneOverEps(t *testing.T) {
	// Tighter eps must give an objective at least as large (we maximize W).
	ds := dataset.MustGenerate("blobs", 0.1)
	var last float64 = math.Inf(-1)
	for _, eps := range []float64{1e-1, 1e-2, 1e-3} {
		cfg := Config{Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: eps, Workers: 1}
		res, err := Train(ds.X, ds.Y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Objective < last-1e-9 {
			t.Fatalf("objective decreased with tighter eps: %v after %v", res.Objective, last)
		}
		last = res.Objective
	}
}

func TestEqualityConstraintHolds(t *testing.T) {
	// sum alpha_i y_i = 0 must hold at the solution: recover it from the
	// model coefficients (coef_i = alpha_i*y_i).
	ds := dataset.MustGenerate("blobs", 0.2)
	cfg := Config{Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3, Workers: 2}
	res, err := Train(ds.X, ds.Y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, c := range res.Model.Coef {
		sum += c
	}
	if math.Abs(sum) > 1e-6*cfg.C {
		t.Fatalf("sum alpha_i y_i = %v, want ~0", sum)
	}
}

func TestSecondOrderSelectionConvergesFaster(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.25)
	base := Config{Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3, Workers: 2}
	second := base
	second.SecondOrder = true
	r1, err := Train(ds.X, ds.Y, base)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Train(ds.X, ds.Y, second)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Converged {
		t.Fatal("second-order run did not converge")
	}
	// Second-order selection should not take more iterations (usually
	// takes clearly fewer); allow a small margin for degenerate cases.
	if r2.Iterations > r1.Iterations*11/10 {
		t.Fatalf("second-order %d iterations vs first-order %d", r2.Iterations, r1.Iterations)
	}
	a1, _ := r1.Model.Evaluate(ds.TestX, ds.TestY)
	a2, _ := r2.Model.Evaluate(ds.TestX, ds.TestY)
	if math.Abs(a1.Accuracy-a2.Accuracy) > 2 {
		t.Fatalf("accuracy diverged: %v vs %v", a1.Accuracy, a2.Accuracy)
	}
	if math.Abs(r1.Objective-r2.Objective) > 1e-2*(1+math.Abs(r1.Objective)) {
		t.Fatalf("objective diverged: %v vs %v", r1.Objective, r2.Objective)
	}
}

func TestSecondOrderWithShrinking(t *testing.T) {
	ds := dataset.MustGenerate("blobs", 0.2)
	cfg := Config{Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3, Workers: 2,
		SecondOrder: true, Shrinking: true, ShrinkEvery: 50}
	res, err := Train(ds.X, ds.Y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	acc, _ := res.Model.Evaluate(ds.TestX, ds.TestY)
	if acc.Accuracy < 90 {
		t.Fatalf("accuracy %v", acc.Accuracy)
	}
}

// BenchmarkGradientPass times one fused gradient-update-and-scan pass over
// the whole active set at Workers=2, inline and chunked, to size
// minParallelActive (run with GOMAXPROCS=2: go test -cpu 2 -bench
// GradientPass ./internal/smo).
func BenchmarkGradientPass(b *testing.B) {
	defer func(m int) { minParallelActive = m }(minParallelActive)
	for _, n := range []int{1024, 4096, 8192, 16384, 32768, 65536} {
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{float64(i%7) - 3}
		}
		y := make([]float64, n)
		for i := range y {
			y[i] = float64(1 - 2*(i%2))
		}
		cfg := Config{Kernel: kernel.Params{Type: kernel.Linear}, C: 1, Workers: 2}
		s := newState(sparse.FromDense(rows), y, cfg.withDefaults(n))
		// Mixed bound and free samples, as mid-run: membership in an
		// irregular pattern so the scan's branches see realistic data.
		rng := rand.New(rand.NewSource(1))
		for i := range s.flags {
			s.flags[i] = []uint8{flagUp, flagLow, flagUp | flagLow}[rng.Intn(3)]
		}
		rowU, rowL := make([]float64, n), make([]float64, n)
		for i := range rowU {
			rowU[i], rowL[i] = rng.Float64(), rng.Float64()
			s.gamma[i] = rng.NormFloat64()
		}
		for _, mode := range []struct {
			name string
			min  int
		}{{"inline", math.MaxInt}, {"chunked", 0}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, mode.name), func(b *testing.B) {
				minParallelActive = mode.min
				for k := 0; k < b.N; k++ {
					s.updateGradients(1e-6, rowU, rowL)
				}
			})
		}
	}
}
