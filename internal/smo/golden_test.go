// Golden iterate digests for the libsvm-enhanced baseline (external test
// package: it drives tasks, which imports smo). Each case pins a SHA-256 over
// the final alpha bits and beta plus the iteration, shrink, reconstruction
// and kernel-evaluation counts. Any change to the solver's bookkeeping —
// working-set scans, gradient passes, cache fills, shrinking — must leave
// every digest unchanged: the iterate sequence is the contract, not just
// the objective.
package smo_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/smo"
	"repro/internal/sparse"
	"repro/internal/tasks"
)

// golden is one pinned outcome.
type golden struct {
	sha             string // alpha bits then beta bits, little-endian
	iters           int64
	shrinks, recons int
	evals           uint64
}

func (g golden) String() string {
	return fmt.Sprintf("{%q, %d, %d, %d, %d}", g.sha, g.iters, g.shrinks, g.recons, g.evals)
}

func digest(alpha []float64, beta float64) string {
	h := sha256.New()
	var b [8]byte
	for _, a := range alpha {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(a))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(beta))
	h.Write(b[:])
	return hex.EncodeToString(h.Sum(nil))
}

func resultGolden(r *smo.Result) golden {
	return golden{digest(r.Alpha, r.Beta), r.Iterations, r.ShrinkEvents, r.Reconstructions, r.KernelEvals}
}

// goldenMatrix is keyed by dataset/order/shrinking/cache; every key runs at
// Workers 1 and 3 against the same digest.
var goldenMatrix = map[string]golden{
	"a9a/second=false/shrink=false/bigcache":     {"a5949b53370416db36bcbac200f0b3ea07ef190e602109151388a617a071c694", 2797, 0, 0, 256494},
	"a9a/second=false/shrink=false/nocache":      {"a5949b53370416db36bcbac200f0b3ea07ef190e602109151388a617a071c694", 2797, 0, 0, 3641694},
	"a9a/second=false/shrink=false/smallcache":   {"a5949b53370416db36bcbac200f0b3ea07ef190e602109151388a617a071c694", 2797, 0, 0, 3639090},
	"a9a/second=false/shrink=true/bigcache":      {"a5949b53370416db36bcbac200f0b3ea07ef190e602109151388a617a071c694", 2797, 55, 1, 353531},
	"a9a/second=false/shrink=true/nocache":       {"a5949b53370416db36bcbac200f0b3ea07ef190e602109151388a617a071c694", 2797, 55, 1, 2514476},
	"a9a/second=false/shrink=true/smallcache":    {"a5949b53370416db36bcbac200f0b3ea07ef190e602109151388a617a071c694", 2797, 55, 1, 2512048},
	"a9a/second=true/shrink=false/bigcache":      {"4781b1af90f833d55114f0636602aeeac628cb40648dc5cec3b0a24aba208054", 2429, 0, 0, 251937},
	"a9a/second=true/shrink=false/nocache":       {"4781b1af90f833d55114f0636602aeeac628cb40648dc5cec3b0a24aba208054", 2429, 0, 0, 3163209},
	"a9a/second=true/shrink=false/smallcache":    {"4781b1af90f833d55114f0636602aeeac628cb40648dc5cec3b0a24aba208054", 2429, 0, 0, 3162558},
	"a9a/second=true/shrink=true/bigcache":       {"4781b1af90f833d55114f0636602aeeac628cb40648dc5cec3b0a24aba208054", 2429, 48, 1, 345540},
	"a9a/second=true/shrink=true/nocache":        {"4781b1af90f833d55114f0636602aeeac628cb40648dc5cec3b0a24aba208054", 2429, 48, 1, 2175832},
	"a9a/second=true/shrink=true/smallcache":     {"4781b1af90f833d55114f0636602aeeac628cb40648dc5cec3b0a24aba208054", 2429, 48, 1, 2175388},
	"blobs/second=false/shrink=false/bigcache":   {"fa9301faea2060e3ffc61920c81d6d57d9ae961286dff939c2358d9ce9e63cef", 5392, 0, 0, 103800},
	"blobs/second=false/shrink=false/nocache":    {"fa9301faea2060e3ffc61920c81d6d57d9ae961286dff939c2358d9ce9e63cef", 5392, 0, 0, 6470400},
	"blobs/second=false/shrink=false/smallcache": {"fa9301faea2060e3ffc61920c81d6d57d9ae961286dff939c2358d9ce9e63cef", 5392, 0, 0, 563400},
	"blobs/second=false/shrink=true/bigcache":    {"fa9301faea2060e3ffc61920c81d6d57d9ae961286dff939c2358d9ce9e63cef", 5392, 107, 1, 153309},
	"blobs/second=false/shrink=true/nocache":     {"fa9301faea2060e3ffc61920c81d6d57d9ae961286dff939c2358d9ce9e63cef", 5392, 107, 1, 1764184},
	"blobs/second=false/shrink=true/smallcache":  {"fa9301faea2060e3ffc61920c81d6d57d9ae961286dff939c2358d9ce9e63cef", 5392, 107, 1, 406002},
	"blobs/second=true/shrink=false/bigcache":    {"6860e490c248e28582fee7838ab153179989750cd0e05ff5c3cebfeeaa1de671", 512, 0, 0, 137400},
	"blobs/second=true/shrink=false/nocache":     {"6860e490c248e28582fee7838ab153179989750cd0e05ff5c3cebfeeaa1de671", 512, 0, 0, 615000},
	"blobs/second=true/shrink=false/smallcache":  {"6860e490c248e28582fee7838ab153179989750cd0e05ff5c3cebfeeaa1de671", 512, 0, 0, 283800},
	"blobs/second=true/shrink=true/bigcache":     {"6860e490c248e28582fee7838ab153179989750cd0e05ff5c3cebfeeaa1de671", 512, 10, 1, 130566},
	"blobs/second=true/shrink=true/nocache":      {"6860e490c248e28582fee7838ab153179989750cd0e05ff5c3cebfeeaa1de671", 512, 10, 1, 325305},
	"blobs/second=true/shrink=true/smallcache":   {"6860e490c248e28582fee7838ab153179989750cd0e05ff5c3cebfeeaa1de671", 512, 10, 1, 193851},
}

// goldenExtra pins the warm starts and the task QPs.
var goldenExtra = map[string]golden{
	"oneclass":          {"d04f4e5f6a1d1240f1bf3c44aa0eb0388576d421c215c7a19a3b216fd788638f", 57, 2, 1, 24916},
	"svr":               {"57ee78d06ee66fafd320434ac30184fc09a4bd211664ec1a30495319d7f2e1fe", 92, 0, 0, 4500},
	"warm/second=false": {"77a9507d97459b22d5673ea8bf4c65ca0414a1ae7b197e116329c31ceff51867", 2497, 50, 1, 2314088},
	"warm/second=true":  {"925ecf899ecb1801a3485c5d14166e4fe443f8fa44391f1b4ac9e3779f015599", 2140, 43, 1, 2021661},
}

func checkGolden(t *testing.T, table map[string]golden, key string, got golden) {
	t.Helper()
	want, ok := table[key]
	if !ok {
		t.Errorf("no golden for %q: got %v", key, got)
		return
	}
	if got != want {
		t.Errorf("%s: got %v, want %v", key, got, want)
	}
}

// goldenScale sizes the two dataset shapes of the matrix: a sparse
// a9a-shaped set (123 features, ~11% dense) and dense 2-D blobs.
var goldenScale = map[string]float64{"a9a": 0.02, "blobs": 0.3}

func TestGoldenIterates(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests were captured on amd64; other architectures may fuse multiply-adds")
	}
	for _, name := range []string{"a9a", "blobs"} {
		ds := dataset.MustGenerate(name, goldenScale[name])
		n := int64(ds.X.Rows())
		caches := []struct {
			name  string
			bytes int64
		}{
			{"nocache", 0},
			{"smallcache", 8 * 8 * n}, // eight rows: evicts constantly
			{"bigcache", 64 << 20},
		}
		for _, second := range []bool{false, true} {
			for _, shrink := range []bool{false, true} {
				for _, c := range caches {
					key := fmt.Sprintf("%s/second=%v/shrink=%v/%s", name, second, shrink, c.name)
					for _, workers := range []int{1, 3} {
						cfg := smo.Config{
							Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3,
							Workers: workers, CacheBytes: c.bytes,
							Shrinking: shrink, ShrinkEvery: 50, SecondOrder: second,
						}
						res, err := smo.Train(ds.X, ds.Y, cfg)
						if err != nil {
							t.Fatalf("%s workers=%d: %v", key, workers, err)
						}
						if !res.Converged {
							t.Fatalf("%s workers=%d: not converged", key, workers)
						}
						checkGolden(t, goldenMatrix, key, resultGolden(res))
					}
				}
			}
		}
	}
}

func TestGoldenWarmAndTasks(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests were captured on amd64; other architectures may fuse multiply-adds")
	}
	ds := dataset.MustGenerate("a9a", goldenScale["a9a"])
	base := smo.Config{Kernel: kernel.FromSigma2(ds.Sigma2), C: ds.C, Eps: 1e-3, Workers: 3}

	// Warm start from a half-trained dual point.
	half := base
	half.MaxIter = 300
	r, err := smo.Train(ds.X, ds.Y, half)
	if err != nil {
		t.Fatal(err)
	}
	for _, second := range []bool{false, true} {
		warm := base
		warm.InitialAlpha = r.Alpha
		warm.Shrinking = true
		warm.ShrinkEvery = 50
		warm.SecondOrder = second
		warm.CacheBytes = 16 * 8 * int64(ds.X.Rows())
		res, err := smo.Train(ds.X, ds.Y, warm)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, goldenExtra, fmt.Sprintf("warm/second=%v", second), resultGolden(res))
	}

	// epsilon-SVR through the task layer (doubled-variable QP).
	rng := rand.New(rand.NewSource(7))
	rows := make([][]float64, 150)
	z := make([]float64, len(rows))
	for i := range rows {
		x1, x2 := 4*rng.Float64()-2, 4*rng.Float64()-2
		rows[i] = []float64{x1, x2}
		z[i] = math.Sin(x1) + 0.5*x2 + 0.01*rng.NormFloat64()
	}
	x := sparse.FromDense(rows)
	svr, err := tasks.TrainSVR(x, z, 10, 0.1, tasks.Config{
		Kernel: kernel.Params{Type: kernel.Gaussian, Gamma: 0.5}, Eps: 1e-3,
		Workers: 3, CacheBytes: 1 << 20, Shrinking: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, goldenExtra, "svr", golden{
		sha: digest(svr.Model.Coef, svr.Model.Beta), iters: svr.Iterations, evals: svr.KernelEvals,
	})

	// One-class QP straight through TrainQP.
	nu := 0.2
	ones := make([]float64, x.Rows())
	for i := range ones {
		ones[i] = 1
	}
	boxC := 1 / (nu * float64(x.Rows()))
	oc, err := smo.TrainQP(x, ones, smo.Config{
		Kernel: kernel.Params{Type: kernel.Gaussian, Gamma: 0.5}, C: boxC, Eps: 1e-3,
		Workers: 1, Shrinking: true, ShrinkEvery: 50, SecondOrder: true,
		LinearTerm: make([]float64, x.Rows()), EqualityTarget: 1,
		InitialAlpha: tasks.OneClassInitialAlpha(x.Rows(), nu),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, goldenExtra, "oneclass", resultGolden(oc))
}
