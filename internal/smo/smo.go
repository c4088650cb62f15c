// Package smo implements the "libsvm-enhanced" baseline of the paper: a
// sequential SMO solver in the Keerthi et al. formulation, with libsvm's
// kernel-row cache and shrinking, whose per-iteration gradient update is
// parallelized across goroutines — the role OpenMP plays in the paper's
// enhancement of libsvm 3.18.
//
// The paper sets this baseline up generously: libsvm may use "a compute
// node's entire memory as a kernel cache" and all available cores. Both
// knobs are exposed here (CacheBytes, Workers).
package smo

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/ckpt"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// Config controls a baseline training run.
type Config struct {
	Kernel kernel.Params
	C      float64
	Eps    float64 // the paper's user-specified tolerance epsilon

	// Workers is the number of goroutines used for the per-iteration
	// gradient update (the OpenMP enhancement). 0 means GOMAXPROCS.
	Workers int
	// CacheBytes is the kernel-row cache budget; 0 disables caching.
	CacheBytes int64
	// Shrinking enables libsvm-style shrinking with periodic checks.
	Shrinking bool
	// SecondOrder switches working-set selection from the maximal
	// violating pair (Keerthi et al., the paper's setting) to libsvm's
	// second-order rule: i_up is still the worst violator on the up side,
	// but its partner maximizes the analytic objective gain
	// (gamma_up - gamma_j)^2 / eta_uj. Usually converges in fewer
	// iterations at the cost of one kernel row per selection (reused by
	// the gradient update, so the net extra cost is small).
	SecondOrder bool
	// ShrinkEvery is the iteration period of shrinking checks
	// (libsvm uses min(n, 1000)); 0 means that default.
	ShrinkEvery int
	// InitialAlpha warm-starts the solver from an existing dual point
	// instead of alpha = 0. It must have one entry per sample, each in
	// [0, C], and satisfy the dual equality constraint
	// sum_i InitialAlpha[i]*y[i] = 0 (SMO pair updates preserve the
	// constraint, so a violated start would converge to a shifted
	// solution). Gradients are rebuilt once from the non-zero entries at
	// startup — the same cost as one gradient reconstruction. The
	// divide-and-conquer trainer uses this to polish coalesced per-cluster
	// solutions; a warm start at the optimum converges in zero iterations.
	InitialAlpha []float64
	// MaxIter bounds the iteration count; 0 means a generous default.
	MaxIter int64

	// LinearTerm is the per-sample linear term p_i of the generalized dual
	//
	//	min ½ sum_ij alpha_i alpha_j y_i y_j K_ij + sum_i p_i alpha_i
	//
	// in which the classification dual is p_i = -1 (nil selects it, and is
	// bit-identical to the historical behavior). Task formulations
	// (internal/tasks) use it to express epsilon-SVR's per-sample terms
	// epsilon -/+ z_i and the one-class SVM's zero linear term. The
	// gradient bookkeeping generalizes transparently: gamma_i starts at
	// y_i*p_i and the pairwise updates are unchanged.
	LinearTerm []float64
	// BoxC, when non-nil, gives each sample its own upper bound
	// [0, BoxC[i]] instead of the uniform [0, C]. C must still be positive
	// (it scales tolerance bounds and is recorded in the model); solvers
	// that pass BoxC typically set C to the maximum entry.
	BoxC []float64
	// EqualityTarget is the value of sum_i alpha_i*y_i the dual's equality
	// constraint pins (0 for classification and epsilon-SVR, 1 for the
	// one-class SVM). SMO pair updates preserve the sum, so a nonzero
	// target requires InitialAlpha meeting it; TrainQP validates that.
	EqualityTarget float64

	// skipModel suppresses assembling a classifier model in the result;
	// TrainQP sets it because task solvers (SVR's doubled variables)
	// assemble their own model from the raw dual point.
	skipModel bool
	// RecordTrace records the run's shrink/reconstruction schedule for the
	// performance model (used when modeling the baseline at full dataset
	// size, where its kernel cache no longer fits).
	RecordTrace bool
	// DatasetName labels the trace.
	DatasetName string

	// Checkpoint, when non-nil, persists a crash-consistent snapshot of
	// the solver state (alpha, gradients, active set, shrink countdown)
	// every CheckpointEvery iterations. A killed run re-enters through
	// InitialAlpha with the loaded snapshot's alphas. CheckpointSeed is
	// recorded for provenance; CheckpointLabel overrides the solver kind
	// stamped into snapshots (the divide-and-conquer trainer labels its
	// polish checkpoints "dcsvm"); CheckpointFingerprint overrides the
	// dataset hash (computed from (x, y) when zero).
	Checkpoint            *ckpt.Writer
	CheckpointEvery       int64
	CheckpointSeed        int64
	CheckpointLabel       string
	CheckpointFingerprint uint64
}

func (c *Config) withDefaults(n int) Config {
	out := *c
	if out.Eps <= 0 {
		out.Eps = 1e-3
	}
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.ShrinkEvery <= 0 {
		out.ShrinkEvery = min(n, 1000)
	}
	if out.MaxIter <= 0 {
		out.MaxIter = 200_000_000
	}
	return out
}

// Result carries the trained model and training statistics.
type Result struct {
	Model *model.Model
	// Alpha is the final dual point (one entry per sample). TrainQP
	// callers assemble task-specific models from it; Train fills it too so
	// warm-start chains need not recover alphas from the model.
	Alpha []float64
	// Beta is the threshold of the verified band (the model's rho);
	// meaningful even when Model is nil (TrainQP).
	Beta            float64
	Iterations      int64
	KernelEvals     uint64
	CacheHits       uint64
	CacheMisses     uint64
	CacheEvictions  uint64
	Reconstructions int
	ShrinkEvents    int
	Converged       bool
	Objective       float64 // dual objective at termination
	Elapsed         time.Duration
	Trace           *trace.Trace // non-nil when Config.RecordTrace
}

// Train runs the baseline SMO solver on (x, y) with labels in {+1, -1}.
func Train(x *sparse.Matrix, y []float64, cfg Config) (*Result, error) {
	hasPos, hasNeg := false, false
	for _, v := range y {
		switch v {
		case 1:
			hasPos = true
		case -1:
			hasNeg = true
		}
	}
	if len(y) > 0 && (!hasPos || !hasNeg) {
		return nil, errors.New("smo: training set must contain both classes")
	}
	return train(x, y, cfg)
}

// TrainQP runs the solver on a generalized QP: labels are constraint signs
// in {+1, -1} (a single sign throughout is allowed — the one-class SVM has
// all +1), LinearTerm and BoxC shape the objective and feasible box, and
// EqualityTarget pins sum_i alpha_i*y_i. It returns the raw dual point
// (Result.Alpha, Result.Beta) without assembling a classifier model;
// internal/tasks builds task-specific models from it.
func TrainQP(x *sparse.Matrix, y []float64, cfg Config) (*Result, error) {
	cfg.skipModel = true
	if cfg.EqualityTarget != 0 && cfg.InitialAlpha == nil {
		return nil, fmt.Errorf("smo: equality target %v is unreachable from the cold start alpha=0 (pair updates preserve sum alpha*y); provide a feasible InitialAlpha", cfg.EqualityTarget)
	}
	return train(x, y, cfg)
}

func train(x *sparse.Matrix, y []float64, cfg Config) (*Result, error) {
	n := x.Rows()
	if n < 2 {
		return nil, fmt.Errorf("smo: need at least 2 samples, got %d", n)
	}
	if len(y) != n {
		return nil, fmt.Errorf("smo: %d labels for %d samples", len(y), n)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("smo: %d samples exceed the active list's int32 indices", n)
	}
	if cfg.C <= 0 {
		return nil, fmt.Errorf("smo: C must be positive, got %v", cfg.C)
	}
	if err := cfg.Kernel.Validate(); err != nil {
		return nil, err
	}
	for i, v := range y {
		if v != 1 && v != -1 {
			return nil, fmt.Errorf("smo: label %d is %v, want +1 or -1", i, v)
		}
	}
	if cfg.LinearTerm != nil && len(cfg.LinearTerm) != n {
		return nil, fmt.Errorf("smo: %d linear-term entries for %d samples", len(cfg.LinearTerm), n)
	}
	if cfg.BoxC != nil {
		if len(cfg.BoxC) != n {
			return nil, fmt.Errorf("smo: %d box bounds for %d samples", len(cfg.BoxC), n)
		}
		for i, c := range cfg.BoxC {
			if math.IsNaN(c) || c <= 0 {
				return nil, fmt.Errorf("smo: box bound %d is %v, want positive", i, c)
			}
		}
	}
	if cfg.InitialAlpha != nil {
		if err := validateInitialAlpha(cfg.InitialAlpha, y, &cfg); err != nil {
			return nil, err
		}
	}

	s := newState(x, y, cfg.withDefaults(n))
	if s.cfg.Checkpoint != nil && s.cfg.CheckpointFingerprint == 0 {
		s.cfg.CheckpointFingerprint = ckpt.Fingerprint(x, y)
	}
	if cfg.InitialAlpha != nil {
		s.warmStart(cfg.InitialAlpha)
	}
	start := time.Now()
	if err := s.run(); err != nil {
		return nil, err
	}
	res := s.result()
	res.Elapsed = time.Since(start)
	return res, nil
}

// Up/low membership of a sample (solver.InUp, solver.InLow), kept in
// state.flags so the per-iteration passes never re-derive it from alpha.
const (
	flagUp uint8 = 1 << iota
	flagLow
)

// minParallelActive is the active-set size below which the fused gradient
// pass stays on the calling goroutine: a pass over fewer samples finishes
// faster than handing chunks to other goroutines costs (sized with
// BenchmarkGradientPass at GOMAXPROCS=2). A variable only so tests can
// drive the chunked path on small problems.
var minParallelActive = 16384

// violators is the outcome of one working-set scan (Eq. 3): the minimal
// gradient over the up set and the maximal over the low set, with their
// indices. Ties keep the lowest index, as an ascending scan finds them.
type violators struct {
	betaUp, betaLow float64
	iUp, iLow       int
}

func noViolators() violators {
	return violators{betaUp: math.Inf(1), betaLow: math.Inf(-1), iUp: -1, iLow: -1}
}

// consider offers sample i with membership f and gradient g to the scan.
func (v *violators) consider(f uint8, g float64, i int) {
	if f&flagUp != 0 && g < v.betaUp {
		v.betaUp, v.iUp = g, i
	}
	if f&flagLow != 0 && g > v.betaLow {
		v.betaLow, v.iLow = g, i
	}
}

// state is the mutable solver state.
type state struct {
	cfg    Config
	x      *sparse.Matrix
	y      []float64
	alpha  []float64
	gamma  []float64
	active []bool
	// activeIdx lists the active samples in ascending order; every
	// per-iteration pass walks it instead of testing active[i] over all n.
	activeIdx []int32
	flags     []uint8 // flagUp/flagLow per sample, refreshed when alpha changes

	ev   *kernel.Evaluator
	pool *kernel.RowPool // batched row engine, one (SubEvaluator, Scratch) per worker
	rows *cache.RowCache
	diag []float64 // K(i,i), precomputed for second-order selection

	// batched cache-fill buffers: the missing-entry indices of a kernel row
	// and their freshly computed values (fillActive).
	idxBuf []int
	valBuf []float64
	// filled[u] == epoch when row u is known complete over the active set:
	// getRow resets it for a fresh row, fillActive sets it, and epoch bumps
	// when unshrinkAll grows the active set. Shrinking keeps complete rows
	// complete, so a cached row skips its sentinel scan until then.
	filled []uint32
	epoch  uint32

	iter            int64
	shrinkEvents    int
	reconstructions int
	converged       bool
	warm            bool // warm-started from a non-zero dual point
	trace           *trace.Trace

	violators             // the current iteration's working-set scan
	next      violators   // the fused gradient pass's scan for the next iteration
	nextValid bool        // next matches the current gamma, flags and active set
	parts     []violators // per-chunk scans of a parallel gradient pass
}

func newState(x *sparse.Matrix, y []float64, cfg Config) *state {
	n := x.Rows()
	s := &state{
		cfg:       cfg,
		x:         x,
		y:         y,
		alpha:     make([]float64, n),
		gamma:     make([]float64, n),
		active:    make([]bool, n),
		activeIdx: make([]int32, 0, n),
		flags:     make([]uint8, n),
		filled:    make([]uint32, n),
		parts:     make([]violators, cfg.Workers),
		ev:        kernel.NewEvaluator(cfg.Kernel, x),
		rows:      cache.New(cfg.CacheBytes),
	}
	for i := 0; i < n; i++ {
		// Algorithm 1 line 1: gamma_i <- y_i*p_i, alpha_i <- 0. The
		// classification p_i = -1 gives the historical -y_i (float
		// negation is exact, so y*(-1) is bit-identical to -y).
		s.gamma[i] = y[i] * s.pAt(i)
		s.setFlags(i)
	}
	s.unshrinkAll()
	s.pool = kernel.NewRowPool(s.ev, cfg.Workers)
	s.idxBuf = make([]int, 0, n)
	s.valBuf = make([]float64, n)
	if cfg.RecordTrace {
		s.trace = trace.New(cfg.DatasetName, "libsvm-enhanced", n, x.AvgRowNNZ(), cfg.Eps)
	}
	if cfg.SecondOrder {
		s.diag = make([]float64, n)
		s.ev.DiagInto(s.diag)
	}
	return s
}

// validateInitialAlpha rejects warm starts that violate the box or
// equality constraint of the dual; those are not fixable by SMO updates.
func validateInitialAlpha(alpha, y []float64, cfg *Config) error {
	if len(alpha) != len(y) {
		return fmt.Errorf("smo: %d initial alphas for %d samples", len(alpha), len(y))
	}
	var eq, mass float64
	for i, a := range alpha {
		c := cfg.C
		if cfg.BoxC != nil {
			c = cfg.BoxC[i]
		}
		if math.IsNaN(a) || a < 0 || a > c*(1+1e-9) {
			return fmt.Errorf("smo: initial alpha %d = %v outside [0, C=%v]", i, a, c)
		}
		eq += a * y[i]
		mass += a
	}
	if math.Abs(eq-cfg.EqualityTarget) > 1e-6*(1+mass) {
		return fmt.Errorf("smo: initial alphas violate sum alpha_i*y_i = %v (got %v)", cfg.EqualityTarget, eq)
	}
	return nil
}

// boxAt returns sample i's upper bound: BoxC[i] when per-sample boxes are
// set, the uniform C otherwise.
func (s *state) boxAt(i int) float64 {
	if s.cfg.BoxC != nil {
		return s.cfg.BoxC[i]
	}
	return s.cfg.C
}

// setFlags recomputes sample i's up/low membership from its alpha.
func (s *state) setFlags(i int) {
	var f uint8
	if solver.InUp(s.y[i], s.alpha[i], s.boxAt(i)) {
		f |= flagUp
	}
	if solver.InLow(s.y[i], s.alpha[i], s.boxAt(i)) {
		f |= flagLow
	}
	s.flags[i] = f
}

// pAt returns sample i's linear term, -1 (classification) when unset.
func (s *state) pAt(i int) float64 {
	if s.cfg.LinearTerm != nil {
		return s.cfg.LinearTerm[i]
	}
	return -1
}

// warmStart installs the initial dual point and rebuilds every gradient
// from its non-zero entries: gamma_i = sum_j alpha_j y_j K(j,i) + y_i*p_i.
//
// The rebuild is row-driven through the kernel cache rather than
// target-driven like reconstruction: each support vector's full row is
// fetched once via getRow/fillActive and accumulated into every gradient.
// The eval count is the same nSV*n either way, but the iterations that
// follow work almost entirely on these same support vectors, so the rows
// computed here are cache hits later — the warm start doubles as a
// prefetch instead of work the cache would repeat from scratch.
func (s *state) warmStart(alpha0 []float64) {
	for i, a := range alpha0 {
		if c := s.boxAt(i); a > c {
			a = c // tolerated rounding excess from validateInitialAlpha
		}
		s.alpha[i] = a
		s.setFlags(i)
	}
	for j, a := range s.alpha {
		if a == 0 {
			continue // gamma already holds the cold start y_j*p_j
		}
		s.warm = true
		row := s.getRow(j)
		s.fillActive(j, row) // everything is active: fills the full row
		c := a * s.y[j]
		for i, v := range row {
			s.gamma[i] += c * v
		}
	}
}

// selectPair scans the active set for the worst KKT violators (Eq. 3).
// The betas always come from the maximal violators (they define the
// termination and shrinking band); with second-order selection the partner
// i_low is re-picked afterwards by analytic gain. In the steady state the
// fused gradient pass delivers this scan; a full one runs only at start and
// after the active set changes.
func (s *state) selectPair() {
	v := noViolators()
	for _, i := range s.activeIdx {
		v.consider(s.flags[i], s.gamma[i], int(i))
	}
	s.violators = v
}

// selectSecondOrder re-picks i_low to maximize the objective gain
// (gamma_up - gamma_j)^2 / eta for violating partners j, given the kernel
// row of i_up (libsvm's WSS; Fan, Chen & Lin 2005). Returns the chosen
// index, or -1 if no partner strictly violates (termination handles it).
func (s *state) selectSecondOrder(u int, rowU []float64) int {
	best, bestGain := -1, math.Inf(-1)
	gU := s.gamma[u]
	kUU := kernelAt(s.ev, rowU, u, u)
	for _, j32 := range s.activeIdx {
		j := int(j32)
		if s.flags[j]&flagLow == 0 {
			continue
		}
		b := s.gamma[j] - gU
		if b <= 0 {
			continue
		}
		eta := kUU + s.diag[j] - 2*kernelAt(s.ev, rowU, u, j)
		if eta <= solver.Tau {
			eta = solver.Tau
		}
		if gain := b * b / eta; gain > bestGain {
			bestGain, best = gain, j
		}
	}
	return best
}

// getRow returns the (possibly partially computed) kernel row for sample u.
// Entries are NaN until computed; the gradient loop fills them lazily so a
// row computed under a small active set stays reusable and is completed on
// demand if the active set grows back.
func (s *state) getRow(u int) []float64 {
	if row, ok := s.rows.Get(u); ok {
		return row
	}
	row := make([]float64, len(s.alpha))
	for i := range row {
		row[i] = math.NaN()
	}
	s.rows.Put(u, row) // a no-op with the cache disabled: the row is transient
	s.filled[u] = 0
	return row
}

// kernelAt returns K(u, i) via the row, computing and memoizing on miss.
// After fillActive every active entry is present, so this only computes
// for an index outside the batch (a guarded fallback, not a loop).
func kernelAt(ev *kernel.Evaluator, row []float64, u, i int) float64 {
	if v := row[i]; !math.IsNaN(v) {
		return v
	}
	v := ev.At(u, i)
	row[i] = v
	return v
}

// fillActive completes row u over the whole active set in one batched row
// evaluation: every NaN sentinel at an active index is computed together
// through the row pool and memoized, replacing the element-at-a-time fill
// the gradient loop used to do on each cache miss. Costs exactly as many
// kernel evaluations as sentinels filled — a fresh row costs one full
// batch, a row cached under a smaller active set only the entries that
// grew back. A row already complete for the current active set (its fill
// stamp is current) returns without scanning for sentinels.
func (s *state) fillActive(u int, row []float64) {
	if s.filled[u] == s.epoch {
		return
	}
	s.filled[u] = s.epoch
	idx := s.idxBuf[:0]
	for _, i := range s.activeIdx {
		if math.IsNaN(row[i]) {
			idx = append(idx, int(i))
		}
	}
	s.idxBuf = idx
	if len(idx) == 0 {
		return
	}
	vals := s.valBuf[:len(idx)]
	s.pool.RowInto(s.x.RowView(u), s.ev.Norm(u), idx, vals)
	for k, i := range idx {
		row[i] = vals[k]
	}
}

func (s *state) run() error {
	shrinkCountdown := s.cfg.ShrinkEvery
	if s.warm && s.cfg.Shrinking {
		// A warm start sits near an optimum, so the violation band is
		// already tight: shrinking after the first iteration (instead of
		// waiting a full ShrinkEvery period like a cold start must, while
		// its gradients are still far off) collapses the active set to
		// roughly the support vectors immediately. Fresh kernel rows and
		// working-set scans then cost ~|active| instead of ~n for the
		// whole run; any over-shrunk sample is caught by the
		// reconstruct-and-unshrink pass at convergence, as usual.
		shrinkCountdown = 1
	}
	for {
		if s.nextValid {
			s.violators, s.nextValid = s.next, false
		} else {
			s.selectPair()
		}
		if s.iUp < 0 || s.iLow < 0 || solver.Converged(s.betaUp, s.betaLow, s.cfg.Eps) {
			if s.cfg.Shrinking && len(s.activeIdx) < len(s.alpha) {
				// Converged on the active set only: reconstruct the
				// gradients of shrunk samples and re-admit everything,
				// exactly as libsvm does before declaring convergence.
				s.reconstruct()
				s.unshrinkAll()
				shrinkCountdown = s.cfg.ShrinkEvery
				continue
			}
			s.converged = true
			return nil
		}
		if s.iter >= s.cfg.MaxIter {
			return nil // converged stays false
		}
		s.iter++

		u, l := s.iUp, s.iLow
		rowU := s.getRow(u)
		s.fillActive(u, rowU)
		if s.cfg.SecondOrder {
			if j := s.selectSecondOrder(u, rowU); j >= 0 {
				l = j
			}
		}
		rowL := s.getRow(l)
		s.fillActive(l, rowL)
		kUU := kernelAt(s.ev, rowU, u, u)
		kLL := kernelAt(s.ev, rowL, l, l)
		kUL := kernelAt(s.ev, rowU, u, l)
		rowL[u] = kUL // symmetric
		st := solver.OptimizePairBox(s.gamma[u], s.gamma[l], s.y[u], s.y[l],
			s.alpha[u], s.alpha[l], kUU, kLL, kUL, s.boxAt(u), s.boxAt(l))
		s.alpha[u] = st.NewAlphaUp
		s.alpha[l] = st.NewAlphaLow
		s.setFlags(u)
		s.setFlags(l)

		s.updateGradients(st.T, rowU, rowL)

		if s.cfg.Shrinking {
			shrinkCountdown--
			if shrinkCountdown <= 0 {
				s.shrink()
				shrinkCountdown = s.cfg.ShrinkEvery
			}
		}

		if s.cfg.Checkpoint != nil && s.cfg.CheckpointEvery > 0 && s.iter%s.cfg.CheckpointEvery == 0 {
			if err := s.saveCheckpoint(int64(shrinkCountdown)); err != nil {
				return err
			}
		}
	}
}

// saveCheckpoint persists the full solver state as one crash-consistent
// generation. Alpha is the load-bearing field (resume re-enters through the
// InitialAlpha warm start); gradients, active set and shrink bookkeeping
// make the snapshot self-contained for diagnostics.
func (s *state) saveCheckpoint(shrinkCountdown int64) error {
	label := s.cfg.CheckpointLabel
	if label == "" {
		label = ckpt.SolverSMO
	}
	return s.cfg.Checkpoint.Save(&ckpt.State{
		Solver:          label,
		Iteration:       s.iter,
		Seed:            s.cfg.CheckpointSeed,
		Fingerprint:     s.cfg.CheckpointFingerprint,
		N:               len(s.alpha),
		Alpha:           append([]float64(nil), s.alpha...),
		Gamma:           append([]float64(nil), s.gamma...),
		Active:          append([]bool(nil), s.active...),
		ShrinkCountdown: shrinkCountdown,
		ShrinkEvents:    int32(s.shrinkEvents),
		Reconstructions: int32(s.reconstructions),
	})
}

// updateGradients applies Eq. 2 to every active sample and, in the same
// pass, scans the updated gradients for the next iteration's violators
// (s.next), so an iteration walks the active set once instead of twice.
// fillActive already computed both rows over the active set, so the pass is
// pure arithmetic. Active sets of minParallelActive samples or more are
// split into contiguous chunks across the workers, and the chunk scans are
// merged in chunk order.
func (s *state) updateGradients(t float64, rowU, rowL []float64) {
	idx := s.activeIdx
	w := min(s.cfg.Workers, len(idx))
	if w <= 1 || len(idx) < minParallelActive {
		s.next = s.gradientChunk(t, rowU, rowL, idx)
	} else {
		var wg sync.WaitGroup
		for k := 1; k < w; k++ {
			wg.Add(1)
			go func(k int, part []int32) {
				defer wg.Done()
				s.parts[k] = s.gradientChunk(t, rowU, rowL, part)
			}(k, idx[k*len(idx)/w:(k+1)*len(idx)/w])
		}
		s.parts[0] = s.gradientChunk(t, rowU, rowL, idx[:len(idx)/w])
		wg.Wait()
		// Offer each later chunk's picks in chunk order: the strict
		// comparisons keep the earlier index on ties, so the merge equals
		// one ascending scan.
		s.next = s.parts[0]
		for _, p := range s.parts[1:w] {
			s.next.consider(flagUp, p.betaUp, p.iUp)
			s.next.consider(flagLow, p.betaLow, p.iLow)
		}
	}
	s.nextValid = true
}

func (s *state) gradientChunk(t float64, rowU, rowL []float64, idx []int32) violators {
	v := noViolators()
	for _, i := range idx {
		g := s.gamma[i] + solver.GradientDelta(t, rowU[i], rowL[i])
		s.gamma[i] = g
		v.consider(s.flags[i], g, int(i))
	}
	return v
}

// shrink applies the Eq. 9 condition using the betas selected at the top of
// this iteration (s.violators, not the pending s.next), and compacts the
// active list in place, keeping it ascending.
func (s *state) shrink() {
	kept := s.activeIdx[:0]
	for _, i := range s.activeIdx {
		set := solver.Classify(s.y[i], s.alpha[i], s.boxAt(int(i)))
		if solver.Shrinkable(set, s.gamma[i], s.betaUp, s.betaLow) {
			s.active[i] = false
			continue
		}
		kept = append(kept, i)
	}
	s.activeIdx = kept
	s.nextValid = false
	s.shrinkEvents++
	if s.trace != nil {
		s.trace.SetActive(s.iter, len(kept))
	}
}

// reconstruct recomputes gamma for inactive samples from scratch:
// gamma_i = sum_{alpha_j>0} alpha_j y_j K(x_j, x_i) - y_i.
func (s *state) reconstruct() {
	s.reconstructions++
	var svs []int
	for j, a := range s.alpha {
		if a > 0 {
			svs = append(svs, j)
		}
	}
	var targets []int
	for i := range s.alpha {
		if !s.active[i] {
			targets = append(targets, i)
		}
	}
	if s.trace != nil {
		s.trace.AddRecon(s.iter, len(targets), len(svs))
	}
	s.rebuildGradients(svs, targets)
}

// rebuildGradients recomputes gamma_i = sum_j alpha_j y_j K(x_i, x_j) - y_i
// for the targets from the support set, fanning target chunks across the
// row pool. Each target is one batched row evaluation against the support
// vectors (pivot = x_i scattered once, the SV rows gathered against it),
// shared by warm start and gradient reconstruction.
func (s *state) rebuildGradients(svs, targets []int) {
	if len(svs) == 0 || len(targets) == 0 {
		return
	}
	coef := make([]float64, len(svs))
	for k, j := range svs {
		coef[k] = s.alpha[j] * s.y[j]
	}
	w := s.pool.Workers()
	if w > len(targets) {
		w = len(targets)
	}
	if w <= 1 {
		ev, scr := s.pool.Worker(0)
		s.reconstructChunk(ev, scr, make([]float64, len(svs)), svs, coef, targets)
		return
	}
	done := make(chan struct{}, w)
	for k := 0; k < w; k++ {
		lo, hi := k*len(targets)/w, (k+1)*len(targets)/w
		ev, scr := s.pool.Worker(k)
		go func(ev *kernel.Evaluator, scr *kernel.Scratch, part []int) {
			s.reconstructChunk(ev, scr, make([]float64, len(svs)), svs, coef, part)
			done <- struct{}{}
		}(ev, scr, targets[lo:hi])
	}
	for k := 0; k < w; k++ {
		<-done
	}
}

func (s *state) reconstructChunk(ev *kernel.Evaluator, scr *kernel.Scratch, buf []float64, svs []int, coef []float64, targets []int) {
	for _, i := range targets {
		ev.RowInto(scr, s.x.RowView(i), ev.Norm(i), svs, buf)
		var g float64
		for k := range svs {
			g += coef[k] * buf[k]
		}
		// g + y_i*p_i; classification's p_i = -1 keeps the historical
		// g - y_i bit-identically (adding -y equals subtracting y).
		s.gamma[i] = g + s.y[i]*s.pAt(i)
	}
}

// unshrinkAll re-admits every sample. Rows filled under the smaller active
// set lose their fill stamps (the epoch bumps) and are completed on demand.
func (s *state) unshrinkAll() {
	s.activeIdx = s.activeIdx[:0]
	for i := range s.active {
		s.active[i] = true
		s.activeIdx = append(s.activeIdx, int32(i))
	}
	s.epoch++
	s.nextValid = false
}

// result assembles the model and statistics.
func (s *state) result() *Result {
	var svIdx []int
	var sumG float64
	nI0 := 0
	for i, a := range s.alpha {
		if a > 0 {
			svIdx = append(svIdx, i)
		}
		if solver.Classify(s.y[i], a, s.boxAt(i)) == solver.I0 {
			sumG += s.gamma[i]
			nI0++
		}
	}
	beta := solver.Threshold(sumG, nI0, s.betaUp, s.betaLow)
	evals := s.ev.Evals() + s.pool.Evals()
	hits, misses, evictions := s.rows.Stats()
	if s.trace != nil {
		s.trace.Iterations = s.iter
		s.trace.Converged = s.converged
		s.trace.SVCount = len(svIdx)
	}
	res := &Result{
		Alpha:           append([]float64(nil), s.alpha...),
		Beta:            beta,
		Iterations:      s.iter,
		KernelEvals:     evals,
		CacheHits:       hits,
		CacheMisses:     misses,
		CacheEvictions:  evictions,
		Reconstructions: s.reconstructions,
		ShrinkEvents:    s.shrinkEvents,
		Converged:       s.converged,
		Objective:       solver.DualObjectiveQP(s.alpha, s.y, s.gamma, s.cfg.LinearTerm),
		Trace:           s.trace,
	}
	if s.cfg.skipModel {
		return res
	}
	sv, err := s.x.SelectRows(svIdx)
	if err != nil {
		panic("smo: internal: " + err.Error()) // indices come from range loop
	}
	coef := make([]float64, len(svIdx))
	for k, i := range svIdx {
		coef[k] = s.alpha[i] * s.y[i]
	}
	res.Model = &model.Model{
		Kernel:       s.cfg.Kernel,
		C:            s.cfg.C,
		SV:           sv,
		Coef:         coef,
		Beta:         beta,
		TrainSamples: len(s.alpha),
		Iterations:   s.iter,
	}
	return res
}
