package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	_ "repro/internal/engines"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/oracle"
	"repro/internal/perfmodel"
	"repro/internal/smo"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// trainWorkload trains a fixed suite of seeded datasets through
// solver.Train and verifies every model. The suite, not one dataset, is the
// unit of work: datasets drawn from different seeds differ in difficulty
// (core's iteration count varies by a quarter between them), and averaging
// over many keeps the run-to-run spread small.
type trainWorkload struct {
	name string
	// spec is the dataset shape (internal/dataset registry name), generated
	// at scale; specs without a test split hold out their last quarter.
	spec  string
	scale float64
	// datasets is the suite size.
	datasets int
	engine   string
	kernel   kernel.Params
	// opts is passed to solver.Train verbatim. Every field a workload
	// depends on is set explicitly, so a change of engine defaults cannot
	// change what the workload measures.
	opts solver.Options
	// accFloor is the held-out accuracy every model must reach.
	accFloor float64
	// probe is the shape of the speed probe's rows (speed.go).
	probe probeShape
}

// trainOptions is the record of a training workload's pinned options.
type trainOptions struct {
	Engine     string  `json:"engine"`
	Dataset    string  `json:"dataset_shape"`
	Scale      float64 `json:"scale"`
	Datasets   int     `json:"datasets"`
	Kernel     string  `json:"kernel"`
	C          float64 `json:"c"`
	Eps        float64 `json:"eps"`
	Workers    int     `json:"workers"`
	P          int     `json:"p"`
	Heuristic  string  `json:"heuristic"`
	CacheBytes int64   `json:"cache_bytes"`
	AccFloor   float64 `json:"accuracy_floor"`
}

// train-smo-sparse: the libsvm-enhanced baseline on the a9a shape (123
// binary features, ~11% dense). The kernel cache holds about half of the
// kernel matrix, so cache hits, misses and evictions all occur.
var trainSmoSparse = trainWorkload{
	name: "train-smo-sparse", spec: "a9a", scale: 0.03, datasets: 32,
	engine: "smo",
	kernel: kernel.FromSigma2(64),
	opts: solver.Options{
		C: 32, Eps: 1e-3,
		Workers: procs, P: 1,
		Heuristic:  "", // smo shrinks libsvm-style; it has no Table II heuristics
		CacheBytes: 4 << 20,
	},
	accFloor: 0.80,
	probe:    sparseProbe,
}

// train-core-dense: the paper's distributed solver on the HIGGS shape (28
// dense features) at p = 2 with Multi5pc shrinking. core has no kernel
// cache, so CacheBytes stays 0.
var trainCoreDense = trainWorkload{
	name: "train-core-dense", spec: "higgs", scale: 0.0003, datasets: 32,
	engine: "core",
	kernel: kernel.FromSigma2(64),
	opts: solver.Options{
		C: 32, Eps: 1e-3,
		Workers: procs, P: procs,
		Heuristic:  "Multi5pc",
		CacheBytes: 0,
	},
	accFloor: 0.60,
	probe:    denseProbe,
}

func (w trainWorkload) sized(cfg runConfig) trainWorkload {
	if cfg.tiny {
		w.datasets = 2
		w.scale /= 3
	}
	return w
}

func (w trainWorkload) options() trainOptions {
	return trainOptions{
		Engine: w.engine, Dataset: w.spec, Scale: w.scale, Datasets: w.datasets,
		Kernel: w.kernel.String(), C: w.opts.C, Eps: w.opts.Eps,
		Workers: w.opts.Workers, P: w.opts.P, Heuristic: w.opts.Heuristic,
		CacheBytes: w.opts.CacheBytes, AccFloor: w.accFloor,
	}
}

// split is one loaded dataset of the suite.
type split struct {
	x, tx *sparse.Matrix
	y, ty []float64
	// fileBytes is the size of the libsvm files it was loaded from.
	fileBytes int64
}

// loadStats times the dataset layer of one setup.
type loadStats struct {
	load  time.Duration
	bytes int64
}

// setup generates the suite from seed, writes it as libsvm files and loads
// it back; only the loaded data is trained on.
func (w trainWorkload) setup(cfg runConfig, seed int64, rec *recorder, parent spanRef) ([]split, loadStats, error) {
	spec, err := dataset.Lookup(w.spec)
	if err != nil {
		return nil, loadStats{}, err
	}
	var ls loadStats
	suite := make([]split, w.datasets)
	for k := range suite {
		sp := rec.start(parent, "dataset.GenerateSeeded")
		ds, err := dataset.GenerateSeeded(spec, w.scale, subSeed(seed, k))
		sp.end()
		if err != nil {
			return nil, ls, err
		}
		x, y, tx, ty := ds.X, ds.Y, ds.TestX, ds.TestY
		if tx == nil {
			n := x.Rows()
			cut := n - n/4
			if x, err = ds.X.SubMatrix(0, cut); err != nil {
				return nil, ls, err
			}
			if tx, err = ds.X.SubMatrix(cut, n); err != nil {
				return nil, ls, err
			}
			y, ty = ds.Y[:cut], ds.Y[cut:]
		}
		trainPath := filepath.Join(cfg.workdir, fmt.Sprintf("d%d.train.libsvm", k))
		testPath := filepath.Join(cfg.workdir, fmt.Sprintf("d%d.test.libsvm", k))
		sp = rec.start(parent, "dataset.SaveLibsvmFile")
		err = dataset.SaveLibsvmFile(trainPath, x, y)
		if err == nil {
			err = dataset.SaveLibsvmFile(testPath, tx, ty)
		}
		sp.end()
		if err != nil {
			return nil, ls, err
		}
		sp = rec.start(parent, "dataset.LoadLibsvmFile")
		t := time.Now()
		s := split{}
		s.x, s.y, err = dataset.LoadLibsvmFile(trainPath)
		if err == nil {
			s.tx, s.ty, err = dataset.LoadLibsvmFile(testPath)
		}
		ls.load += time.Since(t)
		sp.end()
		if err != nil {
			return nil, ls, err
		}
		for _, p := range []string{trainPath, testPath} {
			fi, err := os.Stat(p)
			if err != nil {
				return nil, ls, err
			}
			s.fileBytes += fi.Size()
		}
		ls.bytes += s.fileBytes
		suite[k] = s
	}
	return suite, ls, nil
}

func (w trainWorkload) train(s split) (solver.Result, time.Duration, error) {
	t := time.Now()
	res, err := solver.Train(context.Background(), w.engine,
		solver.Problem{X: s.x, Y: s.y, Kernel: w.kernel}, w.opts)
	return res, time.Since(t), err
}

func (w trainWorkload) oracle(s split) oracle.Problem {
	return oracle.Problem{X: s.x, Y: s.y, Kernel: w.kernel, C: w.opts.C, Eps: w.opts.Eps, Workers: procs}
}

// check verifies a trained model: eps-optimal by the oracle, and at least
// accFloor accurate on the held-out split. It returns the failure reason,
// or "" when the model passes.
func (w trainWorkload) check(s split, m *model.Model) (string, *oracle.Report) {
	rep, err := w.oracle(s).VerifyModel(m)
	if err != nil {
		return "oracle: " + err.Error(), nil
	}
	if err := rep.Check(); err != nil {
		return err.Error(), rep
	}
	pred := m.PredictBatch(s.tx, procs)
	correct := 0
	for i, p := range pred {
		if p == s.ty[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(pred)); acc < w.accFloor {
		return fmt.Sprintf("held-out accuracy %.4f below floor %.2f", acc, w.accFloor), rep
	}
	return "", rep
}

func modelBytes(m *model.Model) ([]byte, error) {
	var b bytes.Buffer
	if err := m.Write(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// setupReps is how many times a run repeats its setup; setup_s is the
// median.
const setupReps = 5

// minRounds is how many rounds over the suite a run completes however long
// they take, so that every dataset has a best time of several.
const minRounds = 2

// warmupJobs is how many trainings warm the process up before timing: the
// first trainings of a process run on a cold heap.
const warmupJobs = 2

// measure is the untraced run: setup_s, then rounds over the suite until
// the measured time is spent, and at least minRounds. A job is one
// dataset's solver.Train plus its verification, the time to a verified
// model. Every setup and job time is converted to the reference speed
// (speed.go); a dataset's figure is its median over the rounds, and p50_ms
// is the median over the suite's datasets.
func (w trainWorkload) measure(cfg runConfig) (*report, error) {
	w = w.sized(cfg)
	rep := &report{metrics: map[string]float64{}, raw: map[string]float64{}, options: w.options()}
	speed := startSpeedSampler(w.probe)
	defer speed.close()
	var setups, rawSetups []float64
	var suite []split
	for r := 0; r < setupReps; r++ {
		from := speed.now()
		s, _, err := w.setup(cfg, cfg.seed, nil, spanRef{})
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		raw, ref := speed.convert(from, speed.now())
		rawSetups = append(rawSetups, raw)
		setups = append(setups, ref)
		suite = s
	}
	for _, s := range suite[:min(warmupJobs, len(suite))] {
		w.train(s) // an error shows in the rounds
	}

	// Per dataset, each round's train and job times at the reference
	// speed, and the raw train times.
	trainTimes := make([][]float64, len(suite))
	jobTimes := make([][]float64, len(suite))
	rawTrain := make([][]float64, len(suite))
	hashes := make([]string, len(suite))
	verified := 0
	var heaps []float64
	start := time.Now()
	for round := 0; ; round++ {
		heap := startHeapSampler()
		cut := false
		for k, s := range suite {
			if round >= minRounds && seconds(time.Since(start)) >= cfg.seconds {
				cut = true
				break
			}
			from := speed.now()
			res, _, err := w.train(s)
			if err != nil {
				rep.record(true, true, fmt.Sprintf("dataset %d: train: %v", k, err))
				continue
			}
			trained := speed.now()
			why, _ := w.check(s, res.Model)
			raw, ref := speed.convert(from, trained)
			_, job := speed.convert(from, speed.now())
			trainTimes[k] = append(trainTimes[k], ref)
			jobTimes[k] = append(jobTimes[k], job)
			rawTrain[k] = append(rawTrain[k], raw)
			b, err := modelBytes(res.Model)
			if err != nil {
				return nil, err
			}
			h := sha(b)
			if why == "" && hashes[k] != "" && h != hashes[k] {
				why = fmt.Sprintf("model differs from round 0 (sha256 %s vs %s)", h, hashes[k])
			}
			if hashes[k] == "" {
				hashes[k] = h
			}
			rep.record(why != "", why != "", fmt.Sprintf("dataset %d round %d: %s", k, round, why))
			if why == "" {
				verified++
			}
		}
		// Each complete round's peak heap; peak_heap_mb is their median.
		peak := heap.peakMB()
		if cut {
			break
		}
		heaps = append(heaps, peak)
	}
	rep.metrics["peak_heap_mb"] = median(heaps)
	rep.modelSHA256 = hashes

	var perTrain, perJob, perRaw []float64
	for k := range suite {
		if len(trainTimes[k]) > 0 {
			perTrain = append(perTrain, median(trainTimes[k]))
			perJob = append(perJob, median(jobTimes[k]))
			perRaw = append(perRaw, median(rawTrain[k]))
		}
	}
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["train_s"] = mean(perTrain)
	rep.metrics["p50_ms"] = 1000 * quantile(perJob, 0.50)
	// Verified models per second of job time: the share of jobs that
	// passed, over the mean job time.
	rep.metrics["goodput_rps"] = ratio(float64(verified), float64(rep.attempted)) / mean(perJob)
	rep.raw["setup_s"] = median(rawSetups)
	rep.raw["train_s"] = mean(perRaw)
	rep.raw["host_speed"] = speed.speed()
	return rep, nil
}

// traced is the per-layer run: one setup and one pass over the suite under
// spans and a CPU profile, then direct calls into the engine, mpi, kernel,
// model and perfmodel layers.
func (w trainWorkload) traced(cfg runConfig, rec *recorder) (*report, error) {
	w = w.sized(cfg)
	rep := &report{metrics: zeroLayerMetrics(), options: w.options()}
	m := rep.metrics
	root := rec.start(spanRef{}, "run")

	sp := rec.start(root, "setup")
	suite, ls, err := w.setup(cfg, cfg.seed, rec, sp)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	m["dataset.load_s"] = seconds(ls.load)
	m["dataset.load_mb_per_s"] = ratio(float64(ls.bytes)/(1<<20), seconds(ls.load))

	// The same pass untraced first: trace.overhead_frac compares the two.
	sp = rec.start(root, "untraced-pass")
	var untraced time.Duration
	for _, s := range suite {
		_, dt, err := w.train(s)
		if err != nil {
			return nil, err
		}
		untraced += dt
	}
	sp.end()

	results, err := w.tracedPass(cfg, rec, root, suite, rep)
	if err != nil {
		return nil, err
	}
	var tracedWall time.Duration
	for _, r := range results {
		tracedWall += r.wall
	}
	m["trace.overhead_frac"] = ratio(float64(tracedWall), float64(untraced)) - 1
	m["solver.ns_per_iter"] = ratio(float64(untraced), m["solver.iterations"])

	if err := w.probeLayers(cfg, rec, root, suite, results, rep); err != nil {
		return nil, err
	}
	root.end()
	m["trace.self_sum_over_wall"] = selfSumOverWall(rec.snapshot(), root.id)
	m["error_rate"] = ratio(float64(rep.failed+rep.missed), float64(rep.attempted))
	return rep, nil
}

// trained is one dataset's traced solver.Train outcome.
type trained struct {
	res   solver.Result
	bytes []byte
	wall  time.Duration
}

// tracedPass trains and verifies each dataset once under the CPU profile,
// filling the solver, oracle and model metrics.
func (w trainWorkload) tracedPass(cfg runConfig, rec *recorder, root spanRef, suite []split, rep *report) ([]trained, error) {
	m := rep.metrics
	prof, err := startCPUProfile(cfg.workdir, fmt.Sprintf("cpu-seed%d.pprof", cfg.seed))
	if err != nil {
		return nil, err
	}
	gcw := startGCWindow()
	out := make([]trained, len(suite))
	var verify time.Duration
	var predRows int
	var predTime time.Duration
	measure := rec.start(root, "measure")
	for k, s := range suite {
		sp := rec.start(measure, "solver.Train")
		res, dt, err := w.train(s)
		sp.end()
		if err != nil {
			prof.stop()
			return nil, err
		}
		sp = rec.start(measure, "oracle.VerifyModel")
		t := time.Now()
		why, orep := w.check(s, res.Model)
		verify += time.Since(t)
		sp.end()
		rep.record(why != "", why != "", fmt.Sprintf("dataset %d: %s", k, why))
		if orep != nil {
			m["oracle.rel_gap"] = max(m["oracle.rel_gap"], orep.RelativeGap)
			m["oracle.max_kkt_violation"] = max(m["oracle.max_kkt_violation"], orep.MaxKKTViolation)
		}
		sp = rec.start(measure, "model.PredictBatch")
		t = time.Now()
		res.Model.PredictBatch(s.tx, procs)
		predTime += time.Since(t)
		predRows += s.tx.Rows()
		sp.end()

		b, err := modelBytes(res.Model)
		if err != nil {
			prof.stop()
			return nil, err
		}
		out[k] = trained{res: res, bytes: b, wall: dt}
		rep.modelSHA256 = append(rep.modelSHA256, sha(b))
		m["solver.iterations"] += float64(res.Iterations)
		m["solver.kernel_evals"] += float64(res.KernelEvals)
		m["model.num_sv"] += float64(res.Model.NumSV())
		m["model.bytes"] += float64(len(b))
	}
	measure.end()
	m["runtime.gc_pause_ms"], m["runtime.alloc_mb"] = gcw.finish()
	shares, err := prof.stop()
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		m[k] = v
	}
	m["oracle.verify_s"] = seconds(verify) / float64(len(suite))
	m["model.predict_rows_per_s"] = ratio(float64(predRows), seconds(predTime))
	return out, nil
}

// probeLayers reads the counters only the engine packages expose, by
// calling them directly, and asserts each direct model is byte-identical to
// the solver.Train model; then times model.Save, the kernel row engine and,
// for core, the perfmodel prediction.
func (w trainWorkload) probeLayers(cfg runConfig, rec *recorder, root spanRef, suite []split, results []trained, rep *report) error {
	m := rep.metrics
	layers := rec.start(root, "layers")
	defer layers.end()
	var wall1, wall2, modeled1, modeled2, hits, lookups float64
	for k, s := range suite {
		var direct *model.Model
		switch w.engine {
		case "smo":
			sp := rec.start(layers, "smo.Train")
			res, err := smo.Train(s.x, s.y, smoConfig(w))
			sp.end()
			if err != nil {
				return err
			}
			direct = res.Model
			hits += float64(res.CacheHits)
			lookups += float64(res.CacheHits + res.CacheMisses)
			m["cache.evictions"] += float64(res.CacheEvictions)
			m["smo.shrink_events"] += float64(res.ShrinkEvents)
			m["smo.reconstructions"] += float64(res.Reconstructions)
		case "core":
			// The scaling probe runs with a processor per rank, which the
			// measured runs do not have (see maxProcs).
			runtime.GOMAXPROCS(procs)
			sp := rec.start(layers, "mpi.Run p=2")
			run2, err := coreDirect(w, s, procs)
			sp.end()
			if err != nil {
				return err
			}
			direct = run2.model
			st := run2.stats
			m["core.shrink_events"] += float64(st.ShrinkEvents)
			m["core.reconstructions"] += float64(st.Reconstructions)
			m["core.final_active_frac"] += float64(st.FinalActive) / float64(s.x.Rows()) / float64(len(suite))
			m["core.mean_active_frac"] += st.Trace.MeanActiveFraction() / float64(len(suite))
			m["mpi.sent_bytes"] += float64(run2.sentBytes)

			sp = rec.start(layers, "mpi.Run p=1")
			run1, err := coreDirect(w, s, 1)
			sp.end()
			runtime.GOMAXPROCS(maxProcs)
			if err != nil {
				return err
			}
			sp = rec.start(layers, "perfmodel.Evaluate")
			mach := perfmodel.Calibrate(w.kernel, s.x, 20*time.Millisecond)
			b1, err1 := perfmodel.Evaluate(st.Trace, 1, mach)
			b2, err2 := perfmodel.Evaluate(st.Trace, procs, mach)
			sp.end()
			if err1 != nil || err2 != nil {
				return fmt.Errorf("perfmodel: %v %v", err1, err2)
			}
			wall1 += seconds(run1.wall)
			wall2 += seconds(run2.wall)
			modeled1 += b1.Total()
			modeled2 += b2.Total()
		}
		b, err := modelBytes(direct)
		if err != nil {
			return err
		}
		why := ""
		if !bytes.Equal(b, results[k].bytes) {
			why = fmt.Sprintf("dataset %d: direct %s model differs from the solver.Train model", k, w.engine)
		}
		rep.record(why != "", why != "", why)

		sp := rec.start(layers, "model.Save")
		t := time.Now()
		err = results[k].res.Model.Save(filepath.Join(cfg.workdir, fmt.Sprintf("d%d.model", k)))
		m["model.save_s"] += seconds(time.Since(t))
		sp.end()
		if err != nil {
			return err
		}
	}
	m["cache.hit_rate"] = ratio(hits, lookups)
	if w.engine == "core" {
		m["mpi.sent_bytes_per_iter"] = ratio(m["mpi.sent_bytes"], m["solver.iterations"])
		m["mpi.p2_efficiency"] = ratio(wall1, 2*wall2)
		m["perfmodel.modeled_over_wall"] = ratio(modeled2, wall2)
		m["perfmodel.modeled_over_wall_p1"] = ratio(modeled1, wall1)
		rep.modeled = map[string]float64{
			"perfmodel.seconds_p1": modeled1, "perfmodel.seconds_p2": modeled2,
		}
	}
	sp := rec.start(layers, "kernel")
	m["kernel.row_ns"], m["kernel.lambda_ns"] = kernelProbe(w.kernel, suite[0].x)
	sp.end()
	return nil
}

// kernelProbe times one RowRangeInto over the whole training set (median
// of 15 pivots) and the batched per-evaluation cost lambda.
func kernelProbe(kp kernel.Params, x *sparse.Matrix) (rowNs, lambdaNs float64) {
	ev := kernel.NewEvaluator(kp, x)
	norms := x.SquaredNorms()
	var scr kernel.Scratch
	dst := make([]float64, x.Rows())
	var ts []float64
	for i := 0; i < 15; i++ {
		p := (i * 7919) % x.Rows()
		t := time.Now()
		ev.RowRangeInto(&scr, x.RowView(p), norms[p], 0, x.Rows(), dst)
		ts = append(ts, float64(time.Since(t).Nanoseconds()))
	}
	return median(ts), ev.LambdaBatched(20*time.Millisecond) * 1e9
}

// smoConfig is the smo.Config the smo engine builds from w.opts.
func smoConfig(w trainWorkload) smo.Config {
	return smo.Config{
		Kernel: w.kernel, C: w.opts.C, Eps: w.opts.Eps,
		Workers: w.opts.Workers, CacheBytes: w.opts.CacheBytes,
		Shrinking: true,
	}
}

type coreRun struct {
	model     *model.Model
	stats     *core.Stats
	sentBytes int64 // maximum over ranks
	wall      time.Duration
}

// coreDirect runs the distributed solver inside the benchmark's own
// mpi.Run, as the core engine does, recording the trace and each rank's
// sent bytes.
func coreDirect(w trainWorkload, s split, p int) (coreRun, error) {
	h, err := core.HeuristicByName(w.opts.Heuristic)
	if err != nil {
		return coreRun{}, err
	}
	cfg := core.Config{Kernel: w.kernel, C: w.opts.C, Eps: w.opts.Eps, Heuristic: h, RecordTrace: true, DatasetName: w.spec}
	models := make([]*model.Model, p)
	stats := make([]*core.Stats, p)
	sent := make([]int64, p)
	t := time.Now()
	err = mpi.Run(p, func(c *mpi.Comm) error {
		pt, err := core.NewPartition(s.x, s.y, p, c.Rank())
		if err != nil {
			return err
		}
		m, st, err := core.Train(c, pt, cfg)
		if err != nil {
			return err
		}
		models[c.Rank()], stats[c.Rank()], sent[c.Rank()] = m, st, c.SentBytes()
		return nil
	})
	wall := time.Since(t)
	if err != nil {
		return coreRun{}, err
	}
	run := coreRun{model: models[0], stats: stats[0], wall: wall}
	for _, b := range sent {
		run.sentBytes = max(run.sentBytes, b)
	}
	return run, nil
}

// zeroLayerMetrics starts a traced run's metrics at 0 for every layer, so
// a layer the workload does not run reports 0.
func zeroLayerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}
