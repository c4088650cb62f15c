package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// serve-mixed: a packed mnist38-shape kernel model behind
// serve.Server.Handler(), driven open-loop by one pacing goroutine at a
// nominal rate and then at twice that (the high-rate phase), both below
// the server's capacity even when the host is at its slowest, while the
// model file is hot-reloaded on a fixed period. Requests are called in
// process; no sockets.
//
// The high rate stays below capacity because above it this server
// collapses: every request's JSON is decoded before admission control can
// refuse it and the direct 64-row batches are not shed, so once a backlog
// forms, answers go past their deadline until the load stops. Capacity
// moves with how busy the host is (1000 to 1900 requests/s on one
// processor of the host this was sized on), so goodput above it was
// either full or collapsed, run by run.
var serveTrain = trainWorkload{
	name: "serve-mixed", spec: "mnist38", scale: 0.05, datasets: 1,
	engine: "smo",
	kernel: kernel.FromSigma2(25),
	opts: solver.Options{
		C: 10, Eps: 1e-3,
		Workers: procs, P: 1,
		Heuristic:  "",
		CacheBytes: 64 << 20,
	},
	accFloor: 0.90,
	probe:    mnistProbe,
}

// serveLoad is the pinned traffic and server configuration.
type serveLoad struct {
	NominalRPS   float64       `json:"nominal_rps"`
	HighRPS      float64       `json:"high_rps"`
	NominalShare float64       `json:"nominal_share"`
	BatchFrac    float64       `json:"batch_frac"`
	BatchRows    int           `json:"batch_rows"`
	Limit        time.Duration `json:"latency_limit_ns"`
	ReloadEvery  time.Duration `json:"reload_every_ns"`
	// Window is the length of the windows p50_ms, goodput_rps and
	// peak_heap_mb are taken over.
	Window    time.Duration `json:"window_ns"`
	Warmup    time.Duration `json:"warmup_ns"`
	CheckFrac float64       `json:"check_frac"`
	// ReloadC is the box constraint of the second model file the reloads
	// alternate with.
	ReloadC   float64      `json:"reload_c"`
	PackBytes int64        `json:"pack_budget_bytes"`
	Server    serve.Config `json:"server"`
}

var serveMixed = serveLoad{
	NominalRPS: 400, HighRPS: 800, NominalShare: 0.5,
	BatchFrac: 0.10, BatchRows: 64,
	Limit:       50 * time.Millisecond,
	ReloadEvery: 250 * time.Millisecond,
	Window:      time.Second,
	Warmup:      500 * time.Millisecond,
	CheckFrac:   0.125,
	ReloadC:     2.5,
	PackBytes:   model.DefaultPackBudget,
	Server: serve.Config{
		Workers: procs, MaxBatch: 4096,
		CoalesceWindow: 2 * time.Millisecond, CoalesceBatch: 32,
		Replicas: 1, QueueDepth: 1024, MaxInFlight: 2,
	},
}

type serveOptions struct {
	Train trainOptions `json:"train"`
	Load  serveLoad    `json:"load"`
}

const (
	opSingle = iota
	opBatch
	opReload
)

var opNames = [...]string{"serve.predict.single", "serve.predict.batch", "serve.reload"}

// op is one scheduled operation. For opSingle, arg is a held-out row; for
// opBatch, an index into the batch pool.
type op struct {
	id    int64
	kind  int
	due   time.Duration // offset from the phase start
	arg   int
	check bool
}

// outcome is what the generator observed for one op.
type outcome struct {
	status int
	lat    time.Duration // from due to answer
	late   time.Duration // from due to send
	body   []byte        // kept for checked predictions
}

// serveEnv is a set-up server and the data to drive and check it.
type serveEnv struct {
	load   serveLoad
	srv    *serve.Server
	h      http.Handler
	path   string
	files  [2][]byte    // model file contents: the trained model, the reload alternate
	refs   [2][]float64 // decision values of each file's model on the held-out rows
	tx     *sparse.Matrix
	single [][]byte // request body per held-out row
	pool   []batchBody

	reloadMu sync.Mutex
	reloads  int
	versions map[uint64]int // published version -> file index
}

type batchBody struct {
	rows []int
	body []byte
}

// servedSetup is one setup of serve-mixed.
type servedSetup struct {
	env   *serveEnv
	split split
	// first is the served model's training, whose counters the traced
	// run reports.
	first trained
	load  loadStats
}

// serveDataSeed draws the served model's training data. It is the same in
// every run, so the served model is too; the run seed draws the traffic:
// arrival times, request kinds, the rows asked for and the batches.
const serveDataSeed = 0

// serveSetup trains the model and its reload alternate, verifies both,
// saves the first, and registers and packs it behind a new server. A model
// that fails verification fails the setup: there is nothing correct to
// serve.
func serveSetup(cfg runConfig, load serveLoad, rec *recorder, parent spanRef) (servedSetup, error) {
	w := serveTrain.sized(cfg)
	suite, ls, err := w.setup(cfg, serveDataSeed, rec, parent)
	if err != nil {
		return servedSetup{}, err
	}
	su := servedSetup{split: suite[0], load: ls}
	env := &serveEnv{load: load, tx: su.split.tx, path: filepath.Join(cfg.workdir, "served.model")}
	for i, c := range []float64{w.opts.C, load.ReloadC} {
		wc := w
		wc.opts.C = c
		sp := rec.start(parent, "solver.Train")
		res, dt, err := wc.train(su.split)
		sp.end()
		if err != nil {
			return su, err
		}
		sp = rec.start(parent, "oracle.VerifyModel")
		why, _ := wc.check(su.split, res.Model)
		sp.end()
		if why != "" {
			return su, fmt.Errorf("served model %d: %s", i, why)
		}
		b, err := modelBytes(res.Model)
		if err != nil {
			return su, err
		}
		env.files[i] = b
		if i == 0 {
			su.first = trained{res: res, bytes: b, wall: dt}
			sp = rec.start(parent, "model.Save")
			err = res.Model.Save(env.path)
			sp.end()
			if err != nil {
				return su, err
			}
		}
	}
	sp := rec.start(parent, "serve.Registry.Add")
	reg := serve.NewRegistry()
	reg.SetPackBudget(load.PackBytes)
	err = reg.Add("default", env.path)
	sp.end()
	if err != nil {
		return su, err
	}
	sp = rec.start(parent, "serve.New")
	env.srv = serve.New(reg, load.Server)
	env.h = env.srv.Handler()
	sp.end()
	env.versions = map[uint64]int{1: 0}
	su.env = env
	return su, nil
}

// prepare builds the request bodies and the reference decision values;
// it is bookkeeping of the benchmark, outside setup_s.
func (env *serveEnv) prepare(seed int64) error {
	for i, b := range env.files {
		m, err := model.Read(bytes.NewReader(b))
		if err != nil {
			return err
		}
		env.refs[i] = m.DecisionValues(env.tx, procs)
	}
	// Rows travel as libsvm feature strings; 'g' with precision -1 round
	// trips every float64 exactly.
	libsvm := func(r int) string {
		row := env.tx.RowView(r)
		var b strings.Builder
		for k, c := range row.Idx {
			if k > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.Itoa(int(c) + 1))
			b.WriteByte(':')
			b.WriteString(strconv.FormatFloat(row.Val[k], 'g', -1, 64))
		}
		return b.String()
	}
	n := env.tx.Rows()
	env.single = make([][]byte, n)
	for r := 0; r < n; r++ {
		b, err := json.Marshal(serve.PredictRequest{Libsvm: libsvm(r)})
		if err != nil {
			return err
		}
		env.single[r] = b
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 1000)))
	env.pool = make([]batchBody, batchPool)
	for p := range env.pool {
		var req serve.PredictRequest
		rows := make([]int, env.load.BatchRows)
		for i := range rows {
			rows[i] = rng.Intn(n)
			req.Instances = append(req.Instances, serve.Instance{Libsvm: libsvm(rows[i])})
		}
		b, err := json.Marshal(req)
		if err != nil {
			return err
		}
		env.pool[p] = batchBody{rows: rows, body: b}
	}
	return nil
}

// batchPool is how many distinct 64-row batches a run sends; enough that
// the run's latency does not hinge on which rows a few batches drew.
const batchPool = 64

// schedule draws a phase's operations: Poisson arrivals at rate, a
// BatchFrac share of them client batches, plus a reload every ReloadEvery
// when reloads is set.
func (env *serveEnv) schedule(rng *rand.Rand, rate float64, d time.Duration, firstID int64, reloads bool) []op {
	var ops []op
	id := firstID
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= d {
			break
		}
		o := op{id: id, kind: opSingle, due: t, arg: rng.Intn(env.tx.Rows()), check: rng.Float64() < env.load.CheckFrac}
		if rng.Float64() < env.load.BatchFrac {
			o.kind, o.arg = opBatch, rng.Intn(len(env.pool))
		}
		ops = append(ops, o)
		id++
	}
	if reloads {
		for t := env.load.ReloadEvery / 2; t < d; t += env.load.ReloadEvery {
			ops = append(ops, op{id: id, kind: opReload, due: t})
			id++
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// runPhase is the open-loop generator: one pacing goroutine starts each op
// at its due time, whether or not earlier ones have finished, and every op
// is timed from when it was due.
func (env *serveEnv) runPhase(ops []op, rec *recorder, phase spanRef) []outcome {
	outs := make([]outcome, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range ops {
		due := start.Add(ops[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := rec.startAsync(phase, opNames[ops[i].kind], ops[i].id)
			outs[i] = env.do(ops[i], due)
			outs[i].late = sent.Sub(due)
			sp.end()
		}(i)
	}
	wg.Wait()
	return outs
}

func (env *serveEnv) do(o op, due time.Time) outcome {
	if o.kind == opReload {
		return env.reload(due)
	}
	body := env.single[o.arg]
	if o.kind == opBatch {
		body = env.pool[o.arg].body
	}
	ctx, cancel := context.WithDeadline(context.Background(), due.Add(env.load.Limit))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/predict", bytes.NewReader(body))
	if err != nil {
		return outcome{status: -1, lat: time.Since(due)}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", strconv.FormatInt(o.id, 10))
	rw := httptest.NewRecorder()
	env.h.ServeHTTP(rw, req)
	out := outcome{status: rw.Code, lat: time.Since(due)}
	if o.check && rw.Code == http.StatusOK {
		out.body = rw.Body.Bytes()
	}
	return out
}

// reload writes the next model file (alternating between the two) and
// hot-reloads it through the handler. Reloads are serialized so the
// version each publishes maps to exactly one file.
func (env *serveEnv) reload(due time.Time) outcome {
	env.reloadMu.Lock()
	defer env.reloadMu.Unlock()
	env.reloads++
	file := env.reloads % 2
	var out outcome
	tmp := env.path + ".tmp"
	if err := os.WriteFile(tmp, env.files[file], 0o644); err != nil {
		out.status, out.lat = -1, time.Since(due)
		return out
	}
	if err := os.Rename(tmp, env.path); err != nil {
		out.status, out.lat = -1, time.Since(due)
		return out
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/models/default/reload", nil)
	rw := httptest.NewRecorder()
	env.h.ServeHTTP(rw, req)
	out.status, out.lat = rw.Code, time.Since(due)
	var resp struct {
		Version uint64 `json:"version"`
	}
	if rw.Code == http.StatusOK && json.Unmarshal(rw.Body.Bytes(), &resp) == nil {
		env.versions[resp.Version] = file
	}
	return out
}

// verify checks a kept response against model.DecisionValues of the model
// file with the response's version, on the same rows. It returns "" when
// every prediction matches exactly.
func (env *serveEnv) verify(o op, body []byte) string {
	var resp serve.PredictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return "undecodable response: " + err.Error()
	}
	rows := []int{o.arg}
	if o.kind == opBatch {
		rows = env.pool[o.arg].rows
	}
	file, ok := env.versions[resp.Version]
	if !ok {
		return fmt.Sprintf("response names unknown model version %d", resp.Version)
	}
	if len(resp.Predictions) != len(rows) {
		return fmt.Sprintf("%d predictions for %d rows", len(resp.Predictions), len(rows))
	}
	for i, p := range resp.Predictions {
		want := env.refs[file][rows[i]]
		label := -1.0
		if want >= 0 {
			label = 1
		}
		if p.Decision != want || p.Label != label {
			return fmt.Sprintf("row %d (version %d): decision %v label %v, want %v %v", rows[i], resp.Version, p.Decision, p.Label, want, label)
		}
	}
	return ""
}

// phaseStats classifies a phase's outcomes. An error other than the
// shedder's 429 and the deadline's 504, a failed reload or a wrong answer
// fails. A 429, a 504 or an answer after the limit depends on how the host
// scheduled the run, not only on the program: in the nominal phase it is
// counted as missed (against error_rate, not in failed), in the high-rate
// phase it counts only against goodput.
type phaseStats struct {
	tally
	// lat holds predict latencies, with failed requests at no less than
	// the limit; due and good are per predict too. byKind splits the
	// latencies by request kind.
	lat     []float64
	due     []time.Duration
	good    []bool
	byKind  [2][]float64
	late    []float64
	reloadS []float64
	// duringReload holds latencies of predicts due while a reload ran.
	duringReload []float64
}

// windows splits the phase by due time into consecutive windows of length
// w and returns, per window, the median predict latency (of the windows
// with a predict) and the good answers per second.
func (ps *phaseStats) windows(phase, w time.Duration) (p50, goodput []float64) {
	n := max(1, int(phase/w))
	lat := make([][]float64, n)
	goodput = make([]float64, n)
	for i, d := range ps.due {
		k := min(int(d/w), n-1)
		lat[k] = append(lat[k], ps.lat[i])
		if ps.good[i] {
			goodput[k] += 1 / seconds(w)
		}
	}
	for _, l := range lat {
		if len(l) > 0 {
			p50 = append(p50, quantile(l, 0.50))
		}
	}
	return p50, goodput
}

func (env *serveEnv) classify(ops []op, outs []outcome, high bool) phaseStats {
	var ps phaseStats
	limit := env.load.Limit
	type window struct{ lo, hi time.Duration }
	var reloads []window
	lat := make([]float64, len(ops))
	for i, o := range ops {
		out := outs[i]
		ps.late = append(ps.late, millis(out.late))
		if o.kind == opReload {
			ps.reloadS = append(ps.reloadS, seconds(out.lat-out.late))
			reloads = append(reloads, window{o.due, o.due + out.lat})
			failed := out.status != http.StatusOK
			ps.record(failed, false, fmt.Sprintf("reload %d: status %d", o.id, out.status))
			continue
		}
		wrong := ""
		if out.body != nil {
			wrong = env.verify(o, out.body)
		}
		good := out.status == http.StatusOK && out.lat <= limit && wrong == ""
		expected := out.status == http.StatusOK || out.status == http.StatusTooManyRequests || out.status == http.StatusGatewayTimeout
		failed := !expected || wrong != ""
		if !high && !failed && !good {
			ps.missed++
		}
		why := wrong
		if why == "" {
			why = fmt.Sprintf("status %d after %v (limit %v)", out.status, out.lat.Round(time.Microsecond), limit)
		}
		ps.record(failed, wrong != "", fmt.Sprintf("%s %d: %s", opNames[o.kind], o.id, why))
		lat[i] = millis(out.lat)
		if !good {
			lat[i] = max(lat[i], millis(limit))
		}
		ps.lat = append(ps.lat, lat[i])
		ps.due = append(ps.due, o.due)
		ps.good = append(ps.good, good)
		ps.byKind[o.kind] = append(ps.byKind[o.kind], lat[i])
	}
	for i, o := range ops {
		if o.kind == opReload {
			continue
		}
		for _, w := range reloads {
			if o.due >= w.lo && o.due <= w.hi {
				ps.duringReload = append(ps.duringReload, lat[i])
				break
			}
		}
	}
	return ps
}

// phaseOps draws the warm-up schedule and the two measured phases; the
// nominal phase takes NominalShare of the run's seconds.
func (env *serveEnv) phaseOps(cfg runConfig) (warm, nom, over []op, nomDur, overDur time.Duration) {
	rng := rand.New(rand.NewSource(subSeed(cfg.seed, 2000)))
	total := time.Duration(cfg.seconds * float64(time.Second))
	nomDur = time.Duration(float64(total) * env.load.NominalShare)
	warm = env.schedule(rng, env.load.NominalRPS, env.load.Warmup, 1, false)
	nom = env.schedule(rng, env.load.NominalRPS, nomDur, 1_000_000, true)
	over = env.schedule(rng, env.load.HighRPS, total-nomDur, 2_000_000, true)
	return warm, nom, over, nomDur, total - nomDur
}

// measureServe is the untraced serve-mixed run. setup_s and train_s are
// converted to the reference speed like the training workloads' (see
// speed.go); the latencies are not, as part of each is the coalescing
// window's timer, which does not slow down with the host.
func measureServe(cfg runConfig) (*report, error) {
	load := serveMixed
	w := serveTrain.sized(cfg)
	rep := &report{metrics: map[string]float64{}, raw: map[string]float64{}, options: serveOptions{w.options(), load}}
	// The speed sampler runs only while setups and trainings do, not while
	// requests are served.
	var speeds []float64
	var setups, rawSetups []float64
	var su servedSetup
	speed := startSpeedSampler(w.probe)
	for r := 0; r < setupReps; r++ {
		if su.env != nil {
			su.env.srv.Close()
		}
		from := speed.now()
		var err error
		if su, err = serveSetup(cfg, load, nil, spanRef{}); err != nil {
			speed.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		raw, ref := speed.convert(from, speed.now())
		rawSetups = append(rawSetups, raw)
		setups = append(setups, ref)
	}
	speed.close()
	speeds = append(speeds, speed.speed())
	env := su.env
	defer env.srv.Close()
	rep.modelSHA256 = []string{sha(env.files[0]), sha(env.files[1])}

	// The served model is trained again before, between and after the
	// phases, each time checked to reproduce it; train_s is the median.
	var trains, rawTrains []float64
	retrain := func() error {
		speed := startSpeedSampler(w.probe)
		defer func() {
			speed.close()
			speeds = append(speeds, speed.speed())
		}()
		for n := 0; n < serveRetrains; n++ {
			from := speed.now()
			res, _, err := w.train(su.split)
			if err != nil {
				return err
			}
			raw, ref := speed.convert(from, speed.now())
			b, err := modelBytes(res.Model)
			if err != nil {
				return err
			}
			same := bytes.Equal(b, env.files[0])
			rep.record(!same, !same, "retrained served model differs from the served one")
			trains = append(trains, ref)
			rawTrains = append(rawTrains, raw)
		}
		return nil
	}
	if err := retrain(); err != nil {
		return nil, err
	}
	if err := env.prepare(cfg.seed); err != nil {
		return nil, err
	}
	warm, nom, over, nomDur, overDur := env.phaseOps(cfg)
	env.runPhase(warm, nil, spanRef{})
	// Every run starts the measured phases from a collected heap, whatever
	// setup left behind.
	runtime.GC()

	// peak_heap_mb covers the nominal phase: at the high rate the heap
	// holds whatever the queues hold when GC marks, which repeats less.
	heap := startHeapSampler()
	nomOut := env.runPhase(nom, nil, spanRef{})
	heaps := heap.windowPeaksMB(env.load.Window)
	if err := retrain(); err != nil {
		return nil, err
	}
	overOut := env.runPhase(over, nil, spanRef{})
	if err := retrain(); err != nil {
		return nil, err
	}

	ns, ov, err := env.account(rep, nom, nomOut, over, overOut)
	if err != nil {
		return nil, err
	}
	nomP50, _ := ns.windows(nomDur, env.load.Window)
	_, overGood := ov.windows(overDur, env.load.Window)
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["train_s"] = median(trains)
	// The quietest window's median: a busy host lengthens every request
	// of a window, and the windows are seconds long.
	rep.metrics["p50_ms"] = minOf(nomP50)
	rep.metrics["goodput_rps"] = median(overGood)
	rep.metrics["peak_heap_mb"] = median(heaps)
	rep.raw["setup_s"] = median(rawSetups)
	rep.raw["train_s"] = median(rawTrains)
	rep.raw["host_speed"] = median(speeds)
	return rep, nil
}

// serveRetrains is how many times the served model is trained again before
// the phases, between them and after them.
const serveRetrains = 4

// account classifies both measured phases, checks that each balances, and
// adds them to the run's tally.
func (env *serveEnv) account(rep *report, nom []op, nomOut []outcome, over []op, overOut []outcome) (ns, ov phaseStats, err error) {
	ns = env.classify(nom, nomOut, false)
	ov = env.classify(over, overOut, true)
	for _, ps := range []phaseStats{ns, ov} {
		if err := ps.balanced(); err != nil {
			return ns, ov, err
		}
		rep.add(ps.tally)
	}
	return ns, ov, nil
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func tracedServe(cfg runConfig, rec *recorder) (*report, error) {
	load := serveMixed
	w := serveTrain.sized(cfg)
	rep := &report{metrics: zeroLayerMetrics(), options: serveOptions{w.options(), load}}
	m := rep.metrics
	root := rec.start(spanRef{}, "run")

	sp := rec.start(root, "setup")
	su, err := serveSetup(cfg, load, rec, sp)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	env, first := su.env, su.first
	defer env.srv.Close()
	rep.modelSHA256 = []string{sha(env.files[0]), sha(env.files[1])}
	m["dataset.load_s"] = seconds(su.load.load)
	m["dataset.load_mb_per_s"] = ratio(float64(su.load.bytes)/(1<<20), seconds(su.load.load))
	m["solver.iterations"] = float64(first.res.Iterations)
	m["solver.kernel_evals"] = float64(first.res.KernelEvals)
	m["solver.ns_per_iter"] = ratio(float64(first.wall), float64(first.res.Iterations))
	m["model.num_sv"] = float64(first.res.Model.NumSV())
	m["model.bytes"] = float64(len(first.bytes))

	sp = rec.start(root, "prepare")
	err = env.prepare(cfg.seed)
	sp.end()
	if err != nil {
		return nil, err
	}
	warm, nom, over, _, _ := env.phaseOps(cfg)

	// trace.overhead_frac: CPU time of the warm-up schedule run untraced,
	// then traced, after one run that warms the server.
	cal := rec.start(root, "overhead-calibration")
	env.runPhase(warm, nil, spanRef{})
	t0 := cpuTime()
	env.runPhase(warm, nil, spanRef{})
	t1 := cpuTime()
	env.runPhase(warm, rec, cal)
	t2 := cpuTime()
	cal.end()
	m["trace.overhead_frac"] = ratio(float64(t2-t1), float64(t1-t0)) - 1

	prof, err := startCPUProfile(cfg.workdir, fmt.Sprintf("cpu-seed%d.pprof", cfg.seed))
	if err != nil {
		return nil, err
	}
	gcw := startGCWindow()
	s0 := env.scrape()
	sp = rec.start(root, "phase.nominal")
	nomOut := env.runPhase(nom, rec, sp)
	sp.end()
	s1 := env.scrape()
	sp = rec.start(root, "phase.high")
	overOut := env.runPhase(over, rec, sp)
	sp.end()
	s2 := env.scrape()
	m["runtime.gc_pause_ms"], m["runtime.alloc_mb"] = gcw.finish()
	shares, err := prof.stop()
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		m[k] = v
	}

	ns, ov, err := env.account(rep, nom, nomOut, over, overOut)
	if err != nil {
		return nil, err
	}
	nd, od := s1.minus(s0), s2.minus(s1)
	predicts := float64(len(ns.lat) + len(ov.lat))
	m["serve.shed_frac"] = ratio(nd.sum("svmserve_shed_total")+od.sum("svmserve_shed_total"), predicts)
	m["serve.queue_wait_p99_ms"] = 1000 * nd.histQuantile("svmserve_batch_queue_wait_seconds", 0.99)
	m["serve.exec_us_per_row"] = 1e6 * ratio(od.sum("svmserve_batch_exec_seconds_sum"), od.sum("svmserve_coalesced_batch_size_sum"))
	m["serve.coalesced_batch_mean"] = ratio(od.sum("svmserve_coalesced_batch_size_sum"), od.sum("svmserve_coalesced_batch_size_count"))
	m["serve.p99_ms"] = quantile(ns.lat, 0.99)
	m["serve.single_p99_ms"] = quantile(ns.byKind[opSingle], 0.99)
	m["serve.direct_batch_p99_ms"] = quantile(ns.byKind[opBatch], 0.99)
	m["serve.reload_s"] = median(append(ns.reloadS, ov.reloadS...))
	m["serve.p99_during_reload_ms"] = quantile(ns.duringReload, 0.99)
	m["loadgen.late_p99_ms"] = quantile(append(ns.late, ov.late...), 0.99)

	// The served model's training-side layers, read as the train workloads
	// read them.
	sp = rec.start(root, "layers.oracle")
	t := time.Now()
	why, orep := w.check(su.split, first.res.Model)
	m["oracle.verify_s"] = seconds(time.Since(t))
	sp.end()
	rep.record(why != "", why != "", "served model: "+why)
	if orep != nil {
		m["oracle.rel_gap"], m["oracle.max_kkt_violation"] = orep.RelativeGap, orep.MaxKKTViolation
	}
	sp = rec.start(root, "layers.model.PredictBatch")
	t = time.Now()
	first.res.Model.PredictBatch(su.split.tx, procs)
	m["model.predict_rows_per_s"] = ratio(float64(su.split.tx.Rows()), seconds(time.Since(t)))
	sp.end()
	if err := w.probeLayers(cfg, rec, root, []split{su.split}, []trained{first}, rep); err != nil {
		return nil, err
	}
	root.end()
	m["trace.self_sum_over_wall"] = selfSumOverWall(rec.snapshot(), root.id)
	m["error_rate"] = ratio(float64(rep.failed+rep.missed), float64(rep.attempted))
	return rep, nil
}

// scrape reads GET /metrics through the handler: series -> value.
type scrape map[string]float64

func (env *serveEnv) scrape() scrape {
	rw := httptest.NewRecorder()
	env.h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := scrape{}
	sc := bufio.NewScanner(rw.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func (s scrape) minus(base scrape) scrape {
	out := scrape{}
	for k, v := range s {
		out[k] = v - base[k]
	}
	return out
}

// sum adds every series of the named metric.
func (s scrape) sum(name string) float64 {
	var t float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// histQuantile is the upper bound of the bucket holding the q-quantile of
// a histogram (the largest finite bound when it falls in +Inf).
func (s scrape) histQuantile(name string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range s {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0
	}
	total := bs[len(bs)-1].cum
	for i, b := range bs {
		if b.cum >= q*total {
			if math.IsInf(b.le, 1) && i > 0 {
				return bs[i-1].le
			}
			return b.le
		}
	}
	return 0
}
