package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// runTiny runs one workload at test size in the given mode, as run() does.
func runTiny(t *testing.T, w workload, trace bool) result {
	t.Helper()
	cfg := runConfig{seed: 7, seconds: 1, trace: trace, workdir: t.TempDir(), tiny: true}
	rec, res, err := runWorkload(w, cfg)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", w.name, trace, err)
	}
	if rec.Host.NProc < 1 || len(rec.ModelSHA256) == 0 || rec.Options == nil {
		t.Errorf("%s trace=%v: incomplete record %+v", w.name, trace, rec)
	}
	return res
}

// Every printed metric name and unit is declared in BENCHMARK.json, and
// every declared metric is printed, on every workload and in both modes.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	declared := func(decls []metricDecl) map[string]string {
		m := map[string]string{}
		for _, d := range decls {
			m[d.name] = d.unit
		}
		return m
	}
	e2e, layers := declared(endToEnd), declared(perLayer)
	if len(bj.EndToEnd) != len(e2e) || len(bj.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the program %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(e2e), len(layers))
	}
	for _, m := range bj.EndToEnd {
		if e2e[m.Name] != m.Unit {
			t.Errorf("end_to_end %s: BENCHMARK.json unit %q, program %q", m.Name, m.Unit, e2e[m.Name])
		}
	}
	for _, m := range bj.PerLayer {
		if layers[m.Name] != m.Unit {
			t.Errorf("per_layer %s: BENCHMARK.json unit %q, program %q", m.Name, m.Unit, layers[m.Name])
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for trace, want := range []map[string]string{e2e, layers} {
			res := runTiny(t, w, trace == 1)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics printed, %d declared", w.name, trace, len(res.Metrics), len(want))
			}
			for name, v := range res.Metrics {
				if unit, ok := want[name]; !ok || unit != v.Unit {
					t.Errorf("%s trace=%d: printed %s [%s], declared [%s]", w.name, trace, name, v.Unit, unit)
				}
			}
			if trace == 0 {
				for name, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, name, v.Value)
					}
				}
			} else if r := res.Metrics["trace.self_sum_over_wall"].Value; r < 0.999999 || r > 1.000001 {
				t.Errorf("%s: span self times sum to %v of the run", w.name, r)
			}
		}
	}
}

// A check that fails is counted and reported, and the run still prints its
// result: here every model misses an impossible accuracy floor.
func TestFailedCheckIsReported(t *testing.T) {
	w := trainSmoSparse
	w.accFloor = 1.01
	rep, err := w.measure(runConfig{seed: 3, seconds: 0.01, workdir: t.TempDir(), tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != rep.attempted || rep.attempted == 0 || !rep.incorrect {
		t.Fatalf("attempted %d failed %d incorrect %v; want every job failed", rep.attempted, rep.failed, rep.incorrect)
	}
	if err := rep.balanced(); err != nil {
		t.Fatal(err)
	}
	if len(rep.reasons) == 0 || !strings.Contains(rep.reasons[0], "below floor") {
		t.Fatalf("reasons %q", rep.reasons)
	}
}

// serialHandler answers one request at a time in about `work`; the call
// numbered stallAt holds the lock for `stall` instead.
type serialHandler struct {
	mu      sync.Mutex
	n       int
	stallAt int
	work    time.Duration
	stall   time.Duration
}

func (h *serialHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.n++
	d := h.work
	if h.n == h.stallAt {
		d = h.stall
	}
	time.Sleep(d)
	w.WriteHeader(http.StatusOK)
}

// A stall in the handler lengthens the latency of the requests queued
// behind it, because each request is timed from when it was due, not from
// when the server got to it.
func TestStallLengthensLatencyBehindIt(t *testing.T) {
	const n, gap, stallAt = 60, 2 * time.Millisecond, 20
	const stall = 60 * time.Millisecond
	var ops []op
	for i := 0; i < n; i++ {
		ops = append(ops, op{id: int64(i), kind: opSingle, due: time.Duration(i) * gap})
	}
	lat := func(stallAt int) []time.Duration {
		h := &serialHandler{stallAt: stallAt, work: 100 * time.Microsecond, stall: stall}
		env := &serveEnv{load: serveMixed, h: h, single: [][]byte{[]byte("{}")}}
		var out []time.Duration
		for _, o := range env.runPhase(ops, nil, spanRef{}) {
			out = append(out, o.lat)
		}
		return out
	}
	calm, stalled := lat(0), lat(stallAt)
	// Requests due during the stall wait for it: the one due right after
	// the stalled request waits nearly the whole stall.
	if got := stalled[stallAt]; got < stall-2*gap-5*time.Millisecond {
		t.Errorf("request behind the stall took %v, want about %v", got, stall-gap)
	}
	behind := 0
	for i := stallAt; i < n && time.Duration(i-stallAt+1)*gap < stall; i++ {
		if stalled[i] > calm[i]+10*time.Millisecond {
			behind++
		}
	}
	if want := int(stall/gap) - 5; behind < want {
		t.Errorf("%d requests behind the stall were delayed, want at least %d", behind, want)
	}
}

// Failure accounting: every operation is counted once, as ok or failed,
// with the phase-specific rules; timing-dependent misses are ok but
// counted apart.
func TestFailureAccountingBalances(t *testing.T) {
	env := &serveEnv{
		load:     serveMixed,
		refs:     [2][]float64{{0.5, -0.25}, {0.75, -1}},
		pool:     []batchBody{{rows: []int{0, 1}}},
		versions: map[uint64]int{1: 0, 2: 1},
	}
	limit := env.load.Limit
	body := func(version uint64, dv ...float64) []byte {
		resp := serve.PredictResponse{Version: version}
		for _, v := range dv {
			label := 1.0
			if v < 0 {
				label = -1
			}
			resp.Predictions = append(resp.Predictions, serve.Prediction{Label: label, Decision: v})
		}
		b, _ := json.Marshal(resp)
		return b
	}
	ops := []op{
		{id: 1, kind: opSingle, arg: 0, check: true},
		{id: 2, kind: opSingle, arg: 1, check: true},
		{id: 3, kind: opBatch, arg: 0, check: true},
		{id: 4, kind: opSingle, arg: 0},
		{id: 5, kind: opSingle, arg: 0},
		{id: 6, kind: opSingle, arg: 0},
		{id: 7, kind: opSingle, arg: 0},
		{id: 8, kind: opReload},
		{id: 9, kind: opReload},
		{id: 10, kind: opSingle, arg: 1, check: true},
	}
	outs := []outcome{
		{status: 200, lat: time.Millisecond, body: body(1, 0.5)},        // right
		{status: 200, lat: time.Millisecond, body: body(2, -1)},         // right, other version
		{status: 200, lat: time.Millisecond, body: body(1, 0.5, -0.25)}, // right batch
		{status: 200, lat: limit + time.Millisecond},                    // late
		{status: http.StatusTooManyRequests, lat: time.Millisecond},     // shed
		{status: http.StatusGatewayTimeout, lat: limit},                 // expired
		{status: http.StatusInternalServerError, lat: time.Millisecond}, // error
		{status: 200, lat: time.Millisecond},                            // reload ok
		{status: http.StatusInternalServerError, lat: time.Millisecond}, // reload failed
		{status: 200, lat: time.Millisecond, body: body(1, -1)},         // wrong answer
	}
	for _, c := range []struct {
		high                    bool
		failed, missed, goodput int64
		wantIncorrectFlag       bool
	}{
		// Nominal: error, failed reload and wrong answer fail; late, shed
		// and expired are missed.
		{high: false, failed: 3, missed: 3, goodput: 3, wantIncorrectFlag: true},
		// High rate: shed and expired are expected answers; the late 200
		// is not goodput but not a failure.
		{high: true, failed: 3, missed: 0, goodput: 3, wantIncorrectFlag: true},
	} {
		ps := env.classify(ops, outs, c.high)
		if err := ps.balanced(); err != nil {
			t.Fatal(err)
		}
		var goodput int64
		for _, g := range ps.good {
			if g {
				goodput++
			}
		}
		if ps.attempted != int64(len(ops)) || ps.failed != c.failed || ps.missed != c.missed || goodput != c.goodput || ps.incorrect != c.wantIncorrectFlag {
			t.Errorf("high=%v: attempted %d failed %d missed %d goodput %d incorrect %v; want %d %d %d %d %v (reasons %q)",
				c.high, ps.attempted, ps.failed, ps.missed, goodput, ps.incorrect,
				len(ops), c.failed, c.missed, c.goodput, c.wantIncorrectFlag, ps.reasons)
		}
		if len(ps.lat) != 8 {
			t.Errorf("%d predict latencies, want 8", len(ps.lat))
		}
		for i, l := range ps.lat {
			if (i >= 3 && i <= 6 || i == 7) && l < millis(limit) {
				t.Errorf("failed or late request %d has latency %v ms, below the limit", i, l)
			}
		}
	}
}

func TestSelfTimesTileTheRun(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a1", Start: 15, End: 25},
		{ID: 4, Parent: 2, Name: "a2", Start: 25, End: 35},
		{ID: 5, Parent: 1, Name: "b", Start: 50, End: 90},
		{ID: 6, Parent: 5, Name: "req", Async: true, Start: 55, End: 200},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 30, 2: 10, 3: 10, 4: 10, 5: 40, 6: 145} {
		if self[id] != want {
			t.Errorf("span %d self time %v, want %v", id, self[id], want)
		}
	}
	if r := selfSumOverWall(spans, 1); r != 1 {
		t.Errorf("self times sum to %v of the run, want 1", r)
	}
}

// The CPU profile decoder attributes a busy loop in the kernel package.
func TestProfileShares(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for a second")
	}
	dir := t.TempDir()
	p, err := startCPUProfile(dir, "cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{seed: 1, workdir: dir, tiny: true}
	w := trainSmoSparse.sized(cfg)
	suite, _, err := w.setup(cfg, cfg.seed, nil, spanRef{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		kernelProbe(w.kernel, suite[0].x)
	}
	shares, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, d := range profLayers {
		sum += shares[d.metric]
	}
	// Under the race detector its instrumentation takes most leaf
	// samples, so the bar is only that the loop's layers are found.
	if shares["prof.kernel_share"]+shares["prof.sparse_share"]+shares["prof.exp_share"] < 0.1 || sum > 1+1e-9 {
		t.Errorf("shares %v", shares)
	}
}

// Conversion to the reference speed: the probes inside an operation are
// taken off its wall time, which is then scaled by the probes' speed.
func TestReferenceSpeed(t *testing.T) {
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	ref := sparseProbe.refSeconds
	slow := ms(2 * ref * 1000) // the host at half the reference speed
	s := &speedSampler{ref: ref}
	for _, at := range []float64{10, 20, 30, 40} {
		s.samples = append(s.samples, probeSample{from: ms(at), warm: ms(at + 1), to: ms(at+1) + slow})
	}
	probes := 4 * (time.Millisecond + slow)
	raw, ref := s.convert(ms(5), ms(100))
	if want := seconds(ms(95) - probes); math.Abs(raw-want) > 1e-9 || math.Abs(ref-want/2) > 1e-9 {
		t.Errorf("convert = %v, %v; want %v, %v", raw, ref, want, want/2)
	}
	// Too short to hold a probe: scaled by the nearest ones.
	if raw, ref := s.convert(ms(12), ms(15)); math.Abs(raw-0.003) > 1e-9 || math.Abs(ref-0.0015) > 1e-9 {
		t.Errorf("short convert = %v, %v", raw, ref)
	}
	if sp := s.speed(); math.Abs(sp-0.5) > 1e-9 {
		t.Errorf("speed = %v, want 0.5", sp)
	}
	// The sampler runs and stops.
	live := startSpeedSampler(denseProbe)
	time.Sleep(30 * time.Millisecond)
	live.close()
	if len(live.samples) == 0 {
		t.Error("no probes in 30 ms")
	}
}
