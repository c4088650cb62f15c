// Command perfbench is the repository's benchmark: the time to an
// oracle-verified model on the sparse smo and dense distributed core
// engines, and open-loop serving with hot reload. It generates its inputs
// from --seed, writes them as libsvm files, and drives the program only
// through its public packages, timing each call.
//
//	go run . --workload train-smo-sparse --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result: {"correct", "attempted",
// "failed", "metrics"}. An untraced run (--trace 0) reports the end-to-end
// metrics, a traced run (--trace 1) the per-layer ones, plus the spans and
// CPU profile it writes under -workdir. The line before it is the run's
// record: host and provenance fingerprint, pinned options and model hashes.
// README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runConfig is what one invocation measures.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	workdir string
	// tiny shrinks every input to test size; only tests set it.
	tiny bool
}

// workload is one benchmark workload: an untraced measurement and a traced
// per-layer run over the same inputs.
type workload struct {
	name    string
	measure func(runConfig) (*report, error)
	traced  func(runConfig, *recorder) (*report, error)
}

var workloads = []workload{
	{trainSmoSparse.name, trainSmoSparse.measure, trainSmoSparse.traced},
	{trainCoreDense.name, trainCoreDense.measure, trainCoreDense.traced},
	{"serve-mixed", measureServe, tracedServe},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// report is what a workload run produced.
type report struct {
	metrics map[string]float64
	tally
	// options are the pinned workload options, recorded verbatim.
	options any
	// modelSHA256 holds the hash of each trained model file, in input order.
	modelSHA256 []string
	// modeled holds perfmodel figures, which are predictions, not
	// measurements.
	modeled map[string]float64
	// raw holds wall times before their conversion to the reference speed,
	// and the run's median host speed (speed.go).
	raw map[string]float64
}

// tally is the failure accounting of a run.
type tally struct {
	attempted, ok, failed int64
	// missed counts operations refused or answered late where the load
	// allowed neither (the nominal phase). Whether that happens depends on
	// the host as well as the program: they are ok, and count against
	// error_rate only.
	missed int64
	// incorrect is set when an output was wrong (as opposed to late or
	// refused).
	incorrect bool
	reasons   []string
}

// record adds one operation's outcome. A non-empty why explains a failure;
// wrong marks a wrong output.
func (t *tally) record(failed, wrong bool, why string) {
	t.attempted++
	if !failed {
		t.ok++
		return
	}
	t.failed++
	t.incorrect = t.incorrect || wrong
	if len(t.reasons) < 20 {
		t.reasons = append(t.reasons, why)
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.ok += o.ok
	t.failed += o.failed
	t.missed += o.missed
	t.incorrect = t.incorrect || o.incorrect
	for _, r := range o.reasons {
		if len(t.reasons) < 20 {
			t.reasons = append(t.reasons, r)
		}
	}
}

// balanced checks attempted = ok + failed.
func (t *tally) balanced() error {
	if t.attempted != t.ok+t.failed {
		return fmt.Errorf("accounting: attempted %d != ok %d + failed %d", t.attempted, t.ok, t.failed)
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultOf selects the declared metrics for the run's mode; a declared
// metric the workload did not produce, or a non-finite one, is an error.
func resultOf(rep *report, decls []metricDecl) (result, error) {
	res := result{
		Correct:   !rep.incorrect,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(decls)),
	}
	if res.Attempted < 1 {
		return res, errors.New("no operation was attempted")
	}
	for _, d := range decls {
		v, ok := rep.metrics[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// hostInfo is the host and provenance fingerprint every record carries.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
	Modified   bool   `json:"commit_modified"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}

// runRecord is the provenance record of one run, printed before the result
// and kept under the work directory.
type runRecord struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	Host        hostInfo           `json:"host"`
	Options     any                `json:"options"`
	ModelSHA256 []string           `json:"model_sha256"`
	Modeled     map[string]float64 `json:"modeled,omitempty"`
	Raw         map[string]float64 `json:"raw,omitempty"`
	Failures    []string           `json:"failures,omitempty"`
	Started     string             `json:"started"`
	Result      result             `json:"result"`
}

// procs is the benchmark's parallelism: smo Workers, core ranks, oracle
// and serving workers are all pinned to it.
const procs = 2

// maxProcs is the GOMAXPROCS the benchmark runs with. One processor: the
// benchmark gets a share of a shared host, and a second thread measures how
// the host schedules the two (every smo iteration and every core Allreduce
// waits for both) more than it measures the program.
const maxProcs = 1

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	secs := fs.Float64("seconds", 10, "length of the measured phase, seconds")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for generated inputs, records, spans and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *secs <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload=%q seconds=%v trace=%d: %v\n", *name, *secs, *traceMode, err)
		return 2
	}
	runtime.GOMAXPROCS(maxProcs)
	cfg := runConfig{seed: *seed, seconds: *secs, trace: *traceMode == 1, workdir: *workdir}
	rec, res, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "record %s\n", line)
	for _, r := range rec.Failures {
		fmt.Fprintf(stderr, "perfbench: failed: %s\n", r)
	}
	if line, err = json.Marshal(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runWorkload runs one workload in cfg's mode and writes its record (and,
// when traced, its spans) under the work directory.
func runWorkload(w workload, cfg runConfig) (runRecord, result, error) {
	dir := filepath.Join(cfg.workdir, w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return runRecord{}, result{}, err
	}
	cfg.workdir = dir
	started := time.Now()
	var (
		rep   *report
		spans *recorder
		err   error
		decls = endToEnd
	)
	if cfg.trace {
		spans = newRecorder()
		rep, err = w.traced(cfg, spans)
		decls = perLayer
	} else {
		rep, err = w.measure(cfg)
	}
	if err != nil {
		return runRecord{}, result{}, err
	}
	if err := rep.balanced(); err != nil {
		return runRecord{}, result{}, err
	}
	res, err := resultOf(rep, decls)
	if err != nil {
		return runRecord{}, result{}, err
	}
	rec := runRecord{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host: fingerprint(), Options: rep.options, ModelSHA256: rep.modelSHA256,
		Modeled: rep.modeled, Raw: rep.raw, Failures: rep.reasons,
		Started: started.UTC().Format(time.RFC3339), Result: res,
	}
	tag := fmt.Sprintf("seed%d-trace%d", cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace])
	if spans != nil {
		if err := spans.writeSpans(filepath.Join(dir, "spans-"+tag+".jsonl")); err != nil {
			return runRecord{}, result{}, err
		}
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return runRecord{}, result{}, err
	}
	if err := os.WriteFile(filepath.Join(dir, "record-"+tag+".json"), append(b, '\n'), 0o644); err != nil {
		return runRecord{}, result{}, err
	}
	return rec, res, nil
}
