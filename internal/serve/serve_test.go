package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/sparse"
)

// testModel builds a small deterministic RBF model. beta shifts the
// decision boundary, which the hot-reload tests use to tell versions apart.
func testModel(beta float64) *model.Model {
	return &model.Model{
		Kernel:       kernel.Params{Type: kernel.Gaussian, Gamma: 1},
		C:            10,
		SV:           sparse.FromDense([][]float64{{-1, 0}, {1, 0.5}}),
		Coef:         []float64{-1, 1},
		Beta:         beta,
		TrainSamples: 10,
	}
}

func saveModel(t *testing.T, m *model.Model, path string) {
	t.Helper()
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
}

// newTestServer registers the given models and returns the server plus an
// httptest wrapper around its handler.
func newTestServer(t *testing.T, cfg Config, models map[string]string) (*Server, *httptest.Server) {
	t.Helper()
	reg := NewRegistry()
	for name, path := range models {
		if err := reg.Add(name, path); err != nil {
			t.Fatal(err)
		}
	}
	s := New(reg, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodePredictions(t *testing.T, data []byte) PredictResponse {
	t.Helper()
	var pr PredictResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatalf("bad predict response %s: %v", data, err)
	}
	return pr
}

func TestPredictParityWithModel(t *testing.T) {
	m := testModel(0.1)
	m.ProbA, m.ProbB, m.HasProb = -1.5, 0.25, true
	path := t.TempDir() + "/m.model"
	saveModel(t, m, path)
	_, ts := newTestServer(t, Config{}, map[string]string{"default": path})

	probe := sparse.FromDense([][]float64{{0.7, 0.2}, {-1.3, 0.1}, {0, 0}})
	// One request per encoding, all against the same probe rows.
	requests := []any{
		PredictRequest{Instances: []Instance{
			{Features: map[string]float64{"1": 0.7, "2": 0.2}},
			{Features: map[string]float64{"1": -1.3, "2": 0.1}},
			{Features: map[string]float64{"1": 0}}, // explicit zero == all-zero row
		}},
		PredictRequest{Instances: []Instance{
			{Libsvm: "1:0.7 2:0.2"},
			{Libsvm: "1:-1.3 2:0.1"},
			{Libsvm: "1:0"}, // explicit zero == all-zero row
		}},
	}

	for ri, req := range requests {
		resp, data := postJSON(t, ts.URL+"/v1/predict", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", ri, resp.StatusCode, data)
		}
		pr := decodePredictions(t, data)
		if pr.Model != "default" || len(pr.Predictions) != 3 {
			t.Fatalf("request %d: response %+v", ri, pr)
		}
		for i, p := range pr.Predictions {
			row := probe.RowView(i)
			wantDV := m.DecisionValue(row)
			if math.Abs(p.Decision-wantDV) > 1e-12 {
				t.Fatalf("request %d row %d: decision %v, want %v", ri, i, p.Decision, wantDV)
			}
			if p.Label != m.Predict(row) {
				t.Fatalf("request %d row %d: label %v", ri, i, p.Label)
			}
			wantP, _ := m.Probability(row)
			if p.Probability == nil || math.Abs(*p.Probability-wantP) > 1e-12 {
				t.Fatalf("request %d row %d: probability %v, want %v", ri, i, p.Probability, wantP)
			}
		}
	}
}

func TestPredictSingleTopLevel(t *testing.T) {
	m := testModel(0)
	path := t.TempDir() + "/m.model"
	saveModel(t, m, path)
	_, ts := newTestServer(t, Config{}, map[string]string{"default": path})

	resp, data := postJSON(t, ts.URL+"/v1/predict", PredictRequest{Features: map[string]float64{"1": 0.9}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	pr := decodePredictions(t, data)
	if len(pr.Predictions) != 1 {
		t.Fatalf("got %d predictions", len(pr.Predictions))
	}
	row := sparse.FromDense([][]float64{{0.9}}).RowView(0)
	if math.Abs(pr.Predictions[0].Decision-m.DecisionValue(row)) > 1e-12 {
		t.Fatalf("decision %v", pr.Predictions[0].Decision)
	}
	// Uncalibrated model: no probability field.
	if pr.Predictions[0].Probability != nil {
		t.Fatal("uncalibrated model returned a probability")
	}

	resp, data = postJSON(t, ts.URL+"/v1/predict", PredictRequest{Libsvm: "1:0.9"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("libsvm single: status %d: %s", resp.StatusCode, data)
	}
	pr2 := decodePredictions(t, data)
	if pr2.Predictions[0].Decision != pr.Predictions[0].Decision {
		t.Fatal("libsvm and features encodings disagree")
	}
}

func TestPredictTextPlainBody(t *testing.T) {
	m := testModel(0)
	path := t.TempDir() + "/m.model"
	saveModel(t, m, path)
	_, ts := newTestServer(t, Config{}, map[string]string{"default": path})

	// Labeled lines (as written by WriteLibsvm) must be accepted as-is.
	body := "+1 1:0.9 2:0.1\n# comment\n\n-1 1:-0.8\n"
	resp, err := http.Post(ts.URL+"/v1/predict?model=default", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	pr := decodePredictions(t, data)
	if len(pr.Predictions) != 2 {
		t.Fatalf("got %d predictions from 2 data lines", len(pr.Predictions))
	}
	probe := sparse.FromDense([][]float64{{0.9, 0.1}, {-0.8, 0}})
	for i, p := range pr.Predictions {
		if want := m.DecisionValue(probe.RowView(i)); math.Abs(p.Decision-want) > 1e-12 {
			t.Fatalf("row %d: decision %v, want %v", i, p.Decision, want)
		}
	}
}

func TestPredictErrors(t *testing.T) {
	path := t.TempDir() + "/m.model"
	saveModel(t, testModel(0), path)
	_, ts := newTestServer(t, Config{MaxBatch: 2}, map[string]string{"a": path, "b": path})

	cases := []struct {
		name string
		body string
		code int
	}{
		{"no instances", `{}`, http.StatusBadRequest},
		{"unknown model", `{"model":"nope","libsvm":"1:1"}`, http.StatusNotFound},
		{"ambiguous default", `{"libsvm":"1:1"}`, http.StatusNotFound},
		{"both single and batch", `{"libsvm":"1:1","instances":[{"libsvm":"1:1"}]}`, http.StatusBadRequest},
		{"both encodings in instance", `{"model":"a","instances":[{"libsvm":"1:1","features":{"1":1}}]}`, http.StatusBadRequest},
		{"bad feature index", `{"model":"a","features":{"zero":1}}`, http.StatusBadRequest},
		{"bad libsvm row", `{"model":"a","libsvm":"1:1 junk"}`, http.StatusBadRequest},
		{"unknown field", `{"model":"a","rows":[[1,2]]}`, http.StatusBadRequest},
		{"not json", `hello`, http.StatusBadRequest},
		{"batch too large", `{"model":"a","instances":[{"libsvm":"1:1"},{"libsvm":"1:1"},{"libsvm":"1:1"}]}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.code, data)
		}
		var e map[string]string
		if err := json.Unmarshal(data, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body %s", tc.name, data)
		}
	}
}

func TestResolveSingleModelWithoutName(t *testing.T) {
	path := t.TempDir() + "/m.model"
	saveModel(t, testModel(0), path)
	_, ts := newTestServer(t, Config{}, map[string]string{"only": path})
	resp, data := postJSON(t, ts.URL+"/v1/predict", PredictRequest{Libsvm: "1:1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if pr := decodePredictions(t, data); pr.Model != "only" {
		t.Fatalf("resolved model %q, want \"only\"", pr.Model)
	}
}

func TestHealthzAndModels(t *testing.T) {
	path := t.TempDir() + "/m.model"
	m := testModel(0)
	m.ProbA, m.ProbB, m.HasProb = -1, 0, true
	saveModel(t, m, path)
	_, ts := newTestServer(t, Config{}, map[string]string{"default": path})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz["status"] != "ok" || hz["models"].(float64) != 1 {
		t.Fatalf("healthz = %v", hz)
	}

	// Serve one batch so the prediction counter is non-zero.
	postJSON(t, ts.URL+"/v1/predict", PredictRequest{Instances: []Instance{{Libsvm: "1:1"}, {Libsvm: "2:1"}}})

	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var ml struct{ Models []ModelInfo }
	if err := json.NewDecoder(resp.Body).Decode(&ml); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ml.Models) != 1 {
		t.Fatalf("models = %+v", ml.Models)
	}
	info := ml.Models[0]
	if info.Name != "default" || info.NumSV != 2 || !info.Calibrated || info.Version != 1 || info.Predictions != 2 {
		t.Fatalf("model info = %+v", info)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	path := t.TempDir() + "/m.model"
	saveModel(t, testModel(0), path)
	_, ts := newTestServer(t, Config{}, map[string]string{"default": path})

	postJSON(t, ts.URL+"/v1/predict", PredictRequest{Instances: []Instance{{Libsvm: "1:1"}, {Libsvm: "1:2"}, {Libsvm: "1:3"}}})
	http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader("{}")) // a 400

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`svmserve_requests_total{path="/v1/predict",code="200"} 1`,
		`svmserve_requests_total{path="/v1/predict",code="400"} 1`,
		"# TYPE svmserve_request_duration_seconds histogram",
		"svmserve_request_duration_seconds_count 2",
		`svmserve_predict_batch_size_bucket{le="4"} 1`,
		`svmserve_model_predictions_total{model="default"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

func TestHotReloadUnderConcurrentTraffic(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/m.model"
	saveModel(t, testModel(0), path)
	_, ts := newTestServer(t, Config{}, map[string]string{"default": path})

	// Hammer predict from several goroutines while the model file is
	// rewritten and reloaded; every response must be coherent (either
	// version's decision value, never an error, never a torn model).
	const goroutines = 8
	const perG = 30
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	row := sparse.FromDense([][]float64{{0.7, 0.2}}).RowView(0)
	dvOld := testModel(0).DecisionValue(row)
	dvNew := testModel(5).DecisionValue(row)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				b, _ := json.Marshal(PredictRequest{Libsvm: "1:0.7 2:0.2"})
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(b))
				if err != nil {
					errs <- err
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", resp.StatusCode, data)
					return
				}
				var pr PredictResponse
				if err := json.Unmarshal(data, &pr); err != nil {
					errs <- err
					return
				}
				dv := pr.Predictions[0].Decision
				if math.Abs(dv-dvOld) > 1e-12 && math.Abs(dv-dvNew) > 1e-12 {
					errs <- fmt.Errorf("torn decision value %v (want %v or %v)", dv, dvOld, dvNew)
					return
				}
			}
		}()
	}

	// Mid-traffic: rewrite the file and reload.
	saveModel(t, testModel(5), path)
	resp, err := http.Post(ts.URL+"/v1/models/default/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rl map[string]any
	json.NewDecoder(resp.Body).Decode(&rl)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rl["version"].(float64) != 2 {
		t.Fatalf("reload: %d %v", resp.StatusCode, rl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// After the reload completes, fresh requests see the new model.
	resp2, data := postJSON(t, ts.URL+"/v1/predict", PredictRequest{Libsvm: "1:0.7 2:0.2"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-reload status %d", resp2.StatusCode)
	}
	pr := decodePredictions(t, data)
	if pr.Version != 2 || math.Abs(pr.Predictions[0].Decision-dvNew) > 1e-12 {
		t.Fatalf("post-reload version %d decision %v, want version 2 decision %v",
			pr.Version, pr.Predictions[0].Decision, dvNew)
	}
}

func TestReloadFailureKeepsServing(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/m.model"
	saveModel(t, testModel(0), path)
	_, ts := newTestServer(t, Config{}, map[string]string{"default": path})

	// Corrupt the file on disk, then reload: 500, old snapshot stays live.
	if err := os.WriteFile(path, []byte("kernel_type warp\nSV\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/models/default/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("reload of corrupted file: status %d", resp.StatusCode)
	}
	resp2, data := postJSON(t, ts.URL+"/v1/predict", PredictRequest{Libsvm: "1:0.7"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("predict after failed reload: %d %s", resp2.StatusCode, data)
	}
	if pr := decodePredictions(t, data); pr.Version != 1 {
		t.Fatalf("version %d after failed reload, want 1", pr.Version)
	}

	// Reloading an unregistered name is a 404.
	resp3, err := http.Post(ts.URL+"/v1/models/ghost/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("reload of unknown model: status %d", resp3.StatusCode)
	}
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	path := t.TempDir() + "/m.model"
	saveModel(t, testModel(0), path)
	reg := NewRegistry()
	if err := reg.Add("default", path); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{DrainTimeout: 5 * time.Second})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// Launch in-flight batch requests, then cancel the context while they
	// run; every request must still complete with 200.
	const inflight = 6
	var wg sync.WaitGroup
	results := make(chan error, inflight)
	big := make([]Instance, 64)
	for i := range big {
		big[i] = Instance{Libsvm: fmt.Sprintf("1:%d 2:0.5", i)}
	}
	body, _ := json.Marshal(PredictRequest{Instances: big})
	for g := 0; g < inflight; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				results <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			results <- nil
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the requests hit the handler
	cancel()
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Error(err)
		}
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after context cancellation")
	}
	// The listener is closed: new connections must fail.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

func TestRegistryAddErrors(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Add("x", "/nonexistent/file.model"); err == nil {
		t.Fatal("missing file accepted")
	}
	path := t.TempDir() + "/m.model"
	saveModel(t, testModel(0), path)
	if err := reg.Add("", path); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := reg.Add("x", path); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("x", path); err == nil {
		t.Fatal("duplicate name accepted")
	}
	// Corrupted files are rejected at load time.
	bad := t.TempDir() + "/bad.model"
	os.WriteFile(bad, []byte("total_sv 5\nkernel_type rbf\ngamma 1\nC 1\nSV\n1 1:1\n"), 0o644)
	if err := reg.Add("bad", bad); err == nil {
		t.Fatal("corrupted model accepted at load time")
	}
}

// TestSlowHeaderClientDisconnected: a client that sends half a request
// header and stalls must be cut off by the header timeout rather than hold
// its connection open.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 200 * time.Millisecond

	path := t.TempDir() + "/m.model"
	saveModel(t, testModel(0), path)
	reg := NewRegistry()
	if err := reg.Add("default", path); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Ty"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// The server may write an error status before closing (net/http sends
	// 400 for a header cut short); either way the read must end at the
	// close, not at our own deadline.
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open after %v", time.Since(start))
	}
	if waited := time.Since(start); waited < readHeaderTimeout {
		t.Fatalf("disconnected after %v, before the %v header timeout", waited, readHeaderTimeout)
	}
}
