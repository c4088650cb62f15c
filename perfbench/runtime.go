package main

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// heapSampler tracks the live Go heap, as marked by the most recent GC
// cycle, while it runs, sampling every 2ms. The live heap, unlike the total
// including unswept garbage, does not depend on where a GC cycle happens to
// start.
type heapSampler struct {
	stop chan struct{}
	done chan []heapSample
}

type heapSample struct {
	at    time.Duration // since the sampler started
	bytes uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan []heapSample, 1)}
	go func() {
		s := []metrics.Sample{{Name: heapMetric}}
		var out []heapSample
		start := time.Now()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			out = append(out, heapSample{time.Since(start), s[0].Value.Uint64()})
			select {
			case <-h.stop:
				h.done <- out
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak heap in MB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	var peak uint64
	for _, s := range <-h.done {
		peak = max(peak, s.bytes)
	}
	return float64(peak) / (1 << 20)
}

// windowPeaksMB stops the sampler and returns the peak heap in MB of each
// consecutive window of length w.
func (h *heapSampler) windowPeaksMB(w time.Duration) []float64 {
	close(h.stop)
	var peaks []float64
	for _, s := range <-h.done {
		k := int(s.at / w)
		for len(peaks) <= k {
			peaks = append(peaks, 0)
		}
		peaks[k] = max(peaks[k], float64(s.bytes)/(1<<20))
	}
	return peaks
}

// gcWindow measures GC pause time and allocation over an interval.
type gcWindow struct {
	pauseNs, alloc uint64
}

func startGCWindow() gcWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcWindow{pauseNs: ms.PauseTotalNs, alloc: ms.TotalAlloc}
}

// finish returns (GC pause ms, allocated MB) since the window started.
func (g gcWindow) finish() (pauseMs, allocMB float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.PauseTotalNs-g.pauseNs) / 1e6, float64(ms.TotalAlloc-g.alloc) / (1 << 20)
}

// cpuProfile records a CPU profile into dir and, on stop, returns the
// self-time shares by layer.
type cpuProfile struct {
	path string
	f    *os.File
}

func startCPUProfile(dir, name string) (*cpuProfile, error) {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	samples, err := readCPUProfile(p.path)
	if err != nil {
		return nil, err
	}
	return profileShares(samples), nil
}
