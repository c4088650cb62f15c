package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// The host this benchmark runs on is shared, and its speed changes for
// seconds to minutes at a time: while a neighbour is busy the same training
// runs up to 2x longer. Every training and setup time the benchmark reports
// is therefore converted to the reference speed. A sampler runs a probe,
// the benchmark's own fixed piece of work, every few milliseconds while the
// measured work runs. An operation's time at the reference speed is its
// wall time less the probes inside it, scaled by the probe's time at the
// reference speed over the median time of the probes inside it. Runs made
// while the host is quiet and while it is busy then nearly agree, where
// their wall times do not; the wall times stay in the run's record.
//
// The probe's work is the kind the engines do, in the benchmark's own code:
// Gaussian kernel values between rows of the workload's data shape
// (merge-joined dot products and exp).

// probeShape is the input a probe computes a kernel row over: rows of a
// workload's data shape, so that the probe slows down as the engines do on
// that data (a sparse merge join and a dense one do not slow alike).
type probeShape struct {
	rows, features int
	density        float64
	// refSeconds is the probe's time at the reference speed: its median
	// time inside the work while the host this benchmark was sized on (a
	// 2-vCPU Xeon virtual machine) was quiet, so that there times at the
	// reference speed match quiet wall times.
	refSeconds float64
}

var (
	// sparseProbe has the a9a shape: 123 features, 11% present.
	sparseProbe = probeShape{rows: 512, features: 123, density: 0.11, refSeconds: 64e-6}
	// denseProbe has the HIGGS shape: 28 features, all present.
	denseProbe = probeShape{rows: 512, features: 28, density: 1, refSeconds: 35e-6}
	// mnistProbe has the mnist38 shape: 784 features, 14% present; fewer
	// rows keep a probe as short as the others.
	mnistProbe = probeShape{rows: 64, features: 784, density: 0.14, refSeconds: 73e-6}
)

// probeEvery is the pause between probes. On the benchmark's one processor
// a probe then runs each time the scheduler preempts the work, about every
// 10 ms, and takes about 1% of it.
const probeEvery = 5 * time.Millisecond

type refRow struct {
	idx  []int32
	val  []float64
	norm float64
}

// draw makes the probe's fixed input.
func (sh probeShape) draw() []refRow {
	rng := rand.New(rand.NewSource(1))
	rows := make([]refRow, sh.rows)
	for i := range rows {
		for j := 0; j < sh.features; j++ {
			if rng.Float64() < sh.density {
				v := rng.Float64()
				rows[i].idx = append(rows[i].idx, int32(j))
				rows[i].val = append(rows[i].val, v)
				rows[i].norm += v * v
			}
		}
	}
	return rows
}

// probe computes one kernel row, the first row against every row: the same
// work each time.
func probe(rows []refRow) float64 {
	a := rows[0]
	s := 0.0
	for _, b := range rows {
		dot := 0.0
		i, j := 0, 0
		for i < len(a.idx) && j < len(b.idx) {
			switch {
			case a.idx[i] == b.idx[j]:
				dot += a.val[i] * b.val[j]
				i++
				j++
			case a.idx[i] < b.idx[j]:
				i++
			default:
				j++
			}
		}
		s += math.Exp(-(a.norm + b.norm - 2*dot) / 64)
	}
	return s
}

// speedSampler probes the host's speed while it runs.
type speedSampler struct {
	ref   float64 // the shape's refSeconds
	start time.Time
	stop  chan struct{}
	done  chan struct{}

	mu      sync.Mutex
	samples []probeSample // in time order
}

type probeSample struct {
	from, warm, to time.Duration // since start; the timed probe is warm..to
}

func startSpeedSampler(sh probeShape) *speedSampler {
	s := &speedSampler{ref: sh.refSeconds, start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	rows := sh.draw()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		var sink float64
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			// The first probe brings the rows back into the cache after the
			// work; the second is timed, so the work's memory footprint does
			// not set the speed. Both count as probe time.
			from := time.Since(s.start)
			sink += probe(rows)
			warm := time.Since(s.start)
			sink += probe(rows)
			to := time.Since(s.start)
			s.mu.Lock()
			s.samples = append(s.samples, probeSample{from, warm, to})
			s.mu.Unlock()
		}
	}()
	return s
}

// close stops the sampler and waits for its goroutine to end.
func (s *speedSampler) close() {
	close(s.stop)
	<-s.done
}

// now is the sampler's clock.
func (s *speedSampler) now() time.Duration { return time.Since(s.start) }

// convert returns the wall time of the operation that ran from from to to,
// less the probes that ran inside it, and that time at the reference
// speed. One too short to hold a probe is scaled by the probes nearest it.
func (s *speedSampler) convert(from, to time.Duration) (raw, ref float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lo := sort.Search(len(s.samples), func(i int) bool { return s.samples[i].from >= from })
	hi := max(lo, sort.Search(len(s.samples), func(i int) bool { return s.samples[i].to > to }))
	var probes time.Duration
	var ts []float64
	for _, p := range s.samples[lo:hi] {
		probes += p.to - p.from
		ts = append(ts, seconds(p.to-p.warm))
	}
	raw = seconds(to - from - probes)
	if len(ts) == 0 {
		for _, p := range s.samples[max(0, lo-2):min(len(s.samples), lo+2)] {
			ts = append(ts, seconds(p.to-p.warm))
		}
	}
	if len(ts) == 0 {
		return raw, raw
	}
	return raw, raw * s.ref / median(ts)
}

// speed is the host's median speed over every probe so far, relative to
// the reference speed (1 = the reference speed, 0.5 = half of it).
func (s *speedSampler) speed() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := make([]float64, len(s.samples))
	for i, p := range s.samples {
		ts[i] = seconds(p.to - p.warm)
	}
	return ratio(s.ref, median(ts))
}
