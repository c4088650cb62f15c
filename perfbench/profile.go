package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// The CPU profile is the gzipped protobuf runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto). The standard library has
// no public decoder, so this file reads the few fields the shares need:
// samples (location IDs, values), locations (line -> function ID),
// functions (name index) and the string table.

type pbuf struct {
	b []byte
}

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errors.New("profile: truncated varint")
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// field reads one key and returns its number, wire type, and either the
// varint value or the length-delimited payload.
func (p *pbuf) field() (num int, wire int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errors.New("profile: truncated fixed64")
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, 0, nil, errors.New("profile: truncated field")
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errors.New("profile: truncated fixed32")
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("profile: wire type %d", wire)
	}
	return num, wire, v, data, err
}

// ints appends a repeated varint field, packed or not.
func ints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	q := pbuf{data}
	for len(q.b) > 0 {
		x, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// cpuSample is one stack (leaf first, as function names) and its CPU time.
type cpuSample struct {
	stack []string
	ns    int64
}

// readCPUProfile decodes the samples of a runtime/pprof CPU profile.
func readCPUProfile(path string) ([]cpuSample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	return decodeCPUProfile(raw)
}

func decodeCPUProfile(raw []byte) ([]cpuSample, error) {
	type sample struct{ locs, vals []uint64 }
	var (
		samples []sample
		strs    []string
		locFunc = map[uint64][]uint64{} // location -> function IDs, innermost first
		funName = map[uint64]uint64{}   // function -> string index
		nTypes  int
	)
	p := pbuf{raw}
	for len(p.b) > 0 {
		num, wire, _, data, err := p.field()
		if err != nil {
			return nil, err
		}
		q := pbuf{data}
		switch num {
		case 1: // sample_type
			nTypes++
		case 2: // sample
			var s sample
			for len(q.b) > 0 {
				n, w, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = ints(s.locs, w, v, d)
				case 2:
					s.vals, err = ints(s.vals, w, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			for len(q.b) > 0 {
				n, _, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // line
					l := pbuf{d}
					for len(l.b) > 0 {
						ln, _, lv, _, err := l.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFunc[id] = fns
		case 5: // function
			var id, name uint64
			for len(q.b) > 0 {
				n, _, v, _, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funName[id] = name
		case 6: // string_table
			if wire != 2 {
				return nil, errors.New("profile: bad string table entry")
			}
			strs = append(strs, string(data))
		}
	}
	// runtime/pprof CPU profiles carry [samples/count, cpu/nanoseconds].
	const cpuIdx = 1
	if nTypes != 2 {
		return nil, fmt.Errorf("profile: %d sample types, want samples+cpu", nTypes)
	}
	name := func(fn uint64) string {
		if i := funName[fn]; i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) <= cpuIdx {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, fn := range locFunc[l] {
				stack = append(stack, name(fn))
			}
		}
		out = append(out, cpuSample{stack: stack, ns: int64(s.vals[cpuIdx])})
	}
	return out, nil
}

// profShares are the self-time shares the traced run reports, by layer.
// Each sample is attributed by its leaf function, except prof.gc_share,
// which takes every sample whose stack runs inside a GC worker or assist.
var profLayers = []struct {
	metric string
	match  func(leaf string) bool
}{
	{"prof.exp_share", func(f string) bool {
		return f == "math.Exp" || f == "math.exp" || f == "math.archExp"
	}},
	{"prof.kernel_share", prefix("repro/internal/kernel.")},
	{"prof.sparse_share", prefix("repro/internal/sparse.")},
	{"prof.smo_share", prefix("repro/internal/smo.")},
	{"prof.core_share", prefix("repro/internal/core.")},
	{"prof.mpi_share", prefix("repro/internal/mpi.")},
	{"prof.cache_share", prefix("repro/internal/cache.")},
	{"prof.model_share", prefix("repro/internal/model.")},
	{"prof.serve_share", prefix("repro/internal/serve")},
	{"prof.json_share", prefix("encoding/json.")},
}

var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

func prefix(p string) func(string) bool {
	return func(f string) bool { return strings.HasPrefix(f, p) }
}

// profileShares attributes CPU time to layers; shares are of the profile's
// total CPU time.
func profileShares(samples []cpuSample) map[string]float64 {
	out := map[string]float64{"prof.gc_share": 0}
	for _, l := range profLayers {
		out[l.metric] = 0
	}
	var total float64
	for _, s := range samples {
		total += float64(s.ns)
		if len(s.stack) == 0 {
			continue
		}
		for _, f := range s.stack {
			if gcRoots[f] {
				out["prof.gc_share"] += float64(s.ns)
				break
			}
		}
		for _, l := range profLayers {
			if l.match(s.stack[0]) {
				out[l.metric] += float64(s.ns)
				break
			}
		}
	}
	for k, v := range out {
		out[k] = ratio(v, total)
	}
	return out
}
