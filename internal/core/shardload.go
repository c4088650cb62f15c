package core

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/dataset"
	"repro/internal/sparse"
)

// Shard-aware loading for the distributed solver. LoadShardPartitions
// parses the input as p byte-range shards in parallel (or as p pre-split
// shard files) instead of one sequential parse, and composes the dataset
// fingerprint from per-shard partials — the same value a single-node load
// computes, for every shard count. The spliced rows are in file order, so
// training from them is bit-identical to training on the unsharded file.

// ShardedData is a dataset loaded shard-wise.
type ShardedData struct {
	N           int    // global sample count
	Cols        int    // global feature count
	Fingerprint uint64 // composed fingerprint (== ckpt.Fingerprint of the whole)

	// X and Y are the spliced global dataset in file row order.
	X *sparse.Matrix
	Y []float64
}

// LoadShardPartitions loads the libsvm dataset at path as p shards in
// parallel and splices them back into one dataset in file row order.
func LoadShardPartitions(path string, p int) (*ShardedData, error) {
	if p <= 0 {
		return nil, fmt.Errorf("core: process count must be positive, got %d", p)
	}
	shards, err := dataset.LoadSharded(path, p)
	if err != nil {
		return nil, err
	}
	// The fingerprint composes from per-shard partials: each shard hashes
	// its rows at their global indices, the sums add, and the result equals
	// the single-node fingerprint.
	var sum uint64
	n, cols := 0, 0
	for _, s := range shards {
		sum += ckpt.PartialFingerprint(s.X, s.Y, s.Lo)
		n += s.X.Rows()
		if s.X.Cols > cols {
			cols = s.X.Cols
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("core: %s holds no samples", path)
	}
	if p > n {
		return nil, fmt.Errorf("core: more ranks (%d) than samples (%d)", p, n)
	}
	fp := ckpt.FinishFingerprint(n, cols, sum)

	x, y := dataset.ConcatShards(shards)
	return &ShardedData{N: n, Cols: cols, Fingerprint: fp, X: x, Y: y}, nil
}
