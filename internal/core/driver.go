package core

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/sparse"
)

// TrainParallel partitions (x, y) over p ranks, runs the distributed
// solver, and returns rank 0's model plus the (rank-identical) statistics.
// It is the single-call entry point used by the examples, CLIs and tests;
// code that needs to compose the solver with other communication uses
// Train directly inside its own mpi.Run.
func TrainParallel(x *sparse.Matrix, y []float64, p int, cfg Config) (*model.Model, *Stats, error) {
	m, st, _, err := TrainParallelOpts(x, y, p, cfg, mpi.Options{})
	return m, st, err
}

// TrainParallelOpts is the fully-general entry point: it accepts the whole
// mpi.Options, so callers can combine the time model with fault injection
// (Options.Faults) — the path the crash-recovery tests and the svmtrain
// -inject-crash-* flags use. It also returns the modeled makespan (the
// maximum rank virtual time); with cfg.Lambda > 0 and Options.Net set, that
// makespan includes modeled compute time, making it directly comparable to
// the analytic perfmodel predictions. When checkpointing is configured and
// no dataset fingerprint was supplied, it is computed here, once, from the
// training data.
func TrainParallelOpts(x *sparse.Matrix, y []float64, p int, cfg Config, opts mpi.Options) (*model.Model, *Stats, float64, error) {
	if p <= 0 {
		return nil, nil, 0, fmt.Errorf("core: process count must be positive, got %d", p)
	}
	if p > x.Rows() {
		return nil, nil, 0, fmt.Errorf("core: more ranks (%d) than samples (%d)", p, x.Rows())
	}
	if cfg.Checkpoint != nil && cfg.CheckpointFingerprint == 0 {
		cfg.CheckpointFingerprint = ckpt.Fingerprint(x, y)
	}
	models := make([]*model.Model, p)
	stats := make([]*Stats, p)
	times, err := mpi.RunTimed(p, opts, func(c *mpi.Comm) error {
		pt, err := NewPartition(x, y, p, c.Rank())
		if err != nil {
			return err
		}
		m, st, err := Train(c, pt, cfg)
		if err != nil {
			return err
		}
		models[c.Rank()] = m
		stats[c.Rank()] = st
		return nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return models[0], stats[0], mpi.MaxTime(times), nil
}
