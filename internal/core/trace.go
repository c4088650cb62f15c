package core

import "repro/internal/trace"

// Trace, Segment and ReconEvent are re-exported from internal/trace, where
// the recording machinery shared with the baseline solver lives. The
// distributed solver fills one in on rank 0 when Config.RecordTrace is set.
type (
	// Trace is the recorded schedule of one training run.
	Trace = trace.Trace
	// Segment is a run of iterations with constant active-set size.
	Segment = trace.Segment
	// ReconEvent records one Algorithm 3 gradient reconstruction.
	ReconEvent = trace.ReconEvent
)
