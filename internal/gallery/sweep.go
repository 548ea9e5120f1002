package gallery

import (
	"context"

	"brainprint/internal/parallel"
)

// The scan core. Every exhaustive query — the single-file Gallery, the
// sharded store's per-shard units, the live engine's masked base — is
// the same step: stream a record range of a Blocked layout through the
// kernel matching the scan arithmetic, skip masked records, reject
// scores below the ranker's threshold inline, and offer the rest to the
// probe's Ranker. sweep.scan is that step, generic over float64 (exact)
// and float32 (candidate selection); SweepRanges is the one driver
// above it. The ranker's own strict total order decides ties, so the
// Gallery keeps its index tiebreak and the sharded store its ID
// tiebreak through the same loop.

// scanStripe is the record width of one single-probe kernel pass: the
// dot buffer it implies (8 KiB of float64) stays cache-hot between the
// kernel and the selection loop that consumes it.
const scanStripe = 1024

// scanBatchStripe is the record width of one batched kernel pass: small
// enough that the per-probe dot buffers of a large probe batch stay
// cache-resident alongside the streamed records.
const scanBatchStripe = 256

// ScanRange is one contiguous record range of a blocked layout and the
// coordinates its candidates are reported in.
type ScanRange struct {
	// Blocked is the layout holding the records.
	Blocked *Blocked
	// Lo and Hi bound the range [Lo, Hi) in the layout's record
	// indices; Lo must sit on a lane-block boundary.
	Lo, Hi int
	// Base offsets record i to its Candidate.Index, Base + i.
	Base int
	// IDs holds the subject ID of every record in the layout, indexed
	// like the layout.
	IDs []string
}

// sweep holds one ranker per probe plus the kernel's dot buffers; a
// serial driver reuses one sweep across every range, so the selection
// threshold carries from range to range.
type sweep[T float32 | float64] struct {
	zps     [][]T
	inv     float64
	skip    []bool
	stripe  int
	rankers []Ranker
	outs    [][]T
}

// newSweep allocates the rankers and dot buffers for ranges of at most
// maxRange records.
func newSweep[T float32 | float64](zps [][]T, inv float64, skip []bool, k int, outranks func(a, b Candidate) bool, maxRange int) *sweep[T] {
	stripe := scanBatchStripe
	if len(zps) == 1 {
		stripe = scanStripe
	}
	stripe = min(stripe, alignLanes(maxRange))
	s := &sweep[T]{zps: zps, inv: inv, skip: skip, stripe: stripe,
		rankers: make([]Ranker, len(zps)), outs: make([][]T, len(zps))}
	buf := make([]T, len(zps)*stripe)
	for p := range s.rankers {
		s.rankers[p] = *NewRanker(k, outranks)
		s.outs[p] = buf[p*stripe : (p+1)*stripe]
	}
	return s
}

// dotsKernel returns the Blocked batch kernel for the arithmetic T.
// The float32 kernel needs the layout's float32 image (EnsureF32).
func dotsKernel[T float32 | float64](bk *Blocked) func(lo, hi int, zps, outs [][]T) {
	var kernel any
	if _, ok := any(T(0)).(float64); ok {
		kernel = bk.DotsF64Batch
	} else {
		kernel = bk.DotsF32Batch
	}
	return kernel.(func(lo, hi int, zps, outs [][]T))
}

// scan scores every record of rg against every probe and offers each
// unmasked record that reaches its probe's current threshold. Scores
// are the kernel's dot product times inv: for T = float64 that is
// linalg.Dot(record, probe)·inv bit for bit.
func (s *sweep[T]) scan(rg ScanRange) {
	dots := dotsKernel[T](rg.Blocked)
	inv, skip, base, ids := s.inv, s.skip, rg.Base, rg.IDs
	for slo := rg.Lo; slo < rg.Hi; slo += s.stripe {
		shi := min(slo+s.stripe, rg.Hi)
		nd := alignLanes(shi - slo)
		for p := range s.outs {
			clear(s.outs[p][:nd])
		}
		dots(slo, shi, s.zps, s.outs)
		for p := range s.rankers {
			r := &s.rankers[p]
			d := s.outs[p][:nd]
			thr, full := r.Threshold()
			for i := slo; i < shi; i++ {
				if skip != nil && skip[base+i] {
					continue
				}
				sc := float64(d[i-slo]) * inv
				if full && sc < thr.Score {
					continue
				}
				r.Offer(Candidate{Index: base + i, ID: ids[i], Score: sc})
				thr, full = r.Threshold()
			}
		}
	}
}

// ranked finalizes the sweep into one best-first list per probe.
func (s *sweep[T]) ranked() [][]Candidate {
	out := make([][]Candidate, len(s.rankers))
	for p := range s.rankers {
		out[p] = s.rankers[p].Ranked()
	}
	return out
}

// SweepRanges ranks the records of every range against each probe
// (z-scored, gallery-space, in the arithmetic T), returning one
// best-first list of at most k candidates per probe under outranks.
// skip, when non-nil, masks records by Candidate.Index. With one
// worker the ranges share one sweep in order, so scratch is allocated
// once and the threshold carries across ranges; under workers each
// range ranks into its own sweep and the per-range lists merge by
// tournament. Because outranks is a strict total order the result is
// the same either way, whatever the ranges and worker count. A
// cancelled ctx aborts between ranges.
func SweepRanges[T float32 | float64](ctx context.Context, parallelism int, ranges []ScanRange, zps [][]T, inv float64, skip []bool, k int, outranks func(a, b Candidate) bool) ([][]Candidate, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if parallel.Workers(parallelism) <= 1 {
		maxRange := 0
		for _, rg := range ranges {
			maxRange = max(maxRange, rg.Hi-rg.Lo)
		}
		sw := newSweep(zps, inv, skip, k, outranks, maxRange)
		for _, rg := range ranges {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			sw.scan(rg)
		}
		return sw.ranked(), nil
	}
	partials := make([][][]Candidate, len(ranges)) // [range][probe]
	err := parallel.ForCtx(ctx, parallelism, len(ranges), 1, func(lo, hi int) error {
		for u := lo; u < hi; u++ {
			rg := ranges[u]
			sw := newSweep(zps, inv, skip, k, outranks, rg.Hi-rg.Lo)
			sw.scan(rg)
			partials[u] = sw.ranked()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]Candidate, len(zps))
	lists := make([][]Candidate, len(ranges))
	for p := range out {
		for u := range partials {
			lists[u] = partials[u][p]
		}
		out[p] = RankMergeLists(lists, k, outranks)
	}
	return out, nil
}
