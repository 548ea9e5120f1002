package shard

import (
	"context"

	"brainprint/internal/gallery"
	"brainprint/internal/linalg"
	"brainprint/internal/parallel"
)

// The scan planner. Each loaded shard is split into contiguous,
// lane-aligned scan units at construction time; the gallery package's
// scan core (gallery.SweepRanges) streams each unit through one shard's
// blocked layout with zero per-record bookkeeping, one shared ranker
// set in the serial path and per-unit rankings merged by tournament
// under workers, always under the (score desc, ID asc) strict total
// order. The result is the unique global top-k whatever the unit
// boundaries, worker count, or shard count.

const (
	// rescoreMinDepth floors the exact-rescore candidate pool so small
	// k still rescans a meaningful margin.
	rescoreMinDepth = 32

	// rescoreFactor scales the exact-rescore pool with k.
	rescoreFactor = 4
)

// rescoreDepth returns how many reduced-precision candidates are
// rescored exactly for a top-k query.
func rescoreDepth(k, total int) int {
	return min(max(rescoreFactor*k, rescoreMinDepth), total)
}

// planUnits splits every loaded shard into scan units of roughly 256k
// multiply-adds each, rounded to whole lane blocks so a unit never
// splits a blocked-layout lane group. The plan depends only on the
// shard record counts and dimensionality, never on the query or worker
// count.
func planUnits(galleries []*gallery.Gallery, bases []int, features int) []gallery.ScanRange {
	grain := 1 + (1<<18)/features
	grain = (grain + gallery.ScanLanes - 1) / gallery.ScanLanes * gallery.ScanLanes
	var units []gallery.ScanRange
	for si, g := range galleries {
		if g == nil {
			continue
		}
		for lo := 0; lo < g.Len(); lo += grain {
			units = append(units, gallery.ScanRange{
				Blocked: g.Blocked(), Lo: lo, Hi: min(lo+grain, g.Len()), Base: bases[si], IDs: g.IDs(),
			})
		}
	}
	return units
}

// TopKZMasked ranks the top k subjects for a probe that is ALREADY in
// gallery space and z-scored, excluding every global index gi with
// skip[gi] true. skip must be nil (no exclusions) or have length
// Len(). It exists for the live engine, which scans its immutable base
// store through the blocked kernels while masking tombstoned records;
// ordinary callers should use TopKCtx, which normalizes the probe
// first. Scores and ranking follow the same contract as TopKCtx, and k
// is the caller's responsibility to clamp (at most the number of
// unmasked records).
func (s *Store) TopKZMasked(ctx context.Context, zp []float64, k, parallelism int, skip []bool) ([]gallery.Candidate, error) {
	if s.annActive() {
		return s.topKANN(ctx, zp, k, parallelism, skip)
	}
	lists, err := s.sweep(ctx, [][]float64{zp}, k, parallelism, skip)
	if err != nil {
		return nil, err
	}
	return lists[0], nil
}

// QueryAllZMasked is TopKZMasked over a batch of z-scored gallery-space
// probes, one ranked list per probe, scanned through the batched
// kernels.
func (s *Store) QueryAllZMasked(ctx context.Context, zps [][]float64, k, parallelism int, skip []bool) ([][]gallery.Candidate, error) {
	if s.annActive() {
		return s.queryAllANN(ctx, zps, k, parallelism, skip)
	}
	return s.sweep(ctx, zps, k, parallelism, skip)
}

// sweep is the linear scan at the store's precision. Float64 scores
// every record with the exact linalg.Dot(fp, zp)/F expression the
// single-file gallery and match.SimilarityMatrix use. Float32 scans a
// float32 image of the blocked layout (half the memory traffic) to
// select rescoreDepth(k) candidates per probe, which rescore exactly —
// so returned scores are bit-identical either way, and the selection
// itself is deterministic (float32 scores are exact IEEE results,
// ranked under a strict total order).
func (s *Store) sweep(ctx context.Context, zps [][]float64, k, parallelism int, skip []bool) ([][]gallery.Candidate, error) {
	inv := 1 / float64(s.features)
	if s.prec == gallery.ScanFloat64 {
		return gallery.SweepRanges(ctx, parallelism, s.units, zps, inv, skip, k, gallery.OutranksByID)
	}
	zp32s := make([][]float32, len(zps))
	for p, zp := range zps {
		zp32s[p] = gallery.ToF32(zp)
	}
	pools, err := gallery.SweepRanges(ctx, parallelism, s.units, zp32s, inv, skip, rescoreDepth(k, s.total), gallery.OutranksByID)
	if err != nil {
		return nil, err
	}
	err = parallel.ForCtx(ctx, parallelism, len(pools), 1, func(lo, hi int) error {
		for p := lo; p < hi; p++ {
			pools[p] = s.rescore(pools[p], zps[p], k)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pools, nil
}

// rescore replaces each pool candidate's reduced-precision score with
// the exact float64 expression and returns the top k of the pool under
// the exact scores — the one place every float32 path (linear and IVF)
// restores exact scores. The pool came from a deterministic selection,
// so the result is deterministic too.
func (s *Store) rescore(pool []gallery.Candidate, zp []float64, k int) []gallery.Candidate {
	inv := 1 / float64(s.features)
	r := gallery.NewRanker(min(k, len(pool)), gallery.OutranksByID)
	for _, c := range pool {
		c.Score = linalg.Dot(s.Fingerprint(c.Index), zp) * inv
		r.Offer(c)
	}
	return r.Ranked()
}
