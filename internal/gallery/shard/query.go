package shard

import (
	"context"
	"fmt"

	"brainprint/internal/gallery"
	"brainprint/internal/linalg"
	"brainprint/internal/parallel"
	"brainprint/internal/stats"
)

// The public query surface. Probes are validated, projected, and
// z-scored here; the scan itself — per-shard unit planning, precision
// dispatch, and the exact rescore — lives in scan.go on top of the
// gallery package's scan core. Per-unit partial rankings merge under a
// strict total order (score descending, subject ID ascending —
// gallery.OutranksByID), which makes the result independent of
// chunking, worker count, and shard placement; see the package comment
// for the full determinism argument.

// TopKCtx ranks the k enrolled subjects most correlated with the probe,
// best first. The probe may be a gallery-space vector (len ==
// Features()) or a raw vector when the store carries a feature index;
// it is projected and z-scored once, never mutated. k larger than the
// store is clamped. parallelism is the worker count (0 = all cores,
// 1 = serial); the sweep aborts between scan units once ctx is
// cancelled and returns ctx.Err(). Scores are bit-identical to the
// single-file gallery's TopKCtx (and hence match.SimilarityMatrix)
// whatever the scan precision; the ranking itself matches the
// single-file gallery's whenever scores are tie-free (on an exact
// score tie the store orders by subject ID where the single-file
// gallery orders by enrollment index).
func (s *Store) TopKCtx(ctx context.Context, probe []float64, k, parallelism int) ([]gallery.Candidate, error) {
	k, err := gallery.ClampK(s.total, k)
	if err != nil {
		return nil, err
	}
	zp, err := s.project(probe)
	if err != nil {
		return nil, err
	}
	stats.ZScore(zp)
	return s.TopKZMasked(ctx, zp, k, parallelism, nil)
}

// QueryAllCtx answers a batch of probes — the columns of a
// features×probes matrix — returning one ranked top-k list per probe.
// Probes are z-scored once up front (gallery.PrepProbes, the same path
// the dense attack uses). Rankings are identical at any parallelism
// setting, and a cancelled ctx aborts the batch.
func (s *Store) QueryAllCtx(ctx context.Context, probes *linalg.Matrix, k, parallelism int) ([][]gallery.Candidate, error) {
	k, err := gallery.ClampK(s.total, k)
	if err != nil {
		return nil, err
	}
	zcols, err := gallery.PrepProbes(probes, s.features, s.featureIndex, parallelism)
	if err != nil {
		return nil, err
	}
	return s.QueryAllZMasked(ctx, zcols, k, parallelism, nil)
}

// DenseSimilarityCtx materializes the full store×probes similarity
// matrix, rows in global index order — the exact fallback the
// Hungarian assignment path consumes. Entries are bit-identical to the
// single-file gallery's DenseSimilarityCtx over the same subjects; the
// dense path always scores in float64. The row sweep aborts between
// chunks once ctx is cancelled.
func (s *Store) DenseSimilarityCtx(ctx context.Context, probes *linalg.Matrix, parallelism int) (*linalg.Matrix, error) {
	if s.total == 0 {
		return nil, fmt.Errorf("shard: empty store")
	}
	zcols, err := gallery.PrepProbes(probes, s.features, s.featureIndex, parallelism)
	if err != nil {
		return nil, err
	}
	n, m := s.total, len(zcols)
	out := linalg.NewMatrix(n, m)
	inv := 1 / float64(s.features)
	err = parallel.ForCtx(ctx, parallelism, n, 1+4096/(s.features*m+1), func(lo, hi int) error {
		si, li := s.locate(lo)
		for gi := lo; gi < hi; gi++ {
			for li >= s.galleries[si].Len() {
				si, li = si+1, 0
				for s.galleries[si] == nil {
					si++
				}
			}
			fp := s.galleries[si].Fingerprint(li)
			orow := out.RowView(gi)
			for j, zc := range zcols {
				orow[j] = linalg.Dot(fp, zc) * inv
			}
			li++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// project copies a probe into gallery space: identity when it is
// already gallery-sized, a gather through the feature index when the
// store has one and the probe is a longer raw vector.
func (s *Store) project(v []float64) ([]float64, error) {
	if len(v) == s.features {
		out := make([]float64, s.features)
		copy(out, v)
		return out, nil
	}
	if s.featureIndex == nil {
		return nil, fmt.Errorf("%w: got %d features, store has %d", gallery.ErrDimMismatch, len(v), s.features)
	}
	out := make([]float64, s.features)
	for k, idx := range s.featureIndex {
		if idx < 0 || idx >= len(v) {
			return nil, fmt.Errorf("%w: feature index %d outside raw vector of length %d", gallery.ErrDimMismatch, idx, len(v))
		}
		out[k] = v[idx]
	}
	return out, nil
}
