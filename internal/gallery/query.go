package gallery

import (
	"context"
	"errors"
	"fmt"

	"brainprint/internal/linalg"
	"brainprint/internal/match"
	"brainprint/internal/parallel"
	"brainprint/internal/stats"
)

// Candidate is one ranked identification hypothesis: an enrolled
// subject and its Pearson correlation with the probe.
type Candidate struct {
	// Index is the subject's enrollment index in the gallery.
	Index int
	// ID is the enrolled subject ID.
	ID string
	// Score is the Pearson correlation between the probe and the
	// enrolled fingerprint — the same value match.SimilarityMatrix
	// would put at (Index, probe), bit for bit.
	Score float64
}

// better reports whether a outranks b. Ties break toward the lower
// enrollment index, making the ranking a total order: top-k results are
// identical at any parallelism setting and any chunking.
func better(a, b Candidate) bool {
	return a.Score > b.Score || (a.Score == b.Score && a.Index < b.Index)
}

// OutranksByID reports whether a outranks b: higher score first, ties
// broken by the lexicographically smaller subject ID. It is the order
// of the sharded store and the live engine: unlike the single-file
// gallery's index tiebreak, it is invariant under resharding and
// compaction — enumeration indices change when records move, IDs
// never do.
func OutranksByID(a, b Candidate) bool {
	return a.Score > b.Score || (a.Score == b.Score && a.ID < b.ID)
}

// TopKCtx ranks the k enrolled subjects most correlated with the probe,
// best first. The probe may be a gallery-space vector (len ==
// Features()) or a raw vector when the gallery carries a feature
// index; it is projected and z-scored once, never mutated. k larger
// than the gallery is clamped. parallelism is the worker count (0 =
// all cores, 1 = serial); the ranking is identical at any setting,
// and a cancelled ctx aborts the sweep between record ranges with
// ctx.Err().
func (g *Gallery) TopKCtx(ctx context.Context, probe []float64, k, parallelism int) ([]Candidate, error) {
	k, err := ClampK(g.Len(), k)
	if err != nil {
		return nil, err
	}
	zp, err := g.project(probe)
	if err != nil {
		return nil, err
	}
	stats.ZScore(zp)
	lists, err := g.sweep(ctx, [][]float64{zp}, k, parallelism)
	if err != nil {
		return nil, err
	}
	return lists[0], nil
}

// QueryAllCtx answers a batch of probes — the columns of a
// features×probes matrix — returning one ranked top-k list per probe.
// Probes are z-scored once up front (through the same
// match.ZScoreColumns path the dense attack uses); each record range
// is then scanned once for the whole batch through the probe-tiled
// kernel. Rankings are identical at any parallelism setting.
func (g *Gallery) QueryAllCtx(ctx context.Context, probes *linalg.Matrix, k, parallelism int) ([][]Candidate, error) {
	k, err := ClampK(g.Len(), k)
	if err != nil {
		return nil, err
	}
	zcols, err := PrepProbes(probes, g.features, g.featureIndex, parallelism)
	if err != nil {
		return nil, err
	}
	return g.sweep(ctx, zcols, k, parallelism)
}

// sweep ranks the gallery against z-scored gallery-space probes through
// the blocked scan core. Each score is the linalg.Dot(fingerprint,
// zp)·(1/F) expression bit for bit (the blocked kernel preserves
// per-record accumulation order), so results stay bit-identical to
// DenseSimilarityCtx.
func (g *Gallery) sweep(ctx context.Context, zps [][]float64, k, parallelism int) ([][]Candidate, error) {
	return SweepRanges(ctx, parallelism, g.scanRanges(len(zps), parallelism), zps, 1/float64(g.features), nil, k, better)
}

// scanRanges splits the gallery into lane-aligned record ranges of
// about 256k multiply-adds each. A batch of probes multiplies the work
// per range, so its ranges shrink when that would leave workers idle;
// a single probe keeps the full grain, where a fan-out over a small
// gallery costs more than it saves.
func (g *Gallery) scanRanges(probes, parallelism int) []ScanRange {
	bk := g.Blocked()
	n := g.Len()
	grain := 1 + (1<<18)/g.features
	if w := parallel.Workers(parallelism); w > 1 && probes > 1 {
		grain = min(grain, 1+n/(4*w))
	}
	grain = alignLanes(grain)
	ranges := make([]ScanRange, 0, (n+grain-1)/grain)
	for lo := 0; lo < n; lo += grain {
		ranges = append(ranges, ScanRange{Blocked: bk, Lo: lo, Hi: min(lo+grain, n), IDs: g.ids})
	}
	return ranges
}

// DenseSimilarityCtx materializes the full gallery×probes similarity
// matrix — the exact-equivalence fallback path. Entry (i, j) is
// bit-identical to match.SimilarityMatrix(known, probes) at (i, j) when
// the gallery was enrolled from the columns of known: enrollment stored
// the same z-scored columns, probes normalize through the same code
// path, and each entry is the same Dot·(1/features) expression. The
// row sweep aborts between chunks once ctx is cancelled.
func (g *Gallery) DenseSimilarityCtx(ctx context.Context, probes *linalg.Matrix, parallelism int) (*linalg.Matrix, error) {
	if g.Len() == 0 {
		return nil, errEmpty
	}
	zcols, err := PrepProbes(probes, g.features, g.featureIndex, parallelism)
	if err != nil {
		return nil, err
	}
	n, m := g.Len(), len(zcols)
	out := linalg.NewMatrix(n, m)
	inv := 1 / float64(g.features)
	err = parallel.ForCtx(ctx, parallelism, n, 1+4096/(g.features*m+1), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			fp := g.fingerprint(i)
			orow := out.RowView(i)
			for j, zc := range zcols {
				orow[j] = linalg.Dot(fp, zc) * inv
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// errEmpty is the query error of an engine with no enrolled records.
var errEmpty = errors.New("gallery: empty gallery")

// ClampK validates a query's k against an engine holding n records,
// clamping k to n. Every engine's query surface calls it first.
func ClampK(n, k int) (int, error) {
	if n == 0 {
		return 0, errEmpty
	}
	if k <= 0 {
		return 0, fmt.Errorf("gallery: k=%d must be positive", k)
	}
	return min(k, n), nil
}

// PrepProbes converts a features×probes matrix into z-scored
// gallery-space probe vectors for an engine of the given
// dimensionality, projecting through index (nil = none) when the
// probes are raw-space. Every engine normalizes batches through this
// one path — the same match.ZScoreColumns the dense attack uses — so
// batch scores stay bit-identical across engines.
func PrepProbes(probes *linalg.Matrix, features int, index []int, parallelism int) ([][]float64, error) {
	f, m := probes.Dims()
	if m == 0 {
		return nil, fmt.Errorf("gallery: no probe columns")
	}
	gal := probes
	if f != features {
		if index == nil {
			return nil, fmt.Errorf("%w: probes have %d features, gallery has %d", ErrDimMismatch, f, features)
		}
		for _, idx := range index {
			if idx < 0 || idx >= f {
				return nil, fmt.Errorf("%w: feature index %d outside raw probes with %d features", ErrDimMismatch, idx, f)
			}
		}
		gal = probes.SelectRows(index)
	}
	z := match.ZScoreColumns(gal, parallelism)
	cols := make([][]float64, m)
	parallel.ForWith(parallelism, m, 1+1024/features, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			cols[j] = z.Col(j)
		}
	})
	return cols, nil
}

// RankInsert inserts c into a descending-ranked list bounded at k
// under the strict total order outranks (true when a outranks b); the
// list is mutated and returned.
func RankInsert(list []Candidate, c Candidate, k int, outranks func(a, b Candidate) bool) []Candidate {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if outranks(c, list[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo >= k {
		return list
	}
	if len(list) < k {
		list = append(list, Candidate{})
	}
	copy(list[lo+1:], list[lo:])
	list[lo] = c
	return list
}
