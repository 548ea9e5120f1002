package shard

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"brainprint/internal/gallery"
)

// copyLegacyStore copies testdata/legacy_quant — a 3-shard, 20-subject,
// 12-feature store with a raw-space feature index, written when the
// manifest still carried the int8 scan's scale/offset block (flag bit
// 0) — into a scratch directory and returns the manifest path.
func copyLegacyStore(t *testing.T) string {
	t.Helper()
	src := filepath.Join("testdata", "legacy_quant")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	dir := t.TempDir()
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), buf, 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
	}
	return filepath.Join(dir, "legacy.bpm")
}

// TestLegacyInt8ManifestOpens: a store written with the int8 parameter
// block opens at the exact float64 scan and answers TopKCtx and
// QueryAllCtx bit-identically to the single-file gallery over the same
// records, at every parallelism and at float32. Rewriting it drops the
// block.
func TestLegacyInt8ManifestOpens(t *testing.T) {
	manifest := copyLegacyStore(t)
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if flags := binary.LittleEndian.Uint32(raw[24:]); flags&flagLegacyInt8 == 0 {
		t.Fatalf("testdata manifest flags %#x lack the legacy int8 bit", flags)
	}
	s, err := Open(manifest)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if s.Len() != 20 || s.Shards() != 3 || s.Features() != 12 || len(s.FeatureIndex()) != 12 {
		t.Fatalf("legacy store: len=%d shards=%d features=%d index=%v", s.Len(), s.Shards(), s.Features(), s.FeatureIndex())
	}
	if s.Precision() != gallery.ScanFloat64 {
		t.Fatalf("legacy store opened at %v, want float64", s.Precision())
	}

	// The reference: the same records in a single-file gallery. IDs are
	// zero-padded, so its index tiebreak agrees with the store's ID
	// tiebreak.
	g := gallery.WithFeatureIndex(s.FeatureIndex())
	for _, id := range subjectIDs(20) {
		gi := s.Index(id)
		if gi < 0 {
			t.Fatalf("legacy store lacks %s", id)
		}
		if err := g.EnrollNormalized(id, s.Fingerprint(gi)); err != nil {
			t.Fatalf("EnrollNormalized: %v", err)
		}
	}
	probes := randomGroup(8, 30, 6) // raw-space: the feature index reaches 28
	const k = 5
	want, err := g.QueryAllCtx(context.Background(), probes, k, 1)
	if err != nil {
		t.Fatalf("gallery QueryAll: %v", err)
	}
	same := func(label string, got, want []gallery.Candidate) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d candidates, want %d", label, len(got), len(want))
		}
		for r := range want {
			if got[r].ID != want[r].ID || got[r].Score != want[r].Score {
				t.Fatalf("%s rank %d: (%s, %v) != exact (%s, %v)", label, r, got[r].ID, got[r].Score, want[r].ID, want[r].Score)
			}
		}
	}
	for _, prec := range []gallery.ScanPrecision{gallery.ScanFloat64, gallery.ScanFloat32} {
		if err := s.SetPrecision(prec); err != nil {
			t.Fatalf("SetPrecision(%v): %v", prec, err)
		}
		for _, par := range []int{1, 0, 3} {
			ranked, err := s.QueryAllCtx(context.Background(), probes, k, par)
			if err != nil {
				t.Fatalf("%v par=%d: QueryAll: %v", prec, par, err)
			}
			for j := range want {
				same("QueryAllCtx", ranked[j], want[j])
				top, err := s.TopKCtx(context.Background(), probes.Col(j), k, par)
				if err != nil {
					t.Fatalf("%v par=%d: TopK: %v", prec, par, err)
				}
				same("TopKCtx", top, want[j])
			}
		}
	}

	// Rewriting the store never sets the legacy bit.
	rewritten := filepath.Join(t.TempDir(), "rewritten.bpm")
	if err := s.WriteFiles(rewritten); err != nil {
		t.Fatalf("WriteFiles: %v", err)
	}
	raw, err = os.ReadFile(rewritten)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if flags := binary.LittleEndian.Uint32(raw[24:]); flags != 0 {
		t.Fatalf("rewritten manifest flags %#x, want 0", flags)
	}
	if _, err := Open(rewritten); err != nil {
		t.Fatalf("Open(rewritten): %v", err)
	}
}

// TestLegacyInt8BlockStillChecksummed: the discarded parameter block is
// still covered by the header CRC, so a flipped byte inside it fails
// Open instead of being silently skipped.
func TestLegacyInt8BlockStillChecksummed(t *testing.T) {
	manifest := copyLegacyStore(t)
	// Fixed header (28 bytes), then the 12-entry feature index, then the
	// 12×16-byte scale/offset block.
	flipByte(t, manifest, int64(len(manifestMagic))+20+4*12+10)
	if _, err := Open(manifest); !errors.Is(err, gallery.ErrChecksum) {
		t.Fatalf("Open(corrupt legacy block) = %v, want ErrChecksum", err)
	}
}
