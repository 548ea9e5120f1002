package shard

import (
	"context"
	"fmt"
	"math"
	"testing"

	"brainprint/internal/gallery"
	"brainprint/internal/linalg"
)

// TestFloat32RescoreExactAcrossShardsAndParallelism is the float32
// acceptance property: at every shard count and parallelism setting the
// float32 scan with exact rescore must return the IDENTICAL subjects
// with BIT-IDENTICAL float64 scores as the exact path — reduced
// precision may only ever change which candidates get rescored, never
// what is returned.
func TestFloat32RescoreExactAcrossShardsAndParallelism(t *testing.T) {
	const features, subjects, k = 100, 1000, 10
	known := randomGroup(81, features, subjects)
	anon := noisyProbes(known, 82)
	g := gallery.New(features)
	if err := g.EnrollMatrix(subjectIDs(subjects), known); err != nil {
		t.Fatalf("EnrollMatrix: %v", err)
	}
	wantRanked, err := g.QueryAllCtx(context.Background(), anon, k, 1)
	if err != nil {
		t.Fatalf("gallery QueryAll: %v", err)
	}
	for _, shards := range []int{1, 4, 7} {
		s, err := FromGallery(g, shards, false)
		if err != nil {
			t.Fatalf("FromGallery(%d): %v", shards, err)
		}
		if err := s.SetPrecision(gallery.ScanFloat32); err != nil {
			t.Fatalf("SetPrecision(float32): %v", err)
		}
		if got := s.Precision(); got != gallery.ScanFloat32 {
			t.Fatalf("Precision() = %v, want float32", got)
		}
		for _, par := range []int{1, 0, 3} {
			name := fmt.Sprintf("shards=%d par=%d", shards, par)
			ranked, err := s.QueryAllCtx(context.Background(), anon, k, par)
			if err != nil {
				t.Fatalf("%s: QueryAll: %v", name, err)
			}
			for j := range ranked {
				if len(ranked[j]) != k {
					t.Fatalf("%s probe %d: %d candidates, want %d", name, j, len(ranked[j]), k)
				}
				for r := range ranked[j] {
					got, want := ranked[j][r], wantRanked[j][r]
					if got.ID != want.ID {
						t.Fatalf("%s probe %d rank %d: subject %q != %q", name, j, r, got.ID, want.ID)
					}
					if got.Score != want.Score {
						t.Fatalf("%s probe %d rank %d: score %v != %v (rescore not bit-identical)",
							name, j, r, got.Score, want.Score)
					}
				}
			}
			// Single-probe float32 path agrees with the batch.
			single, err := s.TopKCtx(context.Background(), anon.Col(0), k, par)
			if err != nil {
				t.Fatalf("%s: TopK: %v", name, err)
			}
			for r := range single {
				if single[r] != ranked[0][r] {
					t.Fatalf("%s: TopK and QueryAll disagree at rank %d", name, r)
				}
			}
		}
	}
}

// TestFloat32AdversarialOrderCorrectedByRescore pins the reason the
// rescore exists with a fixture where the float32 candidate ordering
// provably DIFFERS from the float64 ordering. The probe is a balanced
// ±1 vector (z-scoring such a vector is an exact identity: mean is
// exactly 0 and the population std exactly 1, so every score below is
// an exact small-integer dot product). Subject "zz-near" is the probe
// with its first entry nudged by a relative 2⁻⁴⁰ — exactly
// representable in float64, but rounded away by the float32 conversion
// — and subject "aa-copy" is the probe verbatim. In float64 zz-near
// outscores aa-copy (1+2⁻⁴⁵ vs 1); in float32 their dots are the same
// bits, so approximate selection ties them and ranks aa-copy first by
// the ID-ascending tiebreak. The public float32 TopK must nonetheless
// return zz-near first with its exact score: the float64 rescore
// corrects the inverted approximate ordering.
func TestFloat32AdversarialOrderCorrectedByRescore(t *testing.T) {
	const features = 32
	probe := make([]float64, features)
	for f := range probe {
		probe[f] = 1
		if f%2 == 1 {
			probe[f] = -1
		}
	}
	near := append([]float64(nil), probe...)
	near[0] = probe[0] * (1 + math.Pow(2, -40))
	// A filler population below the two contenders but big enough that
	// the rescore pool (rescoreDepth: max(4k, 32)) does not trivially
	// cover the whole store.
	filler := append([]float64(nil), probe...)
	for f := 0; f < 8; f++ {
		filler[f] = -filler[f]
	}
	g := gallery.New(features)
	if err := g.EnrollNormalized("aa-copy", probe); err != nil {
		t.Fatalf("enroll aa-copy: %v", err)
	}
	if err := g.EnrollNormalized("zz-near", near); err != nil {
		t.Fatalf("enroll zz-near: %v", err)
	}
	for i := 0; i < 34; i++ {
		if err := g.EnrollNormalized(fmt.Sprintf("filler-%02d", i), filler); err != nil {
			t.Fatalf("enroll filler: %v", err)
		}
	}

	// The fixture's premise, asserted directly: the two subjects tie in
	// float32 but differ in float64.
	p32, n32, f32 := gallery.ToF32(probe), gallery.ToF32(near), gallery.ToF32(probe)
	var dp, dn float32
	for f := 0; f < features; f++ {
		dp += f32[f] * p32[f]
		dn += n32[f] * p32[f]
	}
	if dp != dn {
		t.Fatalf("float32 dots differ (%v vs %v); fixture premise broken", dp, dn)
	}
	inv := 1 / float64(features)
	exactNear := linalg.Dot(near, probe) * inv
	exactCopy := linalg.Dot(probe, probe) * inv
	if exactNear <= exactCopy {
		t.Fatalf("float64 scores do not separate (%v vs %v); fixture premise broken", exactNear, exactCopy)
	}

	for _, shards := range []int{1, 2} {
		s, err := FromGallery(g, shards, false)
		if err != nil {
			t.Fatalf("FromGallery(%d): %v", shards, err)
		}
		exact, err := s.TopKCtx(context.Background(), probe, 2, 0)
		if err != nil {
			t.Fatalf("exact TopK: %v", err)
		}
		if exact[0].ID != "zz-near" || exact[1].ID != "aa-copy" {
			t.Fatalf("shards=%d: exact ranking [%s %s], want [zz-near aa-copy]", shards, exact[0].ID, exact[1].ID)
		}
		if err := s.SetPrecision(gallery.ScanFloat32); err != nil {
			t.Fatalf("SetPrecision(float32): %v", err)
		}
		for _, par := range []int{1, 0, 3} {
			got, err := s.TopKCtx(context.Background(), probe, 2, par)
			if err != nil {
				t.Fatalf("shards=%d par=%d: float32 TopK: %v", shards, par, err)
			}
			for r := range exact {
				if got[r].ID != exact[r].ID || got[r].Score != exact[r].Score {
					t.Fatalf("shards=%d par=%d rank %d: float32 path (%s, %v) != exact (%s, %v)",
						shards, par, r, got[r].ID, got[r].Score, exact[r].ID, exact[r].Score)
				}
			}
		}
	}
}

// TestSetPrecisionValidation covers the precision knob's error path:
// a value outside the defined precisions — 2 was the removed int8
// scan — is rejected and leaves the active precision untouched.
func TestSetPrecisionValidation(t *testing.T) {
	g := buildGallery(t, 91, 16, 40)
	s, err := FromGallery(g, 2, false)
	if err != nil {
		t.Fatalf("FromGallery: %v", err)
	}
	if err := s.SetPrecision(gallery.ScanFloat32); err != nil {
		t.Fatalf("SetPrecision(float32): %v", err)
	}
	if err := s.SetPrecision(gallery.ScanPrecision(2)); err == nil {
		t.Fatal("SetPrecision(ScanPrecision(2)) succeeded")
	}
	if s.Precision() != gallery.ScanFloat32 {
		t.Fatalf("Precision() = %v after a rejected SetPrecision, want float32", s.Precision())
	}
	if err := s.SetPrecision(gallery.ScanFloat64); err != nil {
		t.Fatalf("SetPrecision(float64): %v", err)
	}
}
