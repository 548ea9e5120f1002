package live

import (
	"path/filepath"
	"testing"

	"brainprint/internal/gallery"
	"brainprint/internal/gallery/shard"
)

// TestLiveFloat32PrecisionSurvivesCompaction pins the live engine's
// precision knob: a float32 base scan answers bit-identically to the
// exact cold reference (the rescore restores exact scores), the
// setting persists across a compaction's generation swap, and a value
// outside the defined precisions (2 was the removed int8 scan) is
// rejected.
func TestLiveFloat32PrecisionSurvivesCompaction(t *testing.T) {
	const features, cohort, k = 19, 80, 7
	group := randomGroup(71, features, cohort)
	ids := subjectIDs(cohort)

	e, err := Create(filepath.Join(t.TempDir(), "live"), features, nil, Options{NoSync: true, Shards: 3})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer e.Close()
	for j := 0; j < 60; j++ {
		if err := e.Enroll(ids[j], group.Col(j)); err != nil {
			t.Fatalf("Enroll(%q): %v", ids[j], err)
		}
	}
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// Base tombstones plus overlay records: the masked float32 scan and
	// the exact overlay sweep both participate in the merge.
	for j := 0; j < 60; j += 7 {
		if err := e.Delete(ids[j]); err != nil {
			t.Fatalf("Delete(%q): %v", ids[j], err)
		}
	}
	for j := 60; j < cohort; j++ {
		if err := e.Enroll(ids[j], group.Col(j)); err != nil {
			t.Fatalf("Enroll(%q): %v", ids[j], err)
		}
	}

	if err := e.SetPrecision(gallery.ScanPrecision(2)); err == nil {
		t.Fatal("SetPrecision(ScanPrecision(2)) on a live engine succeeded")
	}
	if err := e.SetPrecision(gallery.ScanFloat32); err != nil {
		t.Fatalf("SetPrecision(float32): %v", err)
	}
	if got := e.Precision(); got != gallery.ScanFloat32 {
		t.Fatalf("Precision() = %v, want float32", got)
	}

	cold := gallery.New(features)
	live := map[string]bool{}
	for _, id := range e.IDs() {
		live[id] = true
	}
	for j, id := range ids {
		if live[id] {
			if err := cold.Enroll(id, group.Col(j)); err != nil {
				t.Fatalf("cold Enroll: %v", err)
			}
		}
	}
	coldStore, err := shard.FromGallery(cold, 3, false)
	if err != nil {
		t.Fatalf("cold FromGallery: %v", err)
	}
	probes := noisyProbes(group, 72)
	assertEnginesAgree(t, "float32-overlay", coldStore, e, probes, k)

	// The generation swap must re-apply the precision to the fresh base.
	if err := e.Compact(); err != nil {
		t.Fatalf("second Compact: %v", err)
	}
	if got := e.Precision(); got != gallery.ScanFloat32 {
		t.Fatalf("Precision() = %v after compaction, want float32", got)
	}
	assertEnginesAgree(t, "float32-compacted", coldStore, e, probes, k)
}
