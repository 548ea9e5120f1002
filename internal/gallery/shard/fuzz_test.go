package shard

import (
	"bytes"
	"testing"
)

// fuzzSeedManifest renders a valid manifest to seed the corpus. The
// legacy int8-parameter seed the encoder can no longer produce lives in
// testdata/fuzz/FuzzDecodeManifest/quant_params.
func fuzzSeedManifest(tb testing.TB, features int, index []int, shards int) []byte {
	tb.Helper()
	m := &Manifest{Features: features, FeatureIndex: index}
	for i := 0; i < shards; i++ {
		m.Shards = append(m.Shards, Meta{
			Name: "x.s00" + string(rune('0'+i)) + ".bpg", Records: 3 + i, Features: features,
			Bytes: 1000 + int64(i), CRC: uint32(0xdead0000 + i),
		})
	}
	buf, err := m.encode()
	if err != nil {
		tb.Fatalf("seed manifest: %v", err)
	}
	return buf
}

// FuzzDecodeManifest throws adversarial bytes at the shard manifest
// decoder: no panics, allocation bounded by the data actually present,
// and any successfully decoded manifest must re-encode cleanly.
func FuzzDecodeManifest(f *testing.F) {
	plain := fuzzSeedManifest(f, 5, nil, 2)
	f.Add(plain)
	f.Add(fuzzSeedManifest(f, 3, []int{9, 2, 4}, 4))
	f.Add(plain[:15])                // torn header
	f.Add(plain[:len(plain)-7])      // torn entry
	f.Add([]byte("BPSHMAN\x00\x01")) // magic then garbage
	f.Add([]byte{})
	mut := append([]byte(nil), plain...)
	mut[9] ^= 0x01 // version flip
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if m.Features <= 0 || len(m.Shards) == 0 {
			t.Fatalf("decoded inconsistent manifest: %+v", m)
		}
		if _, err := m.encode(); err != nil {
			t.Fatalf("re-encoding a decoded manifest failed: %v", err)
		}
	})
}
