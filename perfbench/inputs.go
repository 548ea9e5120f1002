package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
)

// Synthetic input geometry shared by every workload: Gaussian
// fingerprints in the paper's 100-feature reduced subspace, probes that
// are their source subject's vector plus Gaussian noise, so the correct
// top-1 of every probe is known.
const (
	features   = 100
	probeNoise = 0.3
	topK       = 5
	shards     = 8
)

// Every input vector comes from its own PCG stream of the workload
// seed, so any vector can be regenerated on demand from (seed, stream)
// without keeping the whole input set in memory.
const (
	streamSubject  = uint64(0) << 56
	streamProbe    = uint64(1) << 56
	streamFresh    = uint64(2) << 56
	streamSchedule = uint64(3) << 56
	streamOp       = uint64(4) << 56
)

// Index spaces of the probes and online enrollments of each phase, so
// every phase draws its own inputs whatever the length of the others.
const (
	baseClosed = 0
	baseOpen   = 1 << 24
	baseWarm   = 2 << 24
	baseFixed  = 3 << 24
	baseSetup  = 4 << 24
)

func streamRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

func gaussian(r *rand.Rand) []float64 {
	v := make([]float64, features)
	for j := range v {
		v[j] = r.NormFloat64()
	}
	return v
}

// subjectVec is base subject i's raw fingerprint.
func subjectVec(seed int64, i int) []float64 {
	return gaussian(streamRNG(seed, streamSubject|uint64(i)))
}

// freshVec is the fingerprint of the n-th subject enrolled online.
func freshVec(seed int64, n int) []float64 {
	return gaussian(streamRNG(seed, streamFresh|uint64(n)))
}

func subjectID(i int) string { return fmt.Sprintf("s%06d", i) }
func freshID(n int) string   { return fmt.Sprintf("n%06d", n) }

// subjectInputs generates the raw fingerprints of base subjects
// [0, n), subject-major.
func subjectInputs(seed int64, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = subjectVec(seed, i)
	}
	return out
}

// probe is one identification input and its known answer.
type probe struct {
	vec    []float64
	wantID string
}

// noisyProbe derives probe j of the run: a copy of src plus σ-noise
// from the probe's own stream.
func noisyProbe(seed int64, j int, src []float64, wantID string) probe {
	r := streamRNG(seed, streamProbe|uint64(j))
	v := make([]float64, len(src))
	for i, x := range src {
		v[i] = x + probeNoise*r.NormFloat64()
	}
	return probe{vec: v, wantID: wantID}
}

// baseProbe is probe j against a base gallery of n subjects: its
// source subject is drawn from the probe's schedule stream.
func baseProbe(seed int64, j, n int) probe {
	i := streamRNG(seed, streamSchedule|uint64(j)).IntN(n)
	return noisyProbe(seed, j, subjectVec(seed, i), subjectID(i))
}

// identifyBody is the POST /v1/identify request body.
func identifyBody(p probe) []byte {
	b, err := json.Marshal(struct {
		Probe []float64 `json:"probe"`
		K     int       `json:"k"`
	}{p.vec, topK})
	if err != nil {
		panic(err) // a []float64 of finite values always encodes
	}
	return b
}

// batchBody is the POST /v1/identify/batch request body.
func batchBody(ps []probe) []byte {
	rows := make([][]float64, len(ps))
	for i, p := range ps {
		rows[i] = p.vec
	}
	b, err := json.Marshal(struct {
		Probes [][]float64 `json:"probes"`
		K      int         `json:"k"`
	}{rows, topK})
	if err != nil {
		panic(err)
	}
	return b
}

// enrollBody is the POST /v1/enroll request body.
func enrollBody(id string, vec []float64) []byte {
	b, err := json.Marshal(struct {
		ID          string    `json:"id"`
		Fingerprint []float64 `json:"fingerprint"`
	}{id, vec})
	if err != nil {
		panic(err)
	}
	return b
}
