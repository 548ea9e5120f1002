package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"brainprint/internal/gallery"
	"brainprint/internal/linalg"
)

// candidate is one ranked answer on the wire.
type candidate struct {
	Index int     `json:"index"`
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

func decodeIdentify(body []byte) ([]candidate, error) {
	var r struct {
		Candidates []candidate `json:"candidates"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	return r.Candidates, nil
}

func decodeBatch(body []byte) ([][]candidate, error) {
	var r struct {
		Results [][]candidate `json:"results"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	return r.Results, nil
}

// topOK reports whether a ranked answer has k candidates and the
// expected subject first.
func topOK(cands []candidate, wantID string) bool {
	return len(cands) == topK && cands[0].ID == wantID
}

// identifyWrong reports whether an identify response body is not a
// correct answer for want.
func identifyWrong(body []byte, wantID string) bool {
	cands, err := decodeIdentify(body)
	return err != nil || !topOK(cands, wantID)
}

// sameBits compares an HTTP answer with the engine's own answer to the
// same probe: same subjects, same indices, bit-identical scores.
func sameBits(got []candidate, want []gallery.Candidate) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d candidates over HTTP, %d from the engine", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.ID != w.ID || g.Index != w.Index || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Errorf("rank %d: HTTP (%s, %d, %v) engine (%s, %d, %v)", i, g.ID, g.Index, g.Score, w.ID, w.Index, w.Score)
		}
	}
	return nil
}

// engineTopK answers one probe directly on an engine.
func engineTopK(eng gallery.Engine, vec []float64) ([]gallery.Candidate, error) {
	return eng.TopKCtx(context.Background(), vec, topK, 0)
}

// engineQueryAll answers a batch directly on an engine.
func engineQueryAll(eng gallery.Engine, ps []probe) ([][]gallery.Candidate, error) {
	m := linalg.NewMatrix(features, len(ps))
	for j, p := range ps {
		m.SetCol(j, p.vec)
	}
	return eng.QueryAllCtx(context.Background(), m, topK, 0)
}
