package main

import (
	"fmt"

	"vrdann/internal/core"
	"vrdann/internal/nn"
	"vrdann/internal/segment"
	"vrdann/internal/video"
)

// maskDigest is FNV-1a 64 over a mask's geometry and pixels.
func maskDigest(m *video.Mask) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ uint64(m.W)) * prime
	h = (h ^ uint64(m.H)) * prime
	for _, p := range m.Pix {
		h = (h ^ uint64(p)) * prime
	}
	return h
}

// pipeKind names one of the three NN configurations the workloads use.
type pipeKind int

const (
	// pipeRefine: Otsu NN-L, float NN-S, no residual skip.
	pipeRefine pipeKind = iota
	// pipeFCN: FCN-32 NN-L, int8 NN-S with residual skip — the paper's cost
	// structure and the -quant deployment.
	pipeFCN
	// pipeRecon: Otsu NN-L, no NN-S; B-frames are the raw MV reconstruction.
	pipeRecon
)

// otsu is the model-free NN-L stand-in with vrserve's default close radius.
func otsu() segment.Segmenter { return &segment.ThresholdSegmenter{CloseRadius: 1} }

// nnsFor returns the (float, int8, skip) NN-S settings of a configuration.
func (k pipeKind) nnsFor(m *models) (f *nn.RefineNet, q *nn.QuantRefineNet, skip bool) {
	switch k {
	case pipeRefine:
		return m.nns, nil, false
	case pipeFCN:
		return m.nns, m.quant, true
	}
	return nil, nil, false
}

// newNNL builds a private NN-L for one stream of the configuration.
func (k pipeKind) newNNL(m *models) segment.Segmenter {
	if k == pipeFCN {
		return m.newNNL()
	}
	return otsu()
}

// streaming builds the direct single-stream driver of a configuration.
func (k pipeKind) streaming(m *models) *core.StreamingPipeline {
	f, q, skip := k.nnsFor(m)
	return &core.StreamingPipeline{
		NNL: k.newNNL(m), NNS: f, Quant: q, Refine: f != nil,
		SkipResidual: skip, SkipThreshold: skipThreshold, Workers: 1,
	}
}

// reference holds, per clip and display index, the digest of the mask the
// serial core.Pipeline.RunSegmentation computes with the same models, and
// the mean boundary F-score of those masks against the generator's truth.
// Served masks are checked byte-for-byte against it, so the reference's
// F-score is the served masks' F-score. fscore covers the validation
// (seed-independent) clips, fscoreSeeded the rest.
type reference struct {
	digests      [][]uint64
	fscore       float64
	fscoreSeeded float64
}

func buildReference(k pipeKind, m *models, clips []clip) (*reference, error) {
	f, q, skip := k.nnsFor(m)
	p := &core.Pipeline{
		NNL: k.newNNL(m), NNS: f, Quant: q, Refine: f != nil,
		SkipResidual: skip, SkipThreshold: skipThreshold,
	}
	ref := &reference{digests: make([][]uint64, len(clips))}
	var fixed, seeded segment.SeqScore
	for i, c := range clips {
		res, err := p.RunSegmentation(c.data)
		if err != nil {
			return nil, fmt.Errorf("reference clip %d: %w", i, err)
		}
		if len(res.Masks) != len(c.truth) {
			return nil, fmt.Errorf("reference clip %d: %d masks for %d frames", i, len(res.Masks), len(c.truth))
		}
		ref.digests[i] = make([]uint64, len(res.Masks))
		for d, mk := range res.Masks {
			ref.digests[i][d] = maskDigest(mk)
			if validation(i) {
				fixed.Add(mk, c.truth[d])
			} else {
				seeded.Add(mk, c.truth[d])
			}
		}
	}
	ref.fscore, _ = fixed.Mean()
	ref.fscoreSeeded, _ = seeded.Mean()
	return ref, nil
}

// ok reports whether a served mask is the reference's.
func (r *reference) ok(clip, display int, m *video.Mask) bool {
	return m != nil && display >= 0 && display < len(r.digests[clip]) &&
		maskDigest(m) == r.digests[clip][display]
}
