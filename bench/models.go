package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"

	"vrdann/internal/adapt"
	"vrdann/internal/codec"
	"vrdann/internal/core"
	"vrdann/internal/nn"
	"vrdann/internal/segment"
	"vrdann/internal/video"
)

const (
	nnsFeatures = 8  // NN-S hidden feature maps (the repo default)
	nnlWidth    = 32 // FCN base width: ≈24× NN-S's MACs at 96×64
	modelSeed   = 1  // fixed; independent of -seed so result files share weights
	nnlLabel    = "fcn32"

	modelDir = "bench/models"
	nnsFile  = "nns.bin"
	nnlFile  = "nnl.bin"

	// skipThreshold is the -quant deployment's residual-skip cutoff.
	skipThreshold = 8
)

// models are the trained networks every workload shares.
type models struct {
	nns   *nn.RefineNet
	quant *nn.QuantRefineNet
	// nnl is the master FCN. Layers cache activations, so it is never run:
	// newNNL hands each user a private copy.
	nnl *nn.FCN

	nnsDigest, nnlDigest string
}

func newNNS() *nn.RefineNet { return nn.NewRefineNet(rand.New(rand.NewSource(0)), nnsFeatures) }
func newFCN() *nn.FCN       { return nn.NewFCN(rand.New(rand.NewSource(0)), 1, nnlWidth) }

// trainModels trains NN-S and the FCN-32 NN-L on the held-out training
// sequences with the fixed model seed.
func trainModels() (*models, error) {
	train := video.MakeTrainingSet(frameW, frameH, 16)
	tc := core.DefaultTrainConfig()
	tc.Features, tc.Seed = nnsFeatures, modelSeed
	nns, err := core.TrainNNS(train, codec.DefaultConfig(), tc)
	if err != nil {
		return nil, err
	}
	nnl, err := core.TrainNNL(train, core.NNLTrainConfig{Width: nnlWidth, Steps: 900, LR: 0.01, Seed: modelSeed})
	if err != nil {
		return nil, err
	}
	return finishModels(nns, nnl)
}

// loadModels reads the committed artefacts, or trains when they are absent.
func loadModels() (*models, error) {
	nns, nnl := newNNS(), newFCN()
	for _, f := range []struct {
		name string
		net  nn.Layer
	}{{nnsFile, nns}, {nnlFile, nnl}} {
		b, err := os.ReadFile(filepath.Join(modelDir, f.name))
		if errors.Is(err, fs.ErrNotExist) {
			return trainModels()
		}
		if err != nil {
			return nil, err
		}
		if err := nn.LoadParams(bytes.NewReader(b), f.net); err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
	}
	return finishModels(nns, nnl)
}

// finishModels compiles the int8 NN-S and fingerprints the weights.
func finishModels(nns *nn.RefineNet, nnl *nn.FCN) (*models, error) {
	// Same calibration alphabet vrserve -quant uses: sandwich channels only
	// ever carry {0, 0.5, 1}.
	quant, err := nn.NewQuantRefineNet(nns, adapt.SandwichCalibration(frameW, frameH, 4, 1))
	if err != nil {
		return nil, err
	}
	m := &models{nns: nns, quant: quant, nnl: nnl}
	if m.nnsDigest, err = paramDigest(nns); err != nil {
		return nil, err
	}
	if m.nnlDigest, err = paramDigest(nnl); err != nil {
		return nil, err
	}
	return m, nil
}

func paramBytes(net nn.Layer) ([]byte, error) {
	var buf bytes.Buffer
	if err := nn.SaveParams(&buf, net); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func paramDigest(net nn.Layer) (string, error) {
	b, err := paramBytes(net)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// save writes both parameter files under modelDir.
func (m *models) save() error {
	if err := os.MkdirAll(modelDir, 0o755); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		net  nn.Layer
	}{{nnsFile, m.nns}, {nnlFile, m.nnl}} {
		b, err := paramBytes(f.net)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(modelDir, f.name), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// cloneNNL returns a private FCN-32 with the master's weights.
func (m *models) cloneNNL() *nn.FCN {
	f := newFCN()
	src, dst := m.nnl.Params(), f.Params()
	for i := range src {
		copy(dst[i].Data, src[i].Data)
	}
	return f
}

// newNNL wraps a private FCN-32 as a segmenter. All copies share one label,
// so the content cache treats them as one model.
func (m *models) newNNL() segment.Segmenter {
	return &segment.NetSegmenter{Label: nnlLabel, Net: m.cloneNNL()}
}

// macRatio is NN-L's multiply-accumulates per frame over NN-S's.
func (m *models) macRatio() float64 {
	return float64(m.nnl.StaticMACs(frameH, frameW)) / float64(m.nns.StaticMACs(frameH, frameW))
}
