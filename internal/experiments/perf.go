package experiments

import (
	"fmt"
	"sort"
	"strings"

	"vrdann/internal/codec"
	"vrdann/internal/core"
	"vrdann/internal/nn"
	"vrdann/internal/segment"
	"vrdann/internal/sim"
	"vrdann/internal/sim/dram"
	"vrdann/internal/tensor"
	"vrdann/internal/video"
)

// workloadFor extracts the (cached-decode) simulator workload of one video.
func (h *Harness) workloadFor(v *video.Video) (sim.Workload, error) {
	dec, err := h.SideDecodeFor(v, h.Cfg.Enc)
	if err != nil {
		return sim.Workload{}, err
	}
	return sim.FromDecode(v.Name, dec, h.Cfg.Sim.Agent, h.Cfg.SimW, h.Cfg.SimH), nil
}

// Fig12Row is one video's execution time (normalized to FAVOS) and
// operation counts.
type Fig12Row struct {
	Name               string
	SerialNorm         float64 // VR-DANN-serial cycles / FAVOS cycles
	ParallelNorm       float64
	FavosTOPS, VrdTOPS float64 // per-frame tera-ops
}

// Fig12 reports per-video execution cycles of FAVOS, VR-DANN-serial and
// VR-DANN-parallel (normalized to FAVOS), plus the per-frame TOPS drop.
func (h *Harness) Fig12() ([]Fig12Row, error) {
	var out []Fig12Row
	s := sim.New(h.Cfg.Sim)
	for _, v := range h.Suite() {
		w, err := h.workloadFor(v)
		if err != nil {
			return nil, err
		}
		favos := s.Run(sim.SchemeFAVOS, w)
		serial := s.Run(sim.SchemeVRDANNSerial, w)
		parallel := s.Run(sim.SchemeVRDANNParallel, w)
		out = append(out, Fig12Row{
			Name:         v.Name,
			SerialNorm:   serial.TotalNS / favos.TotalNS,
			ParallelNorm: parallel.TotalNS / favos.TotalNS,
			FavosTOPS:    favos.TOPSPerFrame(),
			VrdTOPS:      parallel.TOPSPerFrame(),
		})
	}
	return out, nil
}

// Fig13Row is one scheme's suite-average performance and energy relative
// to FAVOS.
type Fig13Row struct {
	Scheme     sim.Scheme
	Speedup    float64 // FAVOS time / scheme time
	EnergyNorm float64 // scheme energy / FAVOS energy
	FPS        float64
}

// fig13Schemes are the schemes Fig 13 plots.
var fig13Schemes = []sim.Scheme{
	sim.SchemeOSVOS, sim.SchemeDFF, sim.SchemeFAVOS,
	sim.SchemeVRDANNSerial, sim.SchemeVRDANNParallel,
}

// Fig13 reports suite-average performance and energy normalized to FAVOS.
func (h *Harness) Fig13() ([]Fig13Row, error) {
	s := sim.New(h.Cfg.Sim)
	totalNS := map[sim.Scheme]float64{}
	totalPJ := map[sim.Scheme]float64{}
	frames := 0
	for _, v := range h.Suite() {
		w, err := h.workloadFor(v)
		if err != nil {
			return nil, err
		}
		frames += len(w.Frames)
		for _, sc := range fig13Schemes {
			r := s.Run(sc, w)
			totalNS[sc] += r.TotalNS
			totalPJ[sc] += r.Energy.TotalPJ()
		}
	}
	var out []Fig13Row
	for _, sc := range fig13Schemes {
		out = append(out, Fig13Row{
			Scheme:     sc,
			Speedup:    totalNS[sim.SchemeFAVOS] / totalNS[sc],
			EnergyNorm: totalPJ[sc] / totalPJ[sim.SchemeFAVOS],
			FPS:        float64(frames) / (totalNS[sc] * 1e-9),
		})
	}
	return out, nil
}

// Fig14Row is one scheme's DRAM traffic, split by category and normalized
// to FAVOS's total.
type Fig14Row struct {
	Scheme sim.Scheme
	Share  map[string]float64 // category -> fraction of FAVOS total bytes
	Total  float64            // total bytes / FAVOS total bytes
}

// Fig14 reports the DRAM access breakdown of FAVOS, VR-DANN-serial and
// VR-DANN-parallel over the suite.
func (h *Harness) Fig14() ([]Fig14Row, error) {
	s := sim.New(h.Cfg.Sim)
	schemes := []sim.Scheme{sim.SchemeFAVOS, sim.SchemeVRDANNSerial, sim.SchemeVRDANNParallel}
	byKind := map[sim.Scheme]*dram.Stats{}
	for _, sc := range schemes {
		byKind[sc] = &dram.Stats{}
	}
	for _, v := range h.Suite() {
		w, err := h.workloadFor(v)
		if err != nil {
			return nil, err
		}
		for _, sc := range schemes {
			r := s.Run(sc, w)
			for k := range r.DRAM.BytesByKind {
				byKind[sc].BytesByKind[k] += r.DRAM.BytesByKind[k]
			}
		}
	}
	favosTotal := float64(byKind[sim.SchemeFAVOS].TotalBytes())
	var out []Fig14Row
	for _, sc := range schemes {
		row := Fig14Row{Scheme: sc, Share: map[string]float64{}}
		for k, b := range byKind[sc].BytesByKind {
			if b > 0 {
				row.Share[dram.KindNames[k]] = float64(b) / favosTotal
			}
		}
		row.Total = float64(byKind[sc].TotalBytes()) / favosTotal
		out = append(out, row)
	}
	return out, nil
}

// Headline aggregates the paper's Sec VI headline numbers.
type Headline struct {
	SpeedupVsOSVOS, SpeedupVsFAVOS, SpeedupVsDFF, SpeedupVsEuphrates2 float64
	EnergyVsOSVOS, EnergyVsFAVOS, EnergyVsDFF, EnergyVsSerial         float64
	FAVOSFPS, VRDANNFPS                                               float64
	SerialSpeedupVsFAVOS                                              float64
	AccuracyLossVsFAVOSPct                                            float64 // in F-Score points
}

// Headline computes the paper's abstract-level comparison numbers on the
// suite. Accuracy uses Fig 10 results; performance uses Fig 13-style
// aggregation extended with Euphrates-2.
func (h *Harness) Headline() (*Headline, error) {
	s := sim.New(h.Cfg.Sim)
	schemes := []sim.Scheme{
		sim.SchemeOSVOS, sim.SchemeDFF, sim.SchemeFAVOS, sim.SchemeEuphrates2,
		sim.SchemeVRDANNSerial, sim.SchemeVRDANNParallel,
	}
	totalNS := map[sim.Scheme]float64{}
	totalPJ := map[sim.Scheme]float64{}
	frames := 0
	for _, v := range h.Suite() {
		w, err := h.workloadFor(v)
		if err != nil {
			return nil, err
		}
		frames += len(w.Frames)
		for _, sc := range schemes {
			r := s.Run(sc, w)
			totalNS[sc] += r.TotalNS
			totalPJ[sc] += r.Energy.TotalPJ()
		}
	}
	par := sim.SchemeVRDANNParallel
	out := &Headline{
		SpeedupVsOSVOS:       totalNS[sim.SchemeOSVOS] / totalNS[par],
		SpeedupVsFAVOS:       totalNS[sim.SchemeFAVOS] / totalNS[par],
		SpeedupVsDFF:         totalNS[sim.SchemeDFF] / totalNS[par],
		SpeedupVsEuphrates2:  totalNS[sim.SchemeEuphrates2] / totalNS[par],
		EnergyVsOSVOS:        totalPJ[sim.SchemeOSVOS] / totalPJ[par],
		EnergyVsFAVOS:        totalPJ[sim.SchemeFAVOS] / totalPJ[par],
		EnergyVsDFF:          totalPJ[sim.SchemeDFF] / totalPJ[par],
		EnergyVsSerial:       totalPJ[sim.SchemeVRDANNSerial] / totalPJ[par],
		FAVOSFPS:             float64(frames) / (totalNS[sim.SchemeFAVOS] * 1e-9),
		VRDANNFPS:            float64(frames) / (totalNS[par] * 1e-9),
		SerialSpeedupVsFAVOS: totalNS[sim.SchemeFAVOS] / totalNS[sim.SchemeVRDANNSerial],
	}
	f10, err := h.Fig10()
	if err != nil {
		return nil, err
	}
	var favF, vrdF float64
	for _, row := range f10 {
		switch row.Scheme {
		case "FAVOS":
			favF = row.F
		case "VR-DANN":
			vrdF = row.F
		}
	}
	out.AccuracyLossVsFAVOSPct = (favF - vrdF) * 100
	return out, nil
}

// TableII renders the architecture configuration table.
func (h *Harness) TableII() string {
	a := h.Cfg.Sim.Agent
	n := h.Cfg.Sim.NPU
	return fmt.Sprintf(`Table II: VR-DANN-parallel configuration
  Agent unit:
    tmp_B          %d x %d KB
    mv_T           %d entries (~%.1f KB)
    ip_Q           %d entries
    b_Q            %d entries
    coalesce win   %d entries
    frequency      %d MHz
    area (45 nm)   %.1f mm^2, %.2f nJ/access
  NPU (Ascend 310 class):
    compute (INT8) %.0f TOPS peak
    buffer         %d MB
    frequency      %d MHz`,
		a.TmpBuffers, a.TmpBufferBytes>>10,
		a.MVTEntries, float64(a.MVTEntries*8)/1024,
		a.IPQEntries, a.BQEntries, a.CoalesceWindow,
		int(a.ClockGHz*1000),
		a.AreaMM2(), a.TmpBAccessNJ(),
		n.PeakTOPS, n.BufferBytes>>20, int(n.ClockGHz*1000))
}

// AblationRow is one design-knob setting's outcome.
type AblationRow struct {
	Label    string
	TotalNS  float64
	AgentNS  float64
	Misses   int64
	Switches int
}

// AblationCoalescing compares the parallel architecture with and without
// the MV coalescing unit (Sec IV-C).
func (h *Harness) AblationCoalescing() ([]AblationRow, error) {
	return h.ablate(func(p *sim.Params, on bool) { p.DisableCoalescing = !on }, "coalescing")
}

// AblationLaggedSwitching compares lagged queue switching against eager
// per-frame draining (Sec IV-B).
func (h *Harness) AblationLaggedSwitching() ([]AblationRow, error) {
	return h.ablate(func(p *sim.Params, on bool) { p.DisableLaggedSwitching = !on }, "lagged-switching")
}

func (h *Harness) ablate(set func(*sim.Params, bool), label string) ([]AblationRow, error) {
	var out []AblationRow
	for _, on := range []bool{true, false} {
		p := h.Cfg.Sim
		set(&p, on)
		s := sim.New(p)
		row := AblationRow{Label: fmt.Sprintf("%s=%v", label, on)}
		for _, v := range h.Suite() {
			w, err := h.workloadFor(v)
			if err != nil {
				return nil, err
			}
			r := s.Run(sim.SchemeVRDANNParallel, w)
			row.TotalNS += r.TotalNS
			row.AgentNS += r.AgentNS
			row.Misses += r.DRAM.Misses
			row.Switches += r.Switches
		}
		out = append(out, row)
	}
	return out, nil
}

// AblationTmpB sweeps the number of tmp_B buffers (the paper settles on 3).
func (h *Harness) AblationTmpB() ([]AblationRow, error) {
	var out []AblationRow
	for _, n := range []int{1, 2, 3, 4, 6} {
		p := h.Cfg.Sim
		p.Agent.TmpBuffers = n
		s := sim.New(p)
		row := AblationRow{Label: fmt.Sprintf("tmp_B=%d", n)}
		for _, v := range h.Suite() {
			w, err := h.workloadFor(v)
			if err != nil {
				return nil, err
			}
			r := s.Run(sim.SchemeVRDANNParallel, w)
			row.TotalNS += r.TotalNS
			row.AgentNS += r.AgentNS
			row.Misses += r.DRAM.Misses
			row.Switches += r.Switches
		}
		out = append(out, row)
	}
	return out, nil
}

// AblationRefinement compares VR-DANN accuracy with and without NN-S
// refinement (reconstruction-only), justifying the Sec III-A-2 network.
func (h *Harness) AblationRefinement() (withF, withJ, withoutF, withoutJ float64, err error) {
	nns, err := h.NNS()
	if err != nil {
		return 0, 0, 0, 0, err
	}
	var wf, wj, of, oj float64
	n := 0
	for _, v := range h.Suite() {
		st, err := h.StreamFor(v, h.Cfg.Enc)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		nnl := h.nnlFor(v, "NN-L", h.Cfg.FAVOSNoise, 3)
		withP := &core.Pipeline{NNL: nnl, NNS: nns, Refine: true, Workers: h.Cfg.PipelineWorkers}
		withoutP := &core.Pipeline{NNL: nnl, Refine: false, Workers: h.Cfg.PipelineWorkers}
		rw, err := withP.RunSegmentation(st.Data)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		ro, err := withoutP.RunSegmentation(st.Data)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		f1, j1 := ScoreMasks(rw.Masks, v)
		f0, j0 := ScoreMasks(ro.Masks, v)
		wf += f1
		wj += j1
		of += f0
		oj += j0
		n++
	}
	c := float64(n)
	return wf / c, wj / c, of / c, oj / c, nil
}

// Timeline renders Fig 7-style execution timelines (FAVOS, VR-DANN-serial,
// VR-DANN-parallel) for the "cows" sequence.
func (h *Harness) Timeline() (string, error) {
	var target *video.Video
	for _, v := range h.Suite() {
		if v.Name == "cows" {
			target = v
			break
		}
	}
	if target == nil {
		target = h.Suite()[0]
	}
	w, err := h.workloadFor(target)
	if err != nil {
		return "", err
	}
	s := sim.New(h.Cfg.Sim)
	var b strings.Builder
	for _, sc := range []sim.Scheme{sim.SchemeFAVOS, sim.SchemeVRDANNSerial, sim.SchemeVRDANNParallel} {
		rep, tr := s.RunTraced(sc, w)
		fmt.Fprintf(&b, "%s (%.1f fps, %d switches):\n", sc, rep.FPS(), rep.Switches)
		tr.Render(&b, 100)
		b.WriteString("\n")
	}
	return b.String(), nil
}

// AblationInt8 measures the accuracy cost of deploying NN-S on the int8
// execution tier, which is how the modeled NPU (Table II) executes: the
// trained network is compiled with activation grids calibrated on training
// sandwiches, and the pipeline itself runs it (one Clone per suite worker —
// the compiled network owns scratch). Returns suite-average (F, J) for FP32
// and INT8 inference.
func (h *Harness) AblationInt8() (fp32F, fp32J, int8F, int8J float64, err error) {
	nns, err := h.NNS()
	if err != nil {
		return 0, 0, 0, 0, err
	}
	calib, err := h.calibrationSandwiches(4)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	q, err := nn.NewQuantRefineNet(nns, calib)
	if err != nil {
		return 0, 0, 0, 0, err
	}

	suite := h.Suite()
	type acc struct{ ff, fj, qf, qj float64 }
	rows := make([]acc, len(suite))
	err = h.forEach(len(suite), func(i int) error {
		v := suite[i]
		res, err := h.RunVRDANNNet(v, h.Cfg.Enc, nns.Clone())
		if err != nil {
			return err
		}
		rows[i].ff, rows[i].fj = ScoreMasks(res.Masks, v)
		st, err := h.StreamFor(v, h.Cfg.Enc)
		if err != nil {
			return err
		}
		p := &core.Pipeline{NNL: h.nnlFor(v, "NN-L(FAVOS)", h.Cfg.FAVOSNoise, 3), Quant: q.Clone(), Refine: true, Workers: h.Cfg.PipelineWorkers}
		qres, err := p.RunSegmentation(st.Data)
		if err != nil {
			return err
		}
		rows[i].qf, rows[i].qj = ScoreMasks(qres.Masks, v)
		return nil
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	n := float64(len(suite))
	for _, r := range rows {
		fp32F += r.ff / n
		fp32J += r.fj / n
		int8F += r.qf / n
		int8J += r.qj / n
	}
	return fp32F, fp32J, int8F, int8J, nil
}

// calibrationSandwiches builds n representative NN-S inputs from the
// training sequences for INT8 activation calibration.
func (h *Harness) calibrationSandwiches(n int) ([]*tensor.Tensor, error) {
	train := video.MakeTrainingSet(h.Cfg.W, h.Cfg.H, 8)
	var out []*tensor.Tensor
	for _, v := range train {
		if len(out) >= n {
			break
		}
		st, err := h.StreamFor(v, h.Cfg.Enc)
		if err != nil {
			return nil, err
		}
		dec, err := codecDecodeSide(st.Data)
		if err != nil {
			return nil, err
		}
		segs := map[int]*video.Mask{}
		for d, ty := range dec.Types {
			if ty.IsAnchor() {
				segs[d] = v.Masks[d]
			}
		}
		for d, ty := range dec.Types {
			if ty != codec.BFrame || len(out) >= n {
				continue
			}
			rec, err := segment.Reconstruct(dec.Infos[d], segs, dec.W, dec.H, dec.Cfg.BlockSize)
			if err != nil {
				return nil, err
			}
			prev, next := core.FlankingAnchors(dec.Types, segs, d)
			out = append(out, segment.Sandwich(prev, rec, next))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: no calibration sandwiches available")
	}
	return out, nil
}

func codecDecodeSide(data []byte) (*codec.DecodeResult, error) {
	return codec.Decode(data, codec.DecodeSideInfo)
}

// RealtimeRow is one scheme's live-camera behaviour at a 25 fps source.
type RealtimeRow struct {
	Scheme       sim.Scheme
	AvgLatencyMS float64
	P99LatencyMS float64
	MissPct      float64
	// SustainedFPS is the suite-median sustainable source rate; MinFPS is
	// the worst sequence's (low-B-ratio content caps VR-DANN's benefit).
	SustainedFPS float64
	MinFPS       float64
}

// Realtime evaluates each scheme against a 25 fps camera on the suite and
// probes the sustained frame rate — the "real-time video recognition"
// claim of the paper's title, measured end to end.
func (h *Harness) Realtime() ([]RealtimeRow, error) {
	s := sim.New(h.Cfg.Sim)
	schemes := []sim.Scheme{sim.SchemeFAVOS, sim.SchemeDFF, sim.SchemeVRDANNSerial, sim.SchemeVRDANNParallel}
	candidates := []float64{10, 13, 16, 20, 25, 30, 35, 40, 50}
	var out []RealtimeRow
	for _, sc := range schemes {
		row := RealtimeRow{Scheme: sc}
		var lat, p99 float64
		var sustained []float64
		misses, frames := 0, 0
		for _, v := range h.Suite() {
			w, err := h.workloadFor(v)
			if err != nil {
				return nil, err
			}
			rep := s.RunRealtime(sc, w, 25)
			lat += rep.AvgLatencyNS
			p99 += rep.P99LatencyNS
			misses += rep.DeadlineMisses
			frames += len(w.Frames)
			sustained = append(sustained, s.SustainedFPS(sc, w, candidates))
		}
		sort.Float64s(sustained)
		row.MinFPS = sustained[0]
		row.SustainedFPS = sustained[len(sustained)/2]
		n := float64(len(h.Suite()))
		row.AvgLatencyMS = lat / n / 1e6
		row.P99LatencyMS = p99 / n / 1e6
		row.MissPct = 100 * float64(misses) / float64(frames)
		out = append(out, row)
	}
	return out, nil
}

// DSERow is one design point of the NPU/memory design-space exploration.
type DSERow struct {
	PeakTOPS   float64
	BandwidthX float64 // DRAM bandwidth relative to the DDR3 baseline
	FavosFPS   float64
	VrdannFPS  float64
	Speedup    float64 // VR-DANN-parallel over FAVOS at this design point
}

// DSE sweeps NPU peak compute and DRAM bandwidth around the Table II
// design point and reports how VR-DANN's advantage shifts: weaker NPUs
// amplify the benefit of skipping NN-L (compute-bound), while at very high
// compute the decoder and fixed costs start to bound both schemes.
func (h *Harness) DSE() ([]DSERow, error) {
	var out []DSERow
	for _, tops := range []float64{4, 8, 16, 32, 64} {
		for _, bwx := range []float64{0.5, 1, 2} {
			p := h.Cfg.Sim
			p.NPU.PeakTOPS = tops
			// Scale bandwidth by shortening the burst transfer time.
			p.DRAM.TBurst = int(float64(p.DRAM.TBurst)/bwx + 0.5)
			if p.DRAM.TBurst < 1 {
				p.DRAM.TBurst = 1
			}
			s := sim.New(p)
			var favNS, vrdNS float64
			frames := 0
			for _, v := range h.Suite() {
				w, err := h.workloadFor(v)
				if err != nil {
					return nil, err
				}
				frames += len(w.Frames)
				favNS += s.Run(sim.SchemeFAVOS, w).TotalNS
				vrdNS += s.Run(sim.SchemeVRDANNParallel, w).TotalNS
			}
			out = append(out, DSERow{
				PeakTOPS:   tops,
				BandwidthX: bwx,
				FavosFPS:   float64(frames) / (favNS * 1e-9),
				VrdannFPS:  float64(frames) / (vrdNS * 1e-9),
				Speedup:    favNS / vrdNS,
			})
		}
	}
	return out, nil
}

// EnergyRow is one scheme's per-unit energy, in millijoules over the suite.
type EnergyRow struct {
	Scheme                        sim.Scheme
	NPU, DRAM, Dec, Agent, Static float64
	Total                         float64
}

// EnergyBreakdown splits each scheme's suite energy by unit, showing where
// VR-DANN's savings come from (NN ops and raw-frame traffic) and what does
// not shrink (decoder, static power).
func (h *Harness) EnergyBreakdown() ([]EnergyRow, error) {
	s := sim.New(h.Cfg.Sim)
	var out []EnergyRow
	for _, sc := range fig13Schemes {
		row := EnergyRow{Scheme: sc}
		for _, v := range h.Suite() {
			w, err := h.workloadFor(v)
			if err != nil {
				return nil, err
			}
			r := s.Run(sc, w)
			row.NPU += r.Energy.NPUPJ / 1e9
			row.DRAM += r.Energy.DRAMPJ / 1e9
			row.Dec += r.Energy.DecPJ / 1e9
			row.Agent += r.Energy.AgentPJ / 1e9
			row.Static += r.Energy.StaticPJ / 1e9
		}
		row.Total = row.NPU + row.DRAM + row.Dec + row.Agent + row.Static
		out = append(out, row)
	}
	return out, nil
}
