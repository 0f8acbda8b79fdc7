package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/tensor"
)

// modelFile is the on-disk representation of a trained model.
type modelFile struct {
	Cfg       Config
	BaselineW []float64
	BaselineP []float64
	Params    []savedMatrix
}

type savedMatrix struct {
	Rows, Cols int
	Data       []float64
}

// Save writes the model's configuration, baseline, and parameters.
func (m *Model) Save(w io.Writer) error {
	mf := modelFile{Cfg: m.Cfg}
	if m.Baseline != nil {
		mf.BaselineW = m.Baseline.W
		mf.BaselineP = m.Baseline.P
	}
	for _, p := range m.params {
		mf.Params = append(mf.Params, savedMatrix{p.Data.Rows, p.Data.Cols, p.Data.Data})
	}
	return gob.NewEncoder(w).Encode(&mf)
}

// Load reads a model saved by Save, rebinding it to the given dataset
// (which must have the same entity counts and feature dimensions).
func Load(r io.Reader, d *dataset.Dataset) (*Model, error) {
	var mf modelFile
	if err := gob.NewDecoder(r).Decode(&mf); err != nil {
		return nil, fmt.Errorf("core: decode model: %w", err)
	}
	// The file arrives from disk or the wire. Every shape its config
	// implies must match the file's declared shape and payload before
	// NewModel allocates it: a hostile width must error, not panic in
	// make or allocate gigabytes, and a short payload must error, not
	// panic in FromSlice.
	l, err := newLayout(mf.Cfg, d)
	if err != nil {
		return nil, err
	}
	if len(mf.Params) != len(l.shapes) {
		return nil, fmt.Errorf("core: model has %d parameter tensors, file has %d",
			len(l.shapes), len(mf.Params))
	}
	for i, sp := range mf.Params {
		if sh := l.shapes[i]; sh[0] != sp.Rows || sh[1] != sp.Cols {
			return nil, fmt.Errorf("core: parameter %d shape %dx%d, file has %dx%d",
				i, sh[0], sh[1], sp.Rows, sp.Cols)
		}
		if len(sp.Data) != sp.Rows*sp.Cols {
			return nil, fmt.Errorf("core: parameter %d has %d values for %dx%d",
				i, len(sp.Data), sp.Rows, sp.Cols)
		}
	}
	m, err := NewModel(mf.Cfg, d)
	if err != nil {
		return nil, err
	}
	for i, sp := range mf.Params {
		m.params[i].Data.CopyFrom(tensor.FromSlice(sp.Rows, sp.Cols, sp.Data))
	}
	if mf.BaselineW != nil {
		if len(mf.BaselineW) != d.NumWorkloads() || len(mf.BaselineP) != d.NumPlatforms() {
			return nil, fmt.Errorf("core: baseline sized %dx%d for a %dx%d dataset",
				len(mf.BaselineW), len(mf.BaselineP), d.NumWorkloads(), d.NumPlatforms())
		}
		m.Baseline = &LinearBaseline{W: mf.BaselineW, P: mf.BaselineP}
	}
	m.SyncEmbeddings()
	return m, nil
}
