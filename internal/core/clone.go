package core

import (
	"fmt"

	"repro/internal/dataset"
)

// compatible reports whether d can replace old as a model's dataset:
// same entity counts and the same feature-matrix shapes.
func compatible(old, d *dataset.Dataset) error {
	if d.NumWorkloads() != old.NumWorkloads() || d.NumPlatforms() != old.NumPlatforms() {
		return fmt.Errorf("core: dataset has %dx%d entities, model was built for %dx%d",
			d.NumWorkloads(), d.NumPlatforms(), old.NumWorkloads(), old.NumPlatforms())
	}
	if (d.WorkloadFeatures == nil) != (old.WorkloadFeatures == nil) ||
		(d.WorkloadFeatures != nil && d.WorkloadFeatures.Cols != old.WorkloadFeatures.Cols) {
		return fmt.Errorf("core: workload feature shape mismatch")
	}
	if (d.PlatformFeatures == nil) != (old.PlatformFeatures == nil) ||
		(d.PlatformFeatures != nil && d.PlatformFeatures.Cols != old.PlatformFeatures.Cols) {
		return fmt.Errorf("core: platform feature shape mismatch")
	}
	return nil
}

// Clone returns a deep copy of the model bound to dataset d (pass nil to
// keep the current dataset). The copy shares nothing mutable with the
// receiver: parameters, the baseline, and the inference embedding caches
// are all private, so the clone can be fine-tuned (OnlineUpdate) while the
// original keeps serving reads — the building block of the serving layer's
// copy-on-write snapshot swap.
//
// d must have the same entities and entity features as the model's
// current dataset (appending observations to a CloneAppend'ed dataset
// satisfies this). The inference caches — both towers' embeddings and the
// interference tables — are copied as the receiver's last SyncEmbeddings
// left them, not recomputed, so the clone predicts bitwise identically to
// the receiver and a fine-tune (OnlineUpdate) that resyncs them anyway
// pays for one sync, not two.
func (m *Model) Clone(d *dataset.Dataset) (*Model, error) {
	if d == nil {
		d = m.data
	} else if err := compatible(m.data, d); err != nil {
		return nil, err
	}
	c, err := NewModel(m.Cfg, d)
	if err != nil {
		return nil, err
	}
	for i, p := range m.params {
		c.params[i].Data.CopyFrom(p.Data)
	}
	if m.Baseline != nil {
		c.Baseline = &LinearBaseline{
			W: append([]float64(nil), m.Baseline.W...),
			P: append([]float64(nil), m.Baseline.P...),
		}
	}
	if m.wEmb != nil {
		c.wEmb, c.pEmb = m.wEmb.Clone(), m.pEmb.Clone()
	}
	if m.tables != nil {
		t := *m.tables
		t.data = append([]float64(nil), t.data...)
		c.tables = &t
	}
	return c, nil
}
