package core

// maxTableBytes caps one model's interference tables. A model whose
// tables would be larger keeps none and every path computes its dot
// products per query, as it would without tables. At the default scale
// (48 workloads × 80 platforms, s = 2) the mean model's tables take
// 215 KB and the eight-head quantile model's 1.7 MB.
const maxTableBytes = 64 << 20

// Columns of one table record, for s interference types: w·p, then
// w·v_s⁽ᵗ⁾ for each t, then w·v_g⁽ᵗ⁾ for each t summed in dot's order,
// then w·v_g⁽ᵗ⁾ again summed in dotUnrolled's (= dot32's) order.
func colSus(t int) int       { return 1 + t }
func colMagSeq(s, t int) int { return 1 + s + t }
func colMagUnr(s, t int) int { return 1 + 2*s + t }

// interferenceTables holds every dot product of the residual
//
//	w·p + Σ_t (w·v_s⁽ᵗ⁾) · α(Σ_k w_k·v_g⁽ᵗ⁾)
//
// that depends only on the synced embeddings, one head and one
// (workload, platform) pair: none depends on which interferers a query
// combines. The record of (head h, workload e, platform p) starts at
// ((h·nw + e)·np + p)·stride in data and holds 1 + 3s values (colSus,
// colMagSeq, colMagUnr). A workload's magnitude column serves it as an
// interferer.
//
// The scalar path (PredictResidual) sums with dot and reads w·p, the
// susceptibilities and colMagSeq; the batch fold sums with dotUnrolled,
// whose chain order dot32 shares, and reads colMagUnr. Each path reads
// the values it would have computed, so every output stays bitwise
// identical to the dot code.
type interferenceTables struct {
	nh, nw, np, stride int
	data               []float64
}

// syncTables rebuilds the tables from the synced embeddings, in place
// when the shape is unchanged, or drops them when they would exceed
// capBytes.
func (m *Model) syncTables(capBytes int) {
	r, s := m.Cfg.EmbeddingDim, m.Cfg.InterferenceTypes
	nh, nw, np, stride := m.Cfg.NumHeads(), m.wEmb.Rows, m.pEmb.Rows, 1+3*s
	n := nh * nw * np * stride
	if n > capBytes/8 {
		m.tables = nil
		return
	}
	t := m.tables
	if t == nil || len(t.data) != n {
		t = &interferenceTables{data: make([]float64, n)}
	}
	t.nh, t.nw, t.np, t.stride = nh, nw, np, stride
	i := 0
	for h := 0; h < nh; h++ {
		for e := 0; e < nw; e++ {
			w := m.wEmb.Row(e)[h*r : (h+1)*r]
			for p := 0; p < np; p++ {
				prow := m.pEmb.Row(p)
				rec := t.data[i : i+stride]
				rec[0] = dot(w, prow[:r])
				for k := 0; k < s; k++ {
					vs := prow[r*(1+k) : r*(2+k)]
					vg := prow[r*(1+s+k) : r*(2+s+k)]
					rec[colSus(k)] = dot(w, vs)
					rec[colMagSeq(s, k)] = dot(w, vg)
					rec[colMagUnr(s, k)] = dotUnrolled(w, vg)
				}
				i += stride
			}
		}
	}
	m.tables = t
}

// record returns the record of head h, workload e and platform p. Every
// index is checked: in the flat layout an out-of-range one would
// otherwise read a neighbouring record instead of panicking as the
// embedding rows do.
func (t *interferenceTables) record(h, e, p int) []float64 {
	if uint(h) >= uint(t.nh) || uint(e) >= uint(t.nw) || uint(p) >= uint(t.np) {
		panic("core: head, workload or platform out of range")
	}
	i := ((h*t.nw+e)*t.np + p) * t.stride
	return t.data[i : i+t.stride]
}

// sum returns column c of head h's records (k, p) summed over ks in order
// from zero, as the dot code accumulates its magnitudes.
func (t *interferenceTables) sum(h, p int, ks []int, c int) float64 {
	if uint(h) >= uint(t.nh) || uint(p) >= uint(t.np) {
		panic("core: head or platform out of range")
	}
	base := (h*t.nw*t.np+p)*t.stride + c
	step := t.np * t.stride
	var mag float64
	for _, k := range ks {
		if uint(k) >= uint(t.nw) {
			panic("core: interferer out of range")
		}
		mag += t.data[base+k*step]
	}
	return mag
}

// residualFromTables is PredictResidual over the tables: 1 + s + s·len(ks)
// reads and the dot code's multiply-adds, in its order.
func (m *Model) residualFromTables(w, p int, ks []int, h int) float64 {
	t, s := m.tables, m.Cfg.InterferenceTypes
	rec := t.record(h, w, p)
	pred := rec[0]
	if len(ks) > 0 && m.Cfg.Interference == InterferenceAware && s > 0 {
		for k := 0; k < s; k++ {
			mag := m.activate(t.sum(h, p, ks, colMagSeq(s, k)))
			pred += rec[colSus(k)] * mag
		}
	}
	return pred
}

// activate applies the configured leaky ReLU to a summed magnitude.
func (m *Model) activate(mag float64) float64 {
	if m.Cfg.UseActivation && mag < 0 {
		mag *= m.Cfg.ActivationSlope
	}
	return mag
}
