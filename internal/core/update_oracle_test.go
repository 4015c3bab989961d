package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refUpdateByDefinition is Algorithm 3's value straight from its definition,
// b = max{x : Σ_{b_i ≥ x} w_i ≥ x} = max_i min(b_i, f(b_i)) with
// f(x) = Σ_{b_j ≥ x} w_j, over a fully sorted copy of the values. It shares
// nothing with UpdateValue: no heap, no early exit, no running sum.
func refUpdateByDefinition(bs, w []float64) float64 {
	vals := append([]float64(nil), bs...)
	sort.Float64s(vals)
	best := 0.0
	for _, x := range vals {
		f := 0.0
		for j, b := range bs {
			if b >= x {
				f += w[j]
			}
		}
		if m := math.Min(x, f); m > best {
			best = m
		}
	}
	return best
}

// refUpdateDescending is max_k min(b_(k), S_k) with S_k accumulated in
// descending-b order over a full stable sort — every k visited, no crossing
// test. With distinct values the order, and so every partial sum, is fixed,
// which makes it a bit-exact reference for arbitrary float weights.
func refUpdateDescending(bs, w []float64) float64 {
	idx := make([]int, len(bs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return bs[idx[a]] > bs[idx[b]] })
	best, s := 0.0, 0.0
	for _, i := range idx {
		s += w[i]
		if m := math.Min(bs[i], s); m > best {
			best = m
		}
	}
	return best
}

// TestUpdateValueMatchesFullSortReference holds both kernels — the sorted
// scan up to sortedUpdateMax, the lazy top-of-heap above it, with a degree on
// each side of the cut-off — to two references that read the whole order, and
// checks that neither wrote to its inputs (the asynchronous recompute keeps
// its weights across calls). Weights on a 1/64 grid sum exactly in any order,
// so ties (whose order neither kernel specifies) cannot excuse a differing
// bit.
func TestUpdateValueMatchesFullSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	grid := func() float64 { return float64(rng.Intn(640)) / 64 }
	for _, d := range []int{0, 1, 2, 3, 7, sortedUpdateMax - 1, sortedUpdateMax, sortedUpdateMax + 1, 49, 500} {
		for rep := 0; rep < 200; rep++ {
			bs, w := make([]float64, d), make([]float64, d)
			distinct := true
			switch rep % 5 {
			case 0: // round 0: every neighbor still at +∞
				for i := range bs {
					bs[i], w[i] = math.Inf(1), grid()
				}
				distinct = d < 2
			case 1: // heavy ties, some zero weights
				for i := range bs {
					bs[i], w[i] = float64(rng.Intn(6)), float64(rng.Intn(4))/4
				}
				distinct = false
			case 2: // ties, a few +∞ stragglers, grid weights
				for i := range bs {
					bs[i], w[i] = float64(rng.Intn(40)), grid()
					if rng.Intn(10) == 0 {
						bs[i] = math.Inf(1)
					}
				}
				distinct = false
			case 3: // distinct values, arbitrary float weights: order-sensitive sums
				for i, p := range rng.Perm(d) {
					bs[i], w[i] = float64(p)*0.37+rng.Float64()*0.3, rng.Float64()*3
				}
			default: // distinct values, all-zero or tiny weights
				for i, p := range rng.Perm(d) {
					bs[i], w[i] = float64(p)+0.5, float64(rng.Intn(2))*rng.Float64()*1e-3
				}
			}
			bs0, w0 := slices.Clone(bs), slices.Clone(w)
			got := UpdateValue(bs, w, make([]int, 0, d))
			if !slices.Equal(bs, bs0) || !slices.Equal(w, w0) {
				t.Fatalf("d=%d rep=%d: UpdateValue permuted its inputs", d, rep)
			}
			if distinct {
				if want := refUpdateDescending(bs, w); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("d=%d rep=%d: UpdateValue=%v, descending full-sort reference=%v", d, rep, got, want)
				}
			} else if want := refUpdateByDefinition(bs, w); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("d=%d rep=%d: UpdateValue=%v, definition=%v\nbs=%v\nw=%v", d, rep, got, want, bs, w)
			}
		}
	}
}

// FuzzUpdateValue decodes two bytes per pair, at most 64 pairs: a value (255
// is +∞, anything else k/8) and a weight k/64, zero included. Both are on the
// 1/64 grid, so sums are exact in any order and the kernel must return the
// definition's bits, whichever side of sortedUpdateMax the degree falls, with
// its inputs unchanged.
func FuzzUpdateValue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{255, 64})
	f.Add([]byte{16, 64, 16, 64, 16, 64, 8, 0})
	f.Add([]byte{255, 1, 255, 2, 0, 0, 40, 128, 40, 128, 39, 200})
	f.Add(bytes.Repeat([]byte{24, 64}, sortedUpdateMax+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var bs, w []float64
		for i := 0; i+1 < len(data) && len(bs) < 64; i += 2 {
			b := float64(data[i]) / 8
			if data[i] == 255 {
				b = math.Inf(1)
			}
			bs, w = append(bs, b), append(w, float64(data[i+1])/64)
		}
		bs0, w0 := slices.Clone(bs), slices.Clone(w)
		got, want := UpdateValue(bs, w, nil), refUpdateByDefinition(bs, w)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("UpdateValue = %v, definition %v\nbs=%v\nw=%v", got, want, bs, w)
		}
		if !slices.Equal(bs, bs0) || !slices.Equal(w, w0) {
			t.Fatalf("UpdateValue permuted its inputs:\nbs=%v, was %v\nw=%v, was %v", bs, bs0, w, w0)
		}
	})
}

// TestUpdateValueGrowsShortScratch: a scratch too small for the degree costs
// an allocation, never a wrong answer or a panic.
func TestUpdateValueGrowsShortScratch(t *testing.T) {
	bs := []float64{5, 1, 4, 2, 3}
	w := []float64{1, 1, 1, 1, 1}
	if got, want := UpdateValue(bs, w, nil), refUpdateByDefinition(bs, w); got != want {
		t.Fatalf("nil scratch: %v, want %v", got, want)
	}
}
