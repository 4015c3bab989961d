package core

import (
	"math"
	"math/rand"
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

// TestUpdateValueMatchesFullSortReference holds the lazy top-of-heap kernel
// to two references that read the whole order. Weights on a 1/64 grid sum
// exactly in any order, so ties (whose pop order the heap does not specify)
// cannot excuse a differing bit.
func TestUpdateValueMatchesFullSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	grid := func() float64 { return float64(rng.Intn(640)) / 64 }
	for _, d := range []int{0, 1, 2, 3, 7, 49, 500} {
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
			got := UpdateValue(bs, w, make([]int, 0, d))
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

// TestUpdateValueGrowsShortScratch: a scratch too small for the degree costs
// an allocation, never a wrong answer or a panic.
func TestUpdateValueGrowsShortScratch(t *testing.T) {
	bs := []float64{5, 1, 4, 2, 3}
	w := []float64{1, 1, 1, 1, 1}
	if got, want := UpdateValue(bs, w, nil), refUpdateByDefinition(bs, w); got != want {
		t.Fatalf("nil scratch: %v, want %v", got, want)
	}
}
