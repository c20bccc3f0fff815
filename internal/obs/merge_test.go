package obs

import "testing"

// TestHistogramMergeBucketAlignment is the mergeability contract: observing
// a value set split across two histograms and merging must equal observing
// the whole set into one — bucket for bucket, plus Count/Sum/Max.
func TestHistogramMergeBucketAlignment(t *testing.T) {
	vals := []int64{0, 1, 2, 3, 7, 8, 100, 1023, 1024, 1 << 20, 1 << 40, 3}
	var whole, a, b Histogram
	for i, v := range vals {
		whole.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(&b)
	if a != whole {
		t.Fatalf("merged halves != whole:\nmerged %+v\nwhole  %+v", a, whole)
	}
}

func TestHistogramMergeMaxAndNil(t *testing.T) {
	var a, b Histogram
	a.Observe(5)
	b.Observe(500)
	a.Merge(&b)
	if a.Max != 500 {
		t.Fatalf("Max = %d, want 500", a.Max)
	}
	if a.Count != 2 || a.Sum != 505 {
		t.Fatalf("Count/Sum = %d/%d, want 2/505", a.Count, a.Sum)
	}
	before := a
	a.Merge(nil)
	if a != before {
		t.Fatal("Merge(nil) changed the histogram")
	}
}

// TestHistogramMergeEmpty checks the identity element: merging an empty
// histogram changes nothing, and merging into an empty histogram copies.
func TestHistogramMergeEmpty(t *testing.T) {
	var a, empty Histogram
	a.Observe(42)
	want := a
	a.Merge(&empty)
	if a != want {
		t.Fatal("merging an empty histogram changed the receiver")
	}
	var dst Histogram
	dst.Merge(&a)
	if dst != a {
		t.Fatal("merging into an empty histogram did not copy it")
	}
}

func TestHistogramMergeQuantiles(t *testing.T) {
	// Quantiles over a merged histogram must match the union distribution's.
	var union, lo, hi Histogram
	for i := int64(1); i <= 1000; i++ {
		union.Observe(i)
		if i <= 500 {
			lo.Observe(i)
		} else {
			hi.Observe(i)
		}
	}
	lo.Merge(&hi)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got, want := lo.Quantile(q), union.Quantile(q); got != want {
			t.Fatalf("Quantile(%v) = %d after merge, want %d", q, got, want)
		}
	}
}
