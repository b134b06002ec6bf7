package obs

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestBucketEdges pins the bucket scheme: buckets 0..3 are singletons, every
// value lands in a bucket whose [lower, upper) range contains it, and edges
// are contiguous (no gaps, no overlaps).
func TestBucketEdges(t *testing.T) {
	for i := 0; i < NumBuckets; i++ {
		lo, hi := BucketLower(i), BucketUpper(i)
		if lo >= hi {
			t.Fatalf("bucket %d: lower %v >= upper %v", i, lo, hi)
		}
		if i > 0 && BucketUpper(i-1) != lo {
			t.Fatalf("bucket %d: lower %v != previous upper %v (gap or overlap)", i, lo, BucketUpper(i-1))
		}
	}
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 100, 1023, 1024, 1536,
		1 << 20, 3 << 19, 1<<36 - 1} {
		i := bucketIndex(v)
		lo, hi := BucketLower(i), BucketUpper(i)
		if float64(v) < lo || float64(v) >= hi {
			t.Errorf("value %d mapped to bucket %d [%v, %v)", v, i, lo, hi)
		}
	}
	// Out-of-range values clamp rather than panic or wrap.
	if got := bucketIndex(-5); got != 0 {
		t.Errorf("bucketIndex(-5) = %d, want 0", got)
	}
	if got := bucketIndex(1 << 62); got != NumBuckets-1 {
		t.Errorf("bucketIndex(1<<62) = %d, want %d", got, NumBuckets-1)
	}
}

// refQuantile is the exact nearest-rank quantile over a sorted sample,
// using the same rank convention as Snapshot.Quantile.
func refQuantile(sorted []int64, p float64) int64 {
	n := uint64(len(sorted))
	rank := uint64(p*float64(n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// TestQuantileAccuracy records samples from several distributions and checks
// every estimated quantile against a sorted-sample reference: the estimate
// must fall inside the bucket containing the true nearest-rank value, which
// bounds the relative error by that bucket's width (≤ 1/2, and exact below 4).
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	distributions := map[string]func() int64{
		"uniform_small":  func() int64 { return rng.Int63n(100) },
		"uniform_large":  func() int64 { return rng.Int63n(1 << 30) },
		"log_uniform":    func() int64 { return int64(1) << rng.Intn(34) },
		"latency_shaped": func() int64 { return 50_000 + int64(rng.ExpFloat64()*2e6) },
	}
	quantiles := []float64{0, 0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 1}

	for name, draw := range distributions {
		var h Histogram
		samples := make([]int64, 20_000)
		for i := range samples {
			v := draw()
			samples[i] = v
			h.Observe(v)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		s := h.Snapshot()
		if s.Count != uint64(len(samples)) {
			t.Fatalf("%s: snapshot count = %d, want %d", name, s.Count, len(samples))
		}
		for _, p := range quantiles {
			want := refQuantile(samples, p)
			got := s.Quantile(p)
			b := bucketIndex(want)
			lo, hi := BucketLower(b), BucketUpper(b)
			if got < lo || got > hi {
				t.Errorf("%s: q%.3f = %v, true value %d lives in bucket %d [%v, %v)",
					name, p, got, want, b, lo, hi)
			}
			if want < 4 && got != float64(want) {
				t.Errorf("%s: q%.3f = %v, want exactly %d (singleton bucket)", name, p, got, want)
			}
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var empty Snapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty snapshot quantile = %v, want 0", got)
	}
	var h Histogram
	h.Observe(7)
	s := h.Snapshot()
	for _, p := range []float64{-1, 0, 0.5, 1, 2} {
		got := s.Quantile(p)
		if got < BucketLower(bucketIndex(7)) || got > BucketUpper(bucketIndex(7)) {
			t.Errorf("single sample, p=%v: quantile = %v, not in value 7's bucket", p, got)
		}
	}
}

func TestMeanIsExact(t *testing.T) {
	var h Histogram
	var sum int64
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
		sum += v
	}
	s := h.Snapshot()
	want := float64(sum) / 1000
	if got := s.Mean(); got != want {
		t.Errorf("mean = %v, want exactly %v (Sum and Count are true totals)", got, want)
	}
}

// TestConcurrentObserveSnapshot hammers one histogram from many writers while
// a reader snapshots continuously. Run under -race this checks the lock-free
// protocol; the final count checks no observation is lost.
func TestConcurrentObserveSnapshot(t *testing.T) {
	const (
		writers = 8
		perW    = 10_000
	)
	var h Histogram
	stop := make(chan struct{})
	var rd sync.WaitGroup
	rd.Add(1)
	go func() {
		defer rd.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			if s.Count > writers*perW {
				t.Errorf("snapshot count %d exceeds total writes", s.Count)
				return
			}
			_ = s.Quantile(0.99)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perW; i++ {
				h.Observe(rng.Int63n(1 << 30))
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	rd.Wait()
	if s := h.Snapshot(); s.Count != writers*perW {
		t.Errorf("final count = %d, want %d", s.Count, writers*perW)
	}
}

func TestObserveDuration(t *testing.T) {
	var h Histogram
	h.ObserveDuration(1500 * time.Nanosecond)
	h.ObserveSince(time.Now().Add(-time.Millisecond))
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2", s.Count)
	}
	if s.Buckets[bucketIndex(1500)] == 0 {
		t.Error("1.5µs duration not recorded in its bucket")
	}
}

// BenchmarkHistogramRecord is the hot-path cost every instrumented stage
// pays; the acceptance bar is ≲50 ns/op with zero allocations.
func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
