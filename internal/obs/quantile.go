package obs

// Quantile estimation over the log2 bucket layout. The SLO subsystem
// (internal/slo) computes per-tenant latency percentiles from these
// histograms, and the analyzer math that used to approximate quantiles
// ad hoc routes through the same estimator so every caller agrees on
// the interpolation rule.

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1) of the
// observations recorded so far, interpolating linearly inside the log2
// bucket that contains the target rank — the same estimate Prometheus'
// histogram_quantile computes from the cumulative _bucket series. With
// no observations it returns 0; q is clamped into [0, 1]. The estimate
// lands in the same log2 bucket as the exact order statistic, so it is
// within a factor of two of the true quantile (exact for values ≤ 1).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	var counts [HistogramBuckets + 1]uint64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
	}
	return BucketsQuantile(counts[:], q)
}

// BucketsQuantile is the quantile estimator over a plain bucket-count
// array laid out by BucketIndex: counts[i] observations in bucket i.
// It is exported for single-writer stages (netsim's port series,
// internal/slo) that count buckets locally on the data path and only
// publish at sync points — they get the exact same estimate a Histogram
// would give.
// Counts beyond the bucket array are ignored; an all-zero array yields 0.
func BucketsQuantile(counts []uint64, q float64) float64 {
	if len(counts) > HistogramBuckets+1 {
		counts = counts[:HistogramBuckets+1]
	}
	var total uint64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// The target rank: the smallest cumulative count that covers the
	// q-fraction of observations. Clamping to ≥ 1 makes q = 0 the
	// minimum (the first non-empty bucket) rather than an empty prefix.
	target := q * float64(total)
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		prev := cum
		cum += n
		if float64(cum) < target {
			continue
		}
		if i >= HistogramBuckets {
			// Overflow bucket: no finite upper edge to interpolate
			// toward, so report its lower edge (Prometheus does the
			// same for +Inf).
			return BucketUpperBound(HistogramBuckets - 1)
		}
		lo := bucketLowerBound(i)
		hi := BucketUpperBound(i)
		return lo + (hi-lo)*(target-float64(prev))/float64(n)
	}
	// Unreachable: cum == total ≥ target after the loop.
	return BucketUpperBound(HistogramBuckets - 1)
}

// bucketLowerBound is bucket i's exclusive lower bound (0 for bucket 0,
// which absorbs every observation ≤ 1).
func bucketLowerBound(i int) float64 {
	if i <= 0 {
		return 0
	}
	return float64(uint64(1) << uint(i-1))
}
