//! Order statistics over small samples, and the benchmark-local
//! latency histogram.

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them — the rule the driver judges spreads by. Needs at
/// least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// What one caller records in one slice of the window: the same 128
/// linear sub-buckets per power of two as [`LatencyHist`] (a value is
/// off by at most 1/128, < 1%), but only between 1 us and 16.8 ms —
/// anything outside counts as the nearer edge — and with 16-bit counts,
/// so a slice costs 3.5 KB and a window of 140 slices does not bury the
/// service's few megabytes under the benchmark's own in `peak_rss_mb`.
/// Recording is a clamp, two shifts and an increment and never
/// allocates, which keeps the timed window allocation-free on the
/// benchmark's side.
pub struct SliceHist {
    counts: Box<[u16; SliceHist::BUCKETS]>,
}

impl SliceHist {
    const LO_EXP: u32 = 10;
    const HI_EXP: u32 = 24;
    const BUCKETS: usize = ((Self::HI_EXP - Self::LO_EXP) as usize) << LatencyHist::SUB_BITS;

    pub fn new() -> Self {
        SliceHist {
            counts: Box::new([0; Self::BUCKETS]),
        }
    }

    #[inline]
    fn index(ns: u64) -> usize {
        let v = ns.clamp(1 << Self::LO_EXP, (1 << Self::HI_EXP) - 1);
        let exp = 63 - v.leading_zeros();
        let sub = (v >> (exp - LatencyHist::SUB_BITS)) & (LatencyHist::SUB - 1);
        (((exp - Self::LO_EXP) as u64) << LatencyHist::SUB_BITS | sub) as usize
    }

    /// Lower edge of bucket `i`.
    fn lower_edge(i: usize) -> u64 {
        let exp = Self::LO_EXP + (i >> LatencyHist::SUB_BITS) as u32;
        let sub = i as u64 & (LatencyHist::SUB - 1);
        (LatencyHist::SUB + sub) << (exp - LatencyHist::SUB_BITS)
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        let count = &mut self.counts[Self::index(ns)];
        *count = count.saturating_add(1);
    }
}

/// Fixed-size log-linear histogram of nanosecond latencies: 128 linear
/// sub-buckets per power of two over the whole `u64` range. The merged
/// form: callers record into [`SliceHist`]s, which are added up here.
pub struct LatencyHist {
    counts: Box<[u32; LatencyHist::BUCKETS]>,
    total: u64,
}

impl LatencyHist {
    const SUB_BITS: u32 = 7;
    const SUB: u64 = 1 << Self::SUB_BITS;
    const BUCKETS: usize = ((64 - Self::SUB_BITS + 1) as usize) << Self::SUB_BITS;

    pub fn new() -> Self {
        LatencyHist {
            counts: Box::new([0; Self::BUCKETS]),
            total: 0,
        }
    }

    #[inline]
    fn index(value: u64) -> usize {
        if value < Self::SUB {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros();
        let shift = exp - Self::SUB_BITS;
        // `value >> shift` is in [SUB, 2*SUB): group (shift + 1), sub-bucket below.
        (((shift + 1) as u64) << Self::SUB_BITS | ((value >> shift) - Self::SUB)) as usize
    }

    /// Lower edge and width of bucket `i`.
    fn bounds(i: usize) -> (u64, u64) {
        let group = (i >> Self::SUB_BITS) as u32;
        let sub = i as u64 & (Self::SUB - 1);
        if group == 0 {
            (sub, 1)
        } else {
            ((Self::SUB + sub) << (group - 1), 1 << (group - 1))
        }
    }

    #[cfg(test)]
    fn record(&mut self, value: u64) {
        self.counts[Self::index(value)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    pub fn merge(&mut self, other: &LatencyHist) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += *theirs;
        }
        self.total += other.total;
    }

    /// Adds a slice's counts; its buckets are this histogram's own, so
    /// nothing is lost. `false` when a count had saturated: the slice
    /// was too long for 16 bits and its quantiles cannot be trusted.
    #[must_use]
    pub fn absorb(&mut self, slice: &SliceHist) -> bool {
        let mut exact = true;
        for (i, &c) in slice.counts.iter().enumerate().filter(|(_, &c)| c > 0) {
            self.counts[Self::index(SliceHist::lower_edge(i))] += u32::from(c);
            self.total += u64::from(c);
            exact &= c < u16::MAX;
        }
        exact
    }

    /// Value at quantile `q`, interpolated by rank inside its bucket;
    /// `None` when nothing was recorded.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if c > 0 && seen + c >= rank {
                let (lo, width) = Self::bounds(i);
                let within = (rank - seen) as f64 - 0.5;
                return Some(lo as f64 + width as f64 * within / c as f64);
            }
            seen += c;
        }
        unreachable!("rank {rank} beyond recorded count {}", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
    }

    #[test]
    fn histogram_error_stays_under_one_percent() {
        let mut h = LatencyHist::new();
        for v in [0u64, 1, 127, 128, 129, 1_000, 93_417, 10_000_000, u64::MAX] {
            let (lo, width) = LatencyHist::bounds(LatencyHist::index(v));
            assert!(lo <= v && v - lo < width, "{v} outside [{lo}, +{width})");
            assert!(width as f64 <= (v.max(1) as f64) / 128.0 + 1.0);
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        let mut one = LatencyHist::new();
        (0..1000).for_each(|_| one.record(93_417));
        let p50 = one.quantile(0.5).unwrap();
        assert!((p50 - 93_417.0).abs() / 93_417.0 < 0.01, "p50 {p50}");
    }

    #[test]
    fn slice_buckets_are_the_merged_histograms_own() {
        let values = [0u64, 999, 1_024, 1_025, 16_400, 93_417, 16_777_215, 1 << 40];
        let (mut slice, mut direct) = (SliceHist::new(), LatencyHist::new());
        for v in values {
            slice.record(v);
            direct.record(v.clamp(1 << SliceHist::LO_EXP, (1 << SliceHist::HI_EXP) - 1));
        }
        let mut merged = LatencyHist::new();
        assert!(merged.absorb(&slice));
        assert_eq!(merged.count(), values.len() as u64);
        assert_eq!(merged.counts, direct.counts);
        let mut full = SliceHist::new();
        (0..70_000).for_each(|_| full.record(5_000));
        assert!(!merged.absorb(&full), "a saturated count is reported");
    }
}
