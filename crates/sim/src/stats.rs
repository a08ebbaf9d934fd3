//! Measurement accumulators: Welford mean/variance, batch-means confidence
//! intervals, and per-channel-class audit counters.

use std::collections::BTreeMap;
use wormsim_topology::graph::ChannelClass;

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with < 2 observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Batch-means estimator: observations are assigned round-robin-free,
/// contiguous batches in arrival order; the batch means are approximately
/// independent, giving a defensible confidence interval for a correlated
/// stream (message latencies are autocorrelated).
#[derive(Debug, Clone)]
pub struct BatchMeans {
    batches: Vec<Welford>,
    per_batch_target: u64,
    current: usize,
    overall: Welford,
}

impl BatchMeans {
    /// `batches` contiguous batches sized for roughly `expected_total`
    /// observations (the final batch absorbs any excess). A count of zero
    /// keeps one batch; with fewer than two there is no interval, and
    /// [`Self::std_error`] is NaN.
    #[must_use]
    pub fn new(batches: u32, expected_total: u64) -> Self {
        let b = batches.max(1) as usize;
        let per = (expected_total / b as u64).max(1);
        Self {
            batches: vec![Welford::new(); b],
            per_batch_target: per,
            current: 0,
            overall: Welford::new(),
        }
    }

    /// Adds one observation in stream order.
    pub fn add(&mut self, x: f64) {
        self.overall.add(x);
        if self.current + 1 < self.batches.len()
            && self.batches[self.current].count() >= self.per_batch_target
        {
            self.current += 1;
        }
        self.batches[self.current].add(x);
    }

    /// Overall mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.overall.mean()
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.overall.count()
    }

    /// Standard error of the mean estimated from batch means.
    #[must_use]
    pub fn std_error(&self) -> f64 {
        let filled: Vec<&Welford> = self.batches.iter().filter(|b| b.count() > 0).collect();
        if filled.len() < 2 {
            return f64::NAN;
        }
        let mut bm = Welford::new();
        for b in &filled {
            bm.add(b.mean());
        }
        bm.std_dev() / (filled.len() as f64).sqrt()
    }

    /// Half-width of the ~95% confidence interval (1.96·SE).
    #[must_use]
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_error()
    }
}

/// Collects a full sample and reports order statistics. Message latencies
/// are bounded populations (window length × injection rate), so keeping the
/// raw sample is cheap and gives exact percentiles instead of sketch
/// approximations.
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// Empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    // Latency observations are finite by construction (cycle counts), so
    // `partial_cmp` is total here.
    #[allow(clippy::expect_used)]
    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
            self.sorted = true;
        }
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) by nearest-rank; NaN when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.samples.len() as f64).ceil() as usize).clamp(1, self.samples.len());
        self.samples[rank - 1]
    }

    /// Largest observation (NaN when empty).
    pub fn max(&mut self) -> f64 {
        self.quantile(1.0)
    }
}

/// Aggregated per-channel-class measurements over the measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStats {
    /// The channel class.
    pub class: ChannelClass,
    /// Number of physical channels in the class.
    pub channels: usize,
    /// Worms granted a channel of this class during the window.
    pub grants: u64,
    /// Mean per-channel arrival (grant) rate: grants / (cycles · channels).
    pub lambda: f64,
    /// Mean channel hold (service) time per worm, in cycles.
    pub mean_service: f64,
    /// Mean wait from station request to grant, in cycles. For injection
    /// channels this is measured from message generation (source-queue wait,
    /// the paper's `W₀,₁`).
    pub mean_wait: f64,
    /// Fraction of channel-cycles the class's channels were held.
    pub utilization: f64,
}

/// Builder for [`ClassStats`], indexed densely by class.
#[derive(Debug)]
pub struct ClassAudit {
    classes: Vec<ChannelClass>,
    index: BTreeMap<ChannelClass, usize>,
    channel_counts: Vec<usize>,
    grants: Vec<u64>,
    service: Vec<Welford>,
    wait: Vec<Welford>,
    busy_cycles: Vec<u64>,
}

impl ClassAudit {
    /// Initializes from the channel census of a network.
    #[must_use]
    pub fn new(net: &wormsim_topology::graph::ChannelNetwork) -> Self {
        let mut index = BTreeMap::new();
        let mut classes = Vec::new();
        let mut channel_counts = Vec::new();
        for ch in net.channels() {
            let next = index.len();
            let idx = *index.entry(ch.class).or_insert(next);
            if idx == classes.len() {
                classes.push(ch.class);
                channel_counts.push(0);
            }
            channel_counts[idx] += 1;
        }
        let n = classes.len();
        Self {
            classes,
            index,
            channel_counts,
            grants: vec![0; n],
            service: vec![Welford::new(); n],
            wait: vec![Welford::new(); n],
            busy_cycles: vec![0; n],
        }
    }

    /// Dense index of a class.
    #[must_use]
    pub fn class_index(&self, class: ChannelClass) -> Option<usize> {
        self.index.get(&class).copied()
    }

    /// Records a grant (start of service) for a channel of `class`,
    /// waiting `wait` cycles since its request.
    pub fn record_grant(&mut self, class_idx: usize, wait: u64) {
        self.grants[class_idx] += 1;
        self.wait[class_idx].add(wait as f64);
    }

    /// Records a release: the worm held the channel for `hold` cycles.
    pub fn record_release(&mut self, class_idx: usize, hold: u64) {
        self.service[class_idx].add(hold as f64);
        self.busy_cycles[class_idx] += hold;
    }

    /// Finalizes into per-class statistics over a window of `cycles`.
    #[must_use]
    pub fn finish(&self, cycles: u64) -> Vec<ClassStats> {
        self.classes
            .iter()
            .enumerate()
            .map(|(i, &class)| {
                let channels = self.channel_counts[i];
                let denom = (cycles as f64) * channels as f64;
                ClassStats {
                    class,
                    channels,
                    grants: self.grants[i],
                    lambda: if denom > 0.0 {
                        self.grants[i] as f64 / denom
                    } else {
                        0.0
                    },
                    mean_service: self.service[i].mean(),
                    mean_wait: self.wait[i].mean(),
                    utilization: if denom > 0.0 {
                        self.busy_cycles[i] as f64 / denom
                    } else {
                        0.0
                    },
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive_moments() {
        let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut w = Welford::new();
        for &x in &data {
            w.add(x);
        }
        let mean: f64 = data.iter().sum::<f64>() / data.len() as f64;
        let var: f64 =
            data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        assert_eq!(w.count(), 8);
    }

    #[test]
    fn empty_welford_is_zero() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.count(), 0);
    }

    #[test]
    fn batch_means_estimates_iid_error() {
        // For i.i.d. observations the batch-means SE must approximate
        // σ/√n.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let n = 32_000u64;
        let mut bm = BatchMeans::new(16, n);
        for _ in 0..n {
            bm.add(rng.gen::<f64>()); // U(0,1): σ² = 1/12
        }
        assert!((bm.mean() - 0.5).abs() < 0.01);
        let se_expected = (1.0f64 / 12.0).sqrt() / (n as f64).sqrt();
        let se = bm.std_error();
        assert!(
            se > 0.2 * se_expected && se < 5.0 * se_expected,
            "batch SE {se} vs iid {se_expected}"
        );
        assert!((bm.ci95_half_width() - 1.96 * se).abs() < 1e-15);
        assert_eq!(bm.count(), n);
    }

    #[test]
    fn fewer_than_two_batches_give_no_interval() {
        // No second batch is invented: the mean is the plain mean and the
        // batch-means error is undefined, whatever the sample size.
        let n = 1_000u64;
        for batches in [0, 1] {
            let mut bm = BatchMeans::new(batches, n);
            for i in 0..n {
                bm.add(i as f64);
            }
            assert_eq!(bm.count(), n);
            assert_eq!(bm.mean(), 499.5, "batches {batches}");
            assert!(bm.std_error().is_nan(), "batches {batches}");
        }
    }

    #[test]
    fn batch_means_with_few_samples_degrades_gracefully() {
        let mut bm = BatchMeans::new(8, 0);
        bm.add(1.0);
        assert!(bm.std_error().is_nan());
        bm.add(3.0);
        assert!((bm.mean() - 2.0).abs() < 1e-12);
        assert!(bm.std_error().is_finite());
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut p = Percentiles::new();
        for x in [5.0, 1.0, 3.0, 2.0, 4.0] {
            p.add(x);
        }
        assert_eq!(p.count(), 5);
        assert_eq!(p.quantile(0.0), 1.0); // clamped to rank 1
        assert_eq!(p.quantile(0.5), 3.0);
        assert_eq!(p.quantile(0.8), 4.0);
        assert_eq!(p.quantile(0.81), 5.0);
        assert_eq!(p.quantile(1.0), 5.0);
        assert_eq!(p.max(), 5.0);
        // Adding after sorting re-sorts lazily.
        p.add(0.5);
        assert_eq!(p.quantile(0.0), 0.5);
    }

    #[test]
    fn percentiles_empty_is_nan() {
        let mut p = Percentiles::new();
        assert!(p.quantile(0.5).is_nan());
        assert!(p.max().is_nan());
    }

    #[test]
    fn class_audit_aggregates_by_class() {
        use wormsim_topology::bft::{BftParams, ButterflyFatTree};
        let tree = ButterflyFatTree::new(BftParams::paper(16).unwrap());
        let mut audit = ClassAudit::new(tree.network());
        let inj = audit.class_index(ChannelClass::Injection).unwrap();
        let ej = audit.class_index(ChannelClass::Ejection).unwrap();
        assert!(audit.class_index(ChannelClass::Up { from: 1 }).is_some());
        assert!(audit.class_index(ChannelClass::Up { from: 7 }).is_none());
        audit.record_grant(inj, 2);
        audit.record_grant(inj, 4);
        audit.record_release(inj, 16);
        audit.record_grant(ej, 0);
        let stats = audit.finish(100);
        let inj_stats = stats
            .iter()
            .find(|s| s.class == ChannelClass::Injection)
            .unwrap();
        assert_eq!(inj_stats.channels, 16);
        assert_eq!(inj_stats.grants, 2);
        assert!((inj_stats.mean_wait - 3.0).abs() < 1e-12);
        assert!((inj_stats.mean_service - 16.0).abs() < 1e-12);
        assert!((inj_stats.lambda - 2.0 / (100.0 * 16.0)).abs() < 1e-15);
        assert!((inj_stats.utilization - 16.0 / 1600.0).abs() < 1e-15);
    }
}
