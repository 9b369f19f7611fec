//! Estimators: nearest-rank percentiles with their sample counts, and a
//! seeded generator for workload inputs.
//!
//! Every percentile the benchmark reports is one of the measured samples
//! (nearest rank, no interpolation, no resampling), and carries the number
//! of samples it was taken from.

/// A percentile of a sample set, with the count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank (0 for an empty set).
    pub value: f64,
    /// Number of samples the percentile was taken from.
    pub n: usize,
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`: the
/// smallest sample such that at least `p`% of the samples are at or below
/// it. Sorts `samples` in place.
pub fn percentile(samples: &mut [f64], p: f64) -> Percentile {
    assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
    let n = samples.len();
    if n == 0 {
        return Percentile { value: 0.0, n };
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    Percentile {
        value: samples[rank.min(n) - 1],
        n,
    }
}

/// The nearest-rank median of `samples` (sorts in place).
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0).value
}

/// SplitMix64: a tiny, fast, seedable generator. Workload inputs are a
/// pure function of the `--seed` argument through this type.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream derived from `seed` and a stream label, so
    /// that adding draws to one stream never shifts another.
    pub fn derive(seed: u64, stream: u64) -> Self {
        let mut mix = Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        Self(mix.next_u64())
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A Zipf(1) distribution over `0..n`: rank `k` is drawn with probability
/// proportional to `1 / (k + 1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n > 0` ranks.
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / (k + 1) as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_report_their_sample_count() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(
            percentile(&mut v, 50.0),
            Percentile {
                value: 50.0,
                n: 100
            }
        );
        assert_eq!(percentile(&mut v, 90.0).value, 90.0);
        assert_eq!(percentile(&mut v, 99.0).value, 99.0);
        assert_eq!(percentile(&mut v, 100.0).value, 100.0);
        // Nearest rank never interpolates: p50 of four samples is the 2nd.
        let mut w = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut w, 50.0), Percentile { value: 2.0, n: 4 });
        assert_eq!(percentile(&mut w, 75.0).value, 3.0);
        assert_eq!(percentile(&mut w, 76.0).value, 4.0);
        let mut one = vec![7.0];
        assert_eq!(percentile(&mut one, 1.0), Percentile { value: 7.0, n: 1 });
        assert_eq!(percentile(&mut [], 50.0), Percentile { value: 0.0, n: 0 });
    }

    #[test]
    fn rng_streams_are_reproducible_and_independent() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::derive(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::derive(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::derive(7, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(16);
        let mut rng = Rng::new(3);
        let mut counts = [0usize; 16];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[15]);
        assert!(counts.iter().all(|&c| c > 0));
    }
}
