//! Order statistics and the seeded draws the workloads are built from.

use std::collections::HashMap;

/// Samples that must lie beyond a percentile before it may be reported:
/// with fewer, the "percentile" is just one of the largest samples.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-quantile (`0 < p < 1`) of `sorted`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it. So p50 needs 20
/// samples, p90 needs 100 and p99 needs 1,000.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Each value replaced by the smallest value with the same key. For
/// requests that repeat the same work, the fastest repeat is a
/// request's cost without interference from other work on the host.
pub fn fastest_by_key(values: &[f64], keys: &[usize]) -> Vec<f64> {
    let mut fastest: HashMap<usize, f64> = HashMap::new();
    for (&v, &k) in values.iter().zip(keys) {
        fastest.entry(k).and_modify(|f| *f = f.min(v)).or_insert(v);
    }
    keys.iter().map(|k| fastest[k]).collect()
}

/// Sorts a copy of `values` (total order; NaN never occurs in timings).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so a
/// spread computed here matches one computed from the printed values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// SplitMix64: a tiny seeded generator owned by the benchmark, so its
/// inputs do not move when the program's own random-number code does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s = 1) traffic over ranks `0..n` in blocks: each block of
/// `len` requests holds rank `r` in exact proportion to `1 / (r + 1)`
/// (largest-remainder rounding), in a seeded order. Exact quotas keep
/// the request mix, and so the latency distribution, the same from seed
/// to seed; random draws moved the p90 of an enumerate-and-serve Zipf
/// workload by a third between seeds.
#[derive(Debug, Clone)]
pub struct ZipfBlocks {
    quota: Vec<usize>,
}

impl ZipfBlocks {
    pub fn new(n: usize, len: usize) -> ZipfBlocks {
        assert!(n > 0, "Zipf needs at least one rank");
        let harmonic: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let exact: Vec<f64> = (1..=n).map(|r| len as f64 / (r as f64 * harmonic)).collect();
        let mut quota: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..n).collect();
        by_remainder.sort_by(|&a, &b| {
            (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor()))
        });
        let short = len - quota.iter().sum::<usize>();
        for &r in &by_remainder[..short] {
            quota[r] += 1;
        }
        ZipfBlocks { quota }
    }

    /// The next block: every rank its quota of times, shuffled.
    pub fn block(&self, rng: &mut Rng) -> Vec<usize> {
        let mut block: Vec<usize> =
            self.quota.iter().enumerate().flat_map(|(r, &q)| std::iter::repeat_n(r, q)).collect();
        rng.shuffle(&mut block);
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v[..99], 0.9), None, "99 samples leave 9 beyond p90");
        assert_eq!(percentile(&v, 0.99), None, "p99 needs 1,000 samples");
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.99), Some(990.0));
        assert_eq!(percentile(&w[..999], 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn fastest_by_key_takes_each_keys_minimum() {
        let v = [5.0, 3.0, 10.0, 4.0, 7.0];
        assert_eq!(fastest_by_key(&v, &[0, 0, 1, 1, 2]), [3.0, 3.0, 4.0, 4.0, 7.0]);
        assert_eq!(fastest_by_key(&v, &[9, 9, 9, 9, 9]), [3.0; 5]);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn zipf_blocks_hold_exact_quotas_in_seeded_order() {
        let z = ZipfBlocks::new(21, 100);
        let block = |seed| z.block(&mut Rng::new(seed));
        assert_eq!(block(7), block(7));
        assert_ne!(block(7), block(8));
        let b = block(7);
        assert_eq!(b.len(), 100);
        let count = |r| b.iter().filter(|&&x| x == r).count();
        // 100 / H(21) = 27.4 requests for rank 0; 1.3 for rank 20.
        assert_eq!(count(0), 27);
        assert_eq!(count(1), 14);
        assert_eq!(count(20), 1);
        assert!((0..20).all(|r| count(r) >= count(r + 1)));
        let sorted = |mut v: Vec<usize>| {
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(block(7)), sorted(block(8)), "same mix, another order");
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..50).collect();
        let mut b = a.clone();
        Rng::new(3).shuffle(&mut a);
        Rng::new(3).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted_a = a.clone();
        sorted_a.sort_unstable();
        assert_eq!(sorted_a, (0..50).collect::<Vec<_>>());
        assert_ne!(a, (0..50).collect::<Vec<_>>());
    }
}
