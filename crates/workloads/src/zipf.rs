//! Zipfian item selection, as used by the YCSB driver (Section VI).

use rand::Rng;

/// A Zipfian distribution over `0..items`, implemented with the
/// Gray/YCSB rejection-free formula so sampling is O(1).
///
/// `theta` is the skew (YCSB default 0.99: a few hot items take most of
/// the traffic; 0 degenerates to uniform).
///
/// # Examples
///
/// ```
/// use bf_workloads::ZipfianGenerator;
/// use rand::SeedableRng;
///
/// let mut zipf = ZipfianGenerator::new(100, 0.99);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut hits_of_head = 0;
/// for _ in 0..1000 {
///     if zipf.sample(&mut rng) < 10 {
///         hits_of_head += 1;
///     }
/// }
/// assert!(hits_of_head > 500, "the head of the distribution is hot");
/// ```
#[derive(Debug, Clone)]
pub struct ZipfianGenerator {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    /// `1 + 0.5^theta`: the scaled draw below which item 1 is picked.
    item1_bound: f64,
}

impl ZipfianGenerator {
    /// Builds a generator over `items` items with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is 0 or `theta` is not in [0, 1).
    pub fn new(items: u64, theta: f64) -> Self {
        assert!(items > 0, "need at least one item");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = Self::zeta(items, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        ZipfianGenerator {
            items,
            theta,
            alpha,
            zetan,
            eta,
            item1_bound: 1.0 + 0.5f64.powf(theta),
        }
    }

    /// Number of items.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// The skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws one item (0 is the hottest).
    pub fn sample<R: Rng>(&mut self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.item1_bound {
            return 1;
        }
        let spread = (self.eta * u - self.eta + 1.0).powf(self.alpha);
        ((self.items as f64) * spread) as u64 % self.items
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact for small n; the standard incremental approximation is
        // unnecessary at the scales the workloads use (≤ a few million).
        let exact_limit = 10_000_000;
        if n <= exact_limit {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=exact_limit)
                .map(|i| 1.0 / (i as f64).powf(theta))
                .sum();
            // Integral tail approximation.
            let tail = ((n as f64).powf(1.0 - theta) - (exact_limit as f64).powf(1.0 - theta))
                / (1.0 - theta);
            head + tail
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_range() {
        let mut zipf = ZipfianGenerator::new(50, 0.99);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(zipf.sample(&mut rng) < 50);
        }
    }

    #[test]
    fn skew_concentrates_mass_at_the_head() {
        let mut zipf = ZipfianGenerator::new(10_000, 0.99);
        let mut rng = StdRng::seed_from_u64(3);
        let mut head = 0u64;
        let trials = 20_000;
        for _ in 0..trials {
            if zipf.sample(&mut rng) < 100 {
                head += 1;
            }
        }
        // The hottest 1% of items should draw well over a third of the
        // traffic at theta = 0.99.
        assert!(head * 3 > trials, "head hits {head}/{trials}");
    }

    #[test]
    fn low_theta_is_flatter() {
        let mut hot = ZipfianGenerator::new(1_000, 0.99);
        let mut flat = ZipfianGenerator::new(1_000, 0.01);
        let mut rng = StdRng::seed_from_u64(5);
        let count_head = |zipf: &mut ZipfianGenerator, rng: &mut StdRng| {
            (0..10_000).filter(|_| zipf.sample(rng) < 10).count()
        };
        let hot_head = count_head(&mut hot, &mut rng);
        let flat_head = count_head(&mut flat, &mut rng);
        assert!(hot_head > flat_head * 3, "{hot_head} vs {flat_head}");
    }

    #[test]
    fn deterministic_under_same_seed() {
        let mut a = ZipfianGenerator::new(100, 0.9);
        let mut b = ZipfianGenerator::new(100, 0.9);
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            assert_eq!(a.sample(&mut rng_a), b.sample(&mut rng_b));
        }
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn theta_one_rejected() {
        let _ = ZipfianGenerator::new(10, 1.0);
    }

    #[test]
    fn single_item_always_zero() {
        let mut zipf = ZipfianGenerator::new(1, 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(zipf.sample(&mut rng), 0);
        }
    }
}
