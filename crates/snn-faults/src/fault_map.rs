//! Fault maps: the set of struck locations for one soft-error scenario.

use crate::location::{FaultSite, FaultSpace, RawLocation, WEIGHT_BITS};
use crate::rate::{fault_count, validate_rate};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::{Rng, SeedableRng};

/// A concrete set of fault sites drawn from a [`FaultSpace`] at a given
/// rate — the paper's "fault map" (Fig. 3a shows two of them diverging).
///
/// Generation is deterministic in `(space, rate, seed)`, so a fault map
/// can be regenerated from its metadata.
///
/// # Examples
///
/// ```
/// use snn_faults::location::{FaultDomain, FaultSpace};
/// use snn_faults::fault_map::FaultMap;
///
/// let space = FaultSpace::new(100, 10, FaultDomain::Synapses);
/// let a = FaultMap::generate(&space, 0.01, 7);
/// let b = FaultMap::generate(&space, 0.01, 7);
/// assert_eq!(a.sites(), b.sites());
/// assert_eq!(a.len(), 10); // 100*10 weight cells * 0.01
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMap {
    space: FaultSpace,
    rate: f64,
    seed: u64,
    sites: Vec<FaultSite>,
}

impl FaultMap {
    /// Draws `round(rate × locations)` distinct locations uniformly at
    /// random; each struck weight cell gets one uniformly random bit
    /// position (the paper's "flip the stored bit").
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn generate(space: &FaultSpace, rate: f64, seed: u64) -> Self {
        let rate = validate_rate(rate).expect("fault rate");
        let total = space.total_locations();
        let n = fault_count(rate, total);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut indices: Vec<usize> = sample(&mut rng, total, n).into_vec();
        indices.sort_unstable();
        let sites = indices
            .into_iter()
            .map(|i| match space.location_at(i) {
                RawLocation::WeightCell { row, col } => FaultSite::WeightBit {
                    row,
                    col,
                    bit: rng.gen_range(0..WEIGHT_BITS as u8),
                },
                RawLocation::NeuronOp { neuron, op } => FaultSite::NeuronOp { neuron, op },
            })
            .collect();
        Self {
            space: *space,
            rate,
            seed,
            sites,
        }
    }

    /// An empty fault map (rate 0) for the given space.
    pub fn empty(space: &FaultSpace) -> Self {
        Self {
            space: *space,
            rate: 0.0,
            seed: 0,
            sites: Vec::new(),
        }
    }

    /// The space this map was drawn from.
    pub fn space(&self) -> &FaultSpace {
        &self.space
    }

    /// The fault rate used.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The seed used.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The struck sites (sorted by flat location index).
    pub fn sites(&self) -> &[FaultSite] {
        &self.sites
    }

    /// Number of struck sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the map strikes nothing.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Number of weight-bit sites.
    pub fn n_weight_bits(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| matches!(s, FaultSite::WeightBit { .. }))
            .count()
    }

    /// Number of neuron-operation sites.
    pub fn n_neuron_ops(&self) -> usize {
        self.sites.len() - self.n_weight_bits()
    }

    /// Draws the same number of sites as [`FaultMap::generate`] would at
    /// this `(space, rate)`, but **importance-sampled**: each location's
    /// probability of being struck is proportional to its weight in
    /// `weights`, drawn without replacement. The returned
    /// [`WeightedFaultMap`] carries the log likelihood ratio
    /// `ln p_uniform / p_weighted` of the drawn site *set*, so estimates
    /// over weighted maps can be reweighted back to unbiased
    /// uniform-sampling estimates (see
    /// [`crate::stats::importance_estimate`]).
    ///
    /// Bit positions for struck weight cells are drawn *after* the index
    /// set is sorted — exactly the order [`FaultMap::generate`] uses —
    /// so conditioned on the same site set, both samplers produce the
    /// same bit flips.
    ///
    /// With all weights equal the draw distribution is uniform and the
    /// log likelihood ratio is `0` for every map (up to floating-point
    /// roundoff).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`, if `weights` was built for
    /// a different location count, or if fewer locations have positive
    /// weight than sites need drawing.
    pub fn generate_weighted(
        space: &FaultSpace,
        rate: f64,
        seed: u64,
        weights: &SiteWeights,
    ) -> WeightedFaultMap {
        let rate = validate_rate(rate).expect("fault rate");
        let total = space.total_locations();
        assert_eq!(
            weights.len(),
            total,
            "site weights cover {} locations but the space has {total}",
            weights.len()
        );
        let n = fault_count(rate, total);
        assert!(
            weights.n_positive >= n,
            "only {} locations have positive weight but {n} sites must be drawn",
            weights.n_positive
        );
        let mut rng = StdRng::seed_from_u64(seed);

        // Weighted sampling without replacement via a Fenwick tree over
        // the location weights: draw a point in [0, W), binary-search the
        // prefix sums for the owning location, zero it out, repeat.
        let mut tree = Fenwick::new(&weights.weights);
        let mut log_lr = 0.0;
        let mut indices = Vec::with_capacity(n);
        for i in 0..n {
            let remaining = tree.total();
            let u: f64 = rng.gen_range(0.0..1.0);
            let idx = tree.find(u * remaining);
            let w = tree.value(idx);
            // Sequential-draw likelihood ratio: uniform without
            // replacement picks any unseen site with probability
            // 1/(total-i); the weighted sampler picked this one with
            // probability w/remaining.
            log_lr += (remaining / (w * (total - i) as f64)).ln();
            tree.zero(idx);
            indices.push(idx);
        }
        indices.sort_unstable();
        let sites = indices
            .into_iter()
            .map(|i| match space.location_at(i) {
                RawLocation::WeightCell { row, col } => FaultSite::WeightBit {
                    row,
                    col,
                    bit: rng.gen_range(0..WEIGHT_BITS as u8),
                },
                RawLocation::NeuronOp { neuron, op } => FaultSite::NeuronOp { neuron, op },
            })
            .collect();
        WeightedFaultMap {
            map: Self {
                space: *space,
                rate,
                seed,
                sites,
            },
            log_likelihood_ratio: log_lr,
        }
    }
}

/// Per-location sampling weights for [`FaultMap::generate_weighted`],
/// validated once at construction (finite, non-negative, at least one
/// positive).
#[derive(Debug, Clone)]
pub struct SiteWeights {
    weights: Vec<f64>,
    total: f64,
    n_positive: usize,
}

impl SiteWeights {
    /// Validates and wraps raw per-location weights. Index `i` weighs
    /// the location `FaultSpace::location_at(i)` of the space the
    /// weights are later used with.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative, non-finite, or if none is
    /// positive.
    pub fn new(weights: Vec<f64>) -> Self {
        let mut total = 0.0;
        let mut n_positive = 0;
        for (i, &w) in weights.iter().enumerate() {
            assert!(
                w.is_finite() && w >= 0.0,
                "site weight {i} is {w}; weights must be finite and non-negative"
            );
            if w > 0.0 {
                n_positive += 1;
            }
            total += w;
        }
        assert!(n_positive > 0, "at least one site weight must be positive");
        Self {
            weights,
            total,
            n_positive,
        }
    }

    /// Uniform weights over `n` locations — [`FaultMap::generate_weighted`]
    /// with these draws the uniform distribution (likelihood ratio 1).
    pub fn uniform(n: usize) -> Self {
        Self::new(vec![1.0; n])
    }

    /// Number of locations covered.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether no locations are covered.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Number of locations with strictly positive weight.
    pub fn n_positive(&self) -> usize {
        self.n_positive
    }

    /// Sum of all weights.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The validated per-location weights, indexed like
    /// `FaultSpace::location_at`.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

/// A fault map drawn by importance sampling, paired with the log
/// likelihood ratio of its site set under uniform vs. weighted
/// sampling. Feed the ratios to [`crate::stats::importance_estimate`]
/// with an explicit [`crate::stats::EstimatorMode`] — never average
/// weighted-map outcomes as if they were uniform draws.
#[derive(Debug, Clone)]
pub struct WeightedFaultMap {
    /// The drawn fault map, directly usable by [`crate::injector::inject`].
    pub map: FaultMap,
    /// `ln(p_uniform(sites) / p_weighted(sites))` for the drawn site set.
    pub log_likelihood_ratio: f64,
}

/// Fenwick (binary indexed) tree over non-negative weights supporting
/// prefix-sum search and point zeroing — O(log n) per draw for weighted
/// sampling without replacement.
struct Fenwick {
    tree: Vec<f64>,
    values: Vec<f64>,
}

impl Fenwick {
    fn new(weights: &[f64]) -> Self {
        let n = weights.len();
        let mut tree = vec![0.0; n + 1];
        for (i, &w) in weights.iter().enumerate() {
            let mut j = i + 1;
            while j <= n {
                tree[j] += w;
                j += j & j.wrapping_neg();
            }
        }
        Self {
            tree,
            values: weights.to_vec(),
        }
    }

    fn total(&self) -> f64 {
        let mut sum = 0.0;
        let mut j = self.values.len();
        while j > 0 {
            sum += self.tree[j];
            j -= j & j.wrapping_neg();
        }
        sum
    }

    fn value(&self, idx: usize) -> f64 {
        self.values[idx]
    }

    /// Finds the first index whose prefix sum exceeds `target`, skipping
    /// zeroed entries. `target` must lie in `[0, total())`.
    fn find(&self, target: f64) -> usize {
        let n = self.values.len();
        let mut pos = 0;
        let mut rem = target;
        let mut step = n.next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next <= n && self.tree[next] <= rem {
                rem -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        // `pos` is now the count of locations whose cumulative weight is
        // ≤ target, i.e. the 0-based index of the drawn location. Guard
        // against FP edge cases landing past the last positive weight.
        let mut idx = pos.min(n - 1);
        while self.values[idx] == 0.0 && idx > 0 {
            idx -= 1;
        }
        while self.values[idx] == 0.0 {
            idx += 1;
        }
        idx
    }

    fn zero(&mut self, idx: usize) {
        let w = self.values[idx];
        self.values[idx] = 0.0;
        let n = self.values.len();
        let mut j = idx + 1;
        while j <= n {
            self.tree[j] -= w;
            j += j & j.wrapping_neg();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::FaultDomain;
    use snn_hw::neuron_unit::NeuronOp;

    #[test]
    fn different_seeds_give_different_maps() {
        let space = FaultSpace::new(50, 10, FaultDomain::Synapses);
        let a = FaultMap::generate(&space, 0.05, 1);
        let b = FaultMap::generate(&space, 0.05, 2);
        assert_ne!(a.sites(), b.sites());
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn sites_are_unique() {
        let space = FaultSpace::new(20, 10, FaultDomain::ComputeEngine);
        let map = FaultMap::generate(&space, 0.3, 3);
        let mut dedup = map.sites().to_vec();
        dedup.sort_by_key(|s| format!("{s:?}"));
        dedup.dedup();
        assert_eq!(dedup.len(), map.len());
    }

    #[test]
    fn higher_rate_strikes_more_sites() {
        let space = FaultSpace::new(64, 16, FaultDomain::ComputeEngine);
        let low = FaultMap::generate(&space, 0.001, 2);
        let high = FaultMap::generate(&space, 0.1, 2);
        assert!(high.len() > low.len() * 10);
    }

    #[test]
    fn rate_one_strikes_everything() {
        let space = FaultSpace::new(4, 2, FaultDomain::Neurons(None));
        let map = FaultMap::generate(&space, 1.0, 5);
        assert_eq!(map.len(), space.total_locations());
    }

    #[test]
    fn rate_zero_strikes_nothing() {
        let space = FaultSpace::new(4, 2, FaultDomain::ComputeEngine);
        let map = FaultMap::generate(&space, 0.0, 5);
        assert!(map.is_empty());
    }

    #[test]
    fn mixed_domain_hits_both_parts_at_high_rate() {
        let space = FaultSpace::new(10, 8, FaultDomain::ComputeEngine);
        let map = FaultMap::generate(&space, 0.5, 11);
        assert!(map.n_weight_bits() > 0);
        assert!(map.n_neuron_ops() > 0);
        assert_eq!(map.n_weight_bits() + map.n_neuron_ops(), map.len());
    }

    #[test]
    fn fixed_op_domain_only_strikes_that_op() {
        let space = FaultSpace::new(10, 8, FaultDomain::Neurons(Some(NeuronOp::SpikeGeneration)));
        let map = FaultMap::generate(&space, 1.0, 11);
        assert!(map.sites().iter().all(|s| matches!(
            s,
            FaultSite::NeuronOp {
                op: NeuronOp::SpikeGeneration,
                ..
            }
        )));
    }

    #[test]
    #[should_panic]
    fn invalid_rate_panics() {
        let space = FaultSpace::new(2, 2, FaultDomain::Synapses);
        let _ = FaultMap::generate(&space, 2.0, 0);
    }

    #[test]
    fn equal_weights_have_unit_likelihood_ratio() {
        let space = FaultSpace::new(30, 10, FaultDomain::ComputeEngine);
        let weights = SiteWeights::uniform(space.total_locations());
        for seed in 0..16 {
            let wm = FaultMap::generate_weighted(&space, 0.05, seed, &weights);
            assert!(
                wm.log_likelihood_ratio.abs() < 1e-9,
                "seed {seed}: log-ratio {} should vanish for equal weights",
                wm.log_likelihood_ratio
            );
        }
        // Scaling all weights by a constant changes nothing either.
        let scaled = SiteWeights::new(vec![7.25; space.total_locations()]);
        let wm = FaultMap::generate_weighted(&space, 0.05, 3, &scaled);
        assert!(wm.log_likelihood_ratio.abs() < 1e-9);
    }

    #[test]
    fn weighted_generation_is_deterministic_and_budgeted() {
        let space = FaultSpace::new(40, 8, FaultDomain::ComputeEngine);
        let raw: Vec<f64> = (0..space.total_locations())
            .map(|i| 1.0 + (i % 13) as f64)
            .collect();
        let weights = SiteWeights::new(raw);
        let a = FaultMap::generate_weighted(&space, 0.02, 9, &weights);
        let b = FaultMap::generate_weighted(&space, 0.02, 9, &weights);
        assert_eq!(a.map, b.map);
        assert_eq!(
            a.log_likelihood_ratio.to_bits(),
            b.log_likelihood_ratio.to_bits()
        );
        // Same site budget as the uniform sampler at this (space, rate).
        let uniform = FaultMap::generate(&space, 0.02, 9);
        assert_eq!(a.map.len(), uniform.len());
        // Sites are sorted by flat index and unique, like generate().
        let mut dedup = a.map.sites().to_vec();
        dedup.sort_by_key(|s| format!("{s:?}"));
        dedup.dedup();
        assert_eq!(dedup.len(), a.map.len());
    }

    #[test]
    fn zero_weight_sites_are_never_drawn() {
        let space = FaultSpace::new(10, 4, FaultDomain::Synapses);
        let total = space.total_locations();
        // Only even flat indices may be struck.
        let raw: Vec<f64> = (0..total)
            .map(|i| if i % 2 == 0 { 1.0 } else { 0.0 })
            .collect();
        let weights = SiteWeights::new(raw);
        for seed in 0..8 {
            let wm = FaultMap::generate_weighted(&space, 0.4, seed, &weights);
            for site in wm.map.sites() {
                let FaultSite::WeightBit { row, col, .. } = *site else {
                    panic!("synapse domain only has weight cells");
                };
                let flat = row * 4 + col;
                assert_eq!(flat % 2, 0, "struck zero-weight site {site:?}");
            }
        }
    }

    #[test]
    fn skewed_weights_favor_heavy_sites() {
        let space = FaultSpace::new(20, 5, FaultDomain::Synapses);
        let total = space.total_locations();
        // First half of the flat index range carries 99x the weight.
        let raw: Vec<f64> = (0..total)
            .map(|i| if i < total / 2 { 99.0 } else { 1.0 })
            .collect();
        let weights = SiteWeights::new(raw);
        let mut heavy = 0usize;
        let mut drawn = 0usize;
        for seed in 0..32 {
            let wm = FaultMap::generate_weighted(&space, 0.1, seed, &weights);
            let map_heavy = wm
                .map
                .sites()
                .iter()
                .filter(|site| {
                    let FaultSite::WeightBit { row, col, .. } = **site else {
                        unreachable!()
                    };
                    ((row * 5 + col) as usize) < total / 2
                })
                .count();
            // A map of exclusively over-sampled sites is more probable
            // under the weighted sampler, so its ratio must be < 1.
            if map_heavy == wm.map.len() {
                assert!(
                    wm.log_likelihood_ratio < 0.0,
                    "seed {seed}: all-heavy map must have ratio < 1, got ln {}",
                    wm.log_likelihood_ratio
                );
            }
            heavy += map_heavy;
            drawn += wm.map.len();
        }
        assert!(
            heavy * 10 > drawn * 8,
            "heavy half drew {heavy}/{drawn} sites; expected > 80%"
        );
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weights_are_rejected() {
        let _ = SiteWeights::new(vec![1.0, -0.5, 2.0]);
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn too_few_positive_weights_panic() {
        let space = FaultSpace::new(4, 4, FaultDomain::Synapses);
        let total = space.total_locations();
        let mut raw = vec![0.0; total];
        raw[0] = 1.0;
        let weights = SiteWeights::new(raw);
        // rate 1.0 needs every location, but only one has weight.
        let _ = FaultMap::generate_weighted(&space, 1.0, 0, &weights);
    }
}
