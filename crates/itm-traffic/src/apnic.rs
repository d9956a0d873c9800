//! An APNIC-like per-AS population estimator.
//!
//! The paper's stance on APNIC's data \[33\]: "the data are coarse-grained,
//! and the approach has not been validated" (§1), "APNIC aggregates data at
//! an AS granularity, which is too coarse-grained for many use cases"
//! (§3.1.1), yet "they likely capture the major eyeball networks in each
//! country" (§2.2). The estimator therefore: (a) only reports at AS
//! granularity, (b) multiplies truth by log-normal noise, (c) misses small
//! networks entirely (its ad-based sampling never observes them), and (d)
//! keeps large networks' *ranks* mostly right — which is exactly the
//! property Figure 2 relies on.

use crate::users::UserModel;
use itm_topology::Topology;
use itm_types::rng::{lognormal, SeedDomain};
use itm_types::{Asn, Country};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Noisy per-AS user estimates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ApnicEstimates {
    /// estimate[asn]; `None` = network not in the dataset.
    estimates: Vec<Option<f64>>,
}

/// σ of the log-normal multiplicative error.
const NOISE_SIGMA: f64 = 0.35;
/// Networks below this many users are likely missed; coverage
/// probability ramps from ~0 at 0 users to ~1 at 10× this threshold.
const COVERAGE_THRESHOLD: f64 = 200.0;

impl ApnicEstimates {
    /// Produce estimates from ground truth.
    pub fn generate(topo: &Topology, users: &UserModel, seeds: &SeedDomain) -> ApnicEstimates {
        let seeds = seeds.child("apnic");
        let mut estimates = vec![None; topo.n_ases()];
        for a in &topo.ases {
            let truth = users.subscribers(a.asn);
            if truth <= 0.0 {
                continue; // non-eyeball networks have no user estimate
            }
            let mut rng = seeds.rng_indexed("as", a.asn.raw() as u64);
            // Coverage: sigmoid in log-space around the threshold.
            let x = (truth / COVERAGE_THRESHOLD).ln();
            let p_covered = 1.0 / (1.0 + (-1.2 * x).exp());
            if !rng.gen_bool(p_covered.clamp(0.0, 1.0)) {
                continue;
            }
            estimates[a.asn.index()] = Some(truth * lognormal(&mut rng, 0.0, NOISE_SIGMA));
        }
        ApnicEstimates { estimates }
    }

    /// The estimate for an AS, if the dataset covers it.
    pub fn estimate(&self, asn: Asn) -> Option<f64> {
        self.estimates[asn.index()]
    }

    /// Number of covered networks.
    pub fn covered(&self) -> usize {
        self.estimates.iter().filter(|e| e.is_some()).count()
    }

    /// Estimated users of a country: sum over covered ASes home-countried
    /// there (how Figure 1b's shading denominates coverage).
    pub fn country_users(&self, topo: &Topology, c: Country) -> f64 {
        topo.ases
            .iter()
            .filter(|a| a.home_country == c)
            .filter_map(|a| self.estimate(a.asn))
            .sum()
    }

    /// Total estimated Internet population.
    pub fn total(&self) -> f64 {
        self.estimates.iter().flatten().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itm_topology::{generate, AsClass, TopologyConfig};
    use itm_types::stats::spearman;

    fn setup() -> (Topology, UserModel, ApnicEstimates) {
        let t = generate(&TopologyConfig::small(), 17).unwrap();
        let u = UserModel::generate(&t, &SeedDomain::new(17));
        let a = ApnicEstimates::generate(&t, &u, &SeedDomain::new(17));
        (t, u, a)
    }

    #[test]
    fn covers_large_networks_misses_tiny_ones() {
        let (t, u, a) = setup();
        let mut large_covered = 0;
        let mut large_total = 0;
        for asinfo in t.ases_of_class(AsClass::Eyeball) {
            if u.subscribers(asinfo.asn) > 2000.0 {
                large_total += 1;
                if a.estimate(asinfo.asn).is_some() {
                    large_covered += 1;
                }
            }
        }
        assert!(large_total > 0);
        assert!(
            large_covered as f64 / large_total as f64 > 0.9,
            "major eyeballs covered {large_covered}/{large_total}"
        );
        // Overall coverage is partial — small networks are missing.
        let eyeballs =
            t.ases_of_class(AsClass::Eyeball).count() + t.ases_of_class(AsClass::Stub).count();
        assert!(
            a.covered() < eyeballs,
            "nothing was missed — too optimistic"
        );
    }

    #[test]
    fn estimates_are_rank_correlated_with_truth() {
        let (t, u, a) = setup();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for asinfo in t.ases_of_class(AsClass::Eyeball) {
            if let Some(est) = a.estimate(asinfo.asn) {
                xs.push(u.subscribers(asinfo.asn));
                ys.push(est);
            }
        }
        let rho = spearman(&xs, &ys).unwrap();
        assert!(rho > 0.8, "spearman {rho}");
    }

    #[test]
    fn no_estimates_for_userless_networks() {
        let (t, u, a) = setup();
        for asinfo in &t.ases {
            if u.subscribers(asinfo.asn) == 0.0 {
                assert!(a.estimate(asinfo.asn).is_none());
            }
        }
    }

    #[test]
    fn totals_are_same_order_as_truth() {
        let (_, u, a) = setup();
        let ratio = a.total() / u.total();
        assert!(ratio > 0.5 && ratio < 2.0, "ratio {ratio}");
    }

    #[test]
    fn deterministic() {
        let t = generate(&TopologyConfig::small(), 17).unwrap();
        let u = UserModel::generate(&t, &SeedDomain::new(17));
        let a = ApnicEstimates::generate(&t, &u, &SeedDomain::new(9));
        let b = ApnicEstimates::generate(&t, &u, &SeedDomain::new(9));
        for i in 0..t.n_ases() {
            assert_eq!(a.estimate(Asn(i as u32)), b.estimate(Asn(i as u32)));
        }
    }
}
