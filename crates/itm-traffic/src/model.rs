//! The ground-truth traffic matrix.
//!
//! Demand between user prefix `p` and service `s` factors as
//!
//! ```text
//! demand(p, s) = users(p) · intensity(p) · per_user_rate
//!                · share(s) · affinity(p, s)
//! ```
//!
//! where `affinity` is deterministic log-normal noise keyed on `(p, s)` —
//! so the full matrix (millions of cells) is computable on demand with no
//! storage, yet every cell is stable across queries and runs. Diurnal
//! modulation multiplies in the activity curve at the prefix's longitude
//! (traffic peaks follow the sun; §3.1.3's IP ID diurnality and the cache
//! hit-rate signal both derive from this).
//!
//! The matrix answers the scoring questions the paper poses:
//! "prefixes identified … responsible for 95% of Microsoft CDN traffic"
//! becomes [`TrafficModel::provider_coverage`] over a candidate prefix set.

use crate::services::{Service, ServiceCatalog};
use crate::users::UserModel;
use itm_topology::Topology;
use itm_types::{Asn, Bps, DiurnalCurve, PrefixId, SeedDomain, ServiceId, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Traffic model parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrafficConfig {
    /// Mean busy-hour traffic per user, in kbps (downstream).
    pub per_user_kbps: f64,
    /// σ of the per-(prefix, service) affinity noise.
    pub affinity_sigma: f64,
    /// The diurnal shape applied to all user prefixes.
    pub diurnal: DiurnalCurve,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            per_user_kbps: 150.0,
            affinity_sigma: 0.4,
            diurnal: DiurnalCurve::default(),
        }
    }
}

/// The assembled ground-truth traffic model.
#[derive(Debug, Clone)]
pub struct TrafficModel {
    cfg: TrafficConfig,
    /// Cached mean of the diurnal curve over a day (used on every
    /// time-modulated query; recomputing it is 1,440 trig calls).
    diurnal_mean: f64,
    /// Cached per-prefix daily-mean total demand (bps).
    prefix_total: Vec<f64>,
    /// Cached per-service totals (bps).
    service_total: Vec<f64>,
    /// Cached per-AS totals (bps, by prefix owner).
    as_total: Vec<f64>,
    /// Solar offset per prefix (from its anchor city), for diurnal math.
    solar_offset: Vec<f64>,
    /// Seed for affinity noise.
    affinity_seed: u64,
    n_services: usize,
}

impl TrafficModel {
    /// Build the model (O(prefixes × services) once, to cache totals).
    pub fn build(
        topo: &Topology,
        users: &UserModel,
        catalog: &ServiceCatalog,
        cfg: TrafficConfig,
        seeds: &SeedDomain,
    ) -> TrafficModel {
        let affinity_seed = seeds.child("traffic").seed("affinity");
        let n_p = topo.prefixes.len();
        let n_s = catalog.len();
        let mut prefix_total = vec![0.0; n_p];
        let mut service_total = vec![0.0; n_s];
        let mut as_total = vec![0.0; topo.n_ases()];
        let mut solar_offset = vec![0.0; n_p];

        for r in topo.prefixes.iter() {
            solar_offset[r.id.index()] = topo.city_location(r.city).solar_offset_hours();
            let base = users.users_of(r.id) * users.intensity_of(r.id) * cfg.per_user_kbps * 1e3;
            if base <= 0.0 {
                continue;
            }
            let mut p_total = 0.0;
            for s in &catalog.services {
                let d = base
                    * s.traffic_share
                    * affinity(affinity_seed, r.id, s.id, cfg.affinity_sigma);
                p_total += d;
                service_total[s.id.index()] += d;
            }
            prefix_total[r.id.index()] = p_total;
            as_total[r.owner.index()] += p_total;
        }

        TrafficModel {
            diurnal_mean: cfg.diurnal.daily_mean(),
            cfg,
            prefix_total,
            service_total,
            as_total,
            solar_offset,
            affinity_seed,
            n_services: n_s,
        }
    }

    /// Shift the diurnal activity peak by `hours` (mod 24) — the epoch
    /// engine's phase-drift hook (seasonal daylight shifts, population
    /// behaviour changes). Daily-mean demand is phase-free, so cached
    /// totals stay valid; only the cached curve mean is recomputed (the
    /// mean is phase-invariant for the analytic curve, but recomputing
    /// keeps the cache definitionally correct if the curve shape changes).
    pub fn shift_diurnal_phase(&mut self, hours: f64) {
        self.cfg.diurnal.peak_hour = (self.cfg.diurnal.peak_hour + hours).rem_euclid(24.0);
        self.diurnal_mean = self.cfg.diurnal.daily_mean();
    }

    /// Daily-mean demand between a prefix and a service.
    pub fn demand(
        &self,
        topo: &Topology,
        users: &UserModel,
        catalog: &ServiceCatalog,
        p: PrefixId,
        s: ServiceId,
    ) -> Bps {
        let _ = topo;
        let svc = catalog.get(s);
        let base = users.users_of(p) * users.intensity_of(p) * self.cfg.per_user_kbps * 1e3;
        Bps(base * svc.traffic_share * affinity(self.affinity_seed, p, s, self.cfg.affinity_sigma))
    }

    /// Diurnal multiplier for a prefix at time `t` (mean 1.0 over a day).
    pub fn diurnal_multiplier(&self, p: PrefixId, t: SimTime) -> f64 {
        self.cfg.diurnal.at(t, self.solar_offset[p.index()]) / self.diurnal_mean
    }

    /// Diurnal multiplier for an arbitrary solar offset (mean 1.0 over a
    /// day) — for locations that are not prefixes (e.g. resolver PoPs).
    pub fn diurnal_multiplier_at(&self, solar_offset_hours: f64, t: SimTime) -> f64 {
        self.cfg.diurnal.at(t, solar_offset_hours) / self.diurnal_mean
    }

    /// Daily-mean total demand originated by a prefix, over all services.
    pub fn prefix_total(&self, p: PrefixId) -> Bps {
        Bps(self.prefix_total[p.index()])
    }

    /// Daily-mean total demand of one service.
    pub fn service_total(&self, s: ServiceId) -> Bps {
        Bps(self.service_total[s.index()])
    }

    /// Daily-mean demand of all prefixes owned by an AS.
    pub fn as_total(&self, asn: Asn) -> Bps {
        Bps(self.as_total[asn.index()])
    }

    /// Total Internet user-facing traffic.
    pub fn grand_total(&self) -> Bps {
        Bps(self.prefix_total.iter().sum())
    }

    /// Traffic share served by each provider AS (E13's rollup).
    pub fn provider_totals(&self, catalog: &ServiceCatalog) -> Vec<(Asn, Bps)> {
        use std::collections::HashMap;
        let mut acc: HashMap<Asn, f64> = HashMap::new();
        for s in &catalog.services {
            *acc.entry(s.owner.serving_as()).or_insert(0.0) += self.service_total[s.id.index()];
        }
        let mut v: Vec<(Asn, Bps)> = acc.into_iter().map(|(a, x)| (a, Bps(x))).collect();
        v.sort_by(|a, b| b.1 .0.total_cmp(&a.1 .0).then(a.0.cmp(&b.0)));
        v
    }

    /// The fraction of a provider's traffic that originates from a given
    /// set of client prefixes — the paper's coverage metric ("prefixes
    /// responsible for 95% of Microsoft CDN traffic", §3.1.2). `provider`
    /// restricts to services served by that AS; `None` scores against all
    /// traffic.
    pub fn provider_coverage(
        &self,
        topo: &Topology,
        users: &UserModel,
        catalog: &ServiceCatalog,
        prefixes: &BTreeSet<PrefixId>,
        provider: Option<Asn>,
    ) -> f64 {
        // All-services coverage reduces to the cached per-prefix totals
        // (the demand cells sum to them by construction).
        let services: Vec<&Service> = match provider {
            Some(a) => catalog.served_by(a).collect(),
            None => Vec::new(),
        };
        if provider.is_some() && services.is_empty() {
            return 0.0;
        }
        let mut covered = 0.0;
        let mut total = 0.0;
        for r in topo.prefixes.iter() {
            let u = users.users_of(r.id);
            if u <= 0.0 {
                continue;
            }
            let d = if provider.is_none() {
                self.prefix_total[r.id.index()]
            } else {
                let mut d = 0.0;
                for s in &services {
                    d += self.demand(topo, users, catalog, r.id, s.id).raw();
                }
                d
            };
            total += d;
            if prefixes.contains(&r.id) {
                covered += d;
            }
        }
        if total > 0.0 {
            covered / total
        } else {
            0.0
        }
    }

    /// Same coverage metric at AS granularity (for the root-log technique,
    /// which only resolves ASes — §3.1.2 approach 2).
    pub fn provider_coverage_as(
        &self,
        topo: &Topology,
        users: &UserModel,
        catalog: &ServiceCatalog,
        ases: &BTreeSet<Asn>,
        provider: Option<Asn>,
    ) -> f64 {
        let all: BTreeSet<PrefixId> = topo
            .prefixes
            .iter()
            .filter(|r| ases.contains(&r.owner))
            .map(|r| r.id)
            .collect();
        self.provider_coverage(topo, users, catalog, &all, provider)
    }

    /// Number of services in the bound catalogue.
    pub fn n_services(&self) -> usize {
        self.n_services
    }
}

/// Deterministic log-normal affinity noise keyed on (seed, prefix, service).
fn affinity(seed: u64, p: PrefixId, s: ServiceId, sigma: f64) -> f64 {
    // SplitMix hash to two uniforms, then Box–Muller.
    use itm_types::rng::mix64 as mix;
    let k = mix(seed ^ mix(((p.raw() as u64) << 32) | s.raw() as u64));
    let u1 = ((k >> 11) as f64 / (1u64 << 53) as f64).max(f64::EPSILON);
    let u2 = (mix(k) >> 11) as f64 / (1u64 << 53) as f64;
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    // Mean-one log-normal: exp(σz − σ²/2).
    (sigma * z - sigma * sigma / 2.0).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::services::ServiceCatalogConfig;
    use itm_topology::{generate, TopologyConfig};
    use itm_types::SimDuration;

    fn setup() -> (Topology, UserModel, ServiceCatalog, TrafficModel) {
        let t = generate(&TopologyConfig::small(), 23).unwrap();
        let seeds = SeedDomain::new(23);
        let u = UserModel::generate(&t, &seeds);
        let c = ServiceCatalog::generate(&ServiceCatalogConfig::small(), &t, &seeds);
        let m = TrafficModel::build(&t, &u, &c, TrafficConfig::default(), &seeds);
        (t, u, c, m)
    }

    #[test]
    fn totals_are_consistent() {
        let (t, _, c, m) = setup();
        let by_prefix: f64 = t.prefixes.iter().map(|r| m.prefix_total(r.id).raw()).sum();
        let by_service: f64 = c.services.iter().map(|s| m.service_total(s.id).raw()).sum();
        let by_as: f64 = t.ases.iter().map(|a| m.as_total(a.asn).raw()).sum();
        assert!((by_prefix - by_service).abs() / by_prefix < 1e-9);
        assert!((by_prefix - by_as).abs() / by_prefix < 1e-9);
        assert!((m.grand_total().raw() - by_prefix).abs() / by_prefix < 1e-9);
    }

    #[test]
    fn demand_cells_sum_to_prefix_total() {
        let (t, u, c, m) = setup();
        let p = u.user_prefixes(&t).next().unwrap();
        let sum: f64 = c
            .services
            .iter()
            .map(|s| m.demand(&t, &u, &c, p, s.id).raw())
            .sum();
        assert!((sum - m.prefix_total(p).raw()).abs() / sum < 1e-9);
    }

    #[test]
    fn demand_is_deterministic() {
        let (t, u, c, m) = setup();
        let p = u.user_prefixes(&t).next().unwrap();
        let s = c.services[0].id;
        assert_eq!(
            m.demand(&t, &u, &c, p, s).raw(),
            m.demand(&t, &u, &c, p, s).raw()
        );
    }

    #[test]
    fn diurnal_demand_averages_to_mean() {
        let (t, u, c, m) = setup();
        let p = u.user_prefixes(&t).next().unwrap();
        let s = c.services[0].id;
        let mean = m.demand(&t, &u, &c, p, s).raw();
        let mut acc = 0.0;
        let mut t0 = SimTime::ZERO;
        let n = 24 * 12;
        for _ in 0..n {
            acc += (m.demand(&t, &u, &c, p, s) * m.diurnal_multiplier(p, t0)).raw();
            t0 += SimDuration::mins(5);
        }
        let avg = acc / n as f64;
        assert!((avg / mean - 1.0).abs() < 0.01, "avg {avg} vs mean {mean}");
    }

    #[test]
    fn full_prefix_set_covers_everything() {
        let (t, u, c, m) = setup();
        let all: BTreeSet<PrefixId> = u.user_prefixes(&t).collect();
        let cov = m.provider_coverage(&t, &u, &c, &all, None);
        assert!((cov - 1.0).abs() < 1e-9);
        let hg = t.hypergiants()[0];
        let cov_hg = m.provider_coverage(&t, &u, &c, &all, Some(hg));
        assert!((cov_hg - 1.0).abs() < 1e-9);
        let none: BTreeSet<PrefixId> = BTreeSet::new();
        assert_eq!(m.provider_coverage(&t, &u, &c, &none, None), 0.0);
    }

    #[test]
    fn as_coverage_matches_prefix_coverage() {
        let (t, u, c, m) = setup();
        // Coverage by all eyeball+stub ASes == coverage by all user prefixes.
        let ases: BTreeSet<Asn> = t.ases.iter().map(|a| a.asn).collect();
        let cov = m.provider_coverage_as(&t, &u, &c, &ases, None);
        assert!((cov - 1.0).abs() < 1e-9);
    }

    #[test]
    fn provider_totals_are_skewed() {
        let (t, _, c, m) = setup();
        let totals = m.provider_totals(&c);
        assert!(!totals.is_empty());
        let grand: f64 = totals.iter().map(|(_, b)| b.raw()).sum();
        // Top provider carries a large share — consolidation.
        assert!(totals[0].1.raw() / grand > 0.15);
        // All providers are content ASes.
        for (a, _) in &totals {
            assert!(t.as_info(*a).class.is_content());
        }
    }

    #[test]
    fn affinity_noise_is_mean_one_ish() {
        let mut acc = 0.0;
        let n = 20_000;
        for i in 0..n {
            acc += affinity(99, PrefixId(i), ServiceId(7), 0.4);
        }
        let mean = acc / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }
}
