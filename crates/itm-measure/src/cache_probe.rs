//! ECS cache probing of the open resolver (§3.1.2, approach 1).
//!
//! "By iterating over all routable prefixes, our methods identified client
//! activity in prefixes representing 95% of Microsoft CDN traffic."
//!
//! The campaign iterates every routable /24 (from public BGP data — in the
//! substrate, the prefix table), probing the open resolver non-recursively
//! for a list of popular domains with the prefix in the ECS option,
//! several times per day. A prefix with at least one hit is *discovered*;
//! hit counts feed the relative-activity estimator (Fig. 2).

use crate::substrate::Substrate;
use itm_dns::{DnsTally, DomainKey, HoistedDomain, HoistedPrefix, OpenResolver, ProbeResult};
use itm_traffic::Service;
use itm_types::rng::{shard_bounds, DEFAULT_SHARDS};
use itm_types::{Asn, FaultInjector, FaultPlan, FaultStats, PopId, PrefixId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Campaign parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheProbeCampaign {
    /// How many of the most popular ECS-supporting domains to probe.
    pub n_domains: usize,
    /// Probe rounds per day (each round probes every prefix × domain).
    pub rounds_per_day: u32,
    /// Campaign length.
    pub duration: SimDuration,
    /// Campaign start.
    pub start: SimTime,
}

impl Default for CacheProbeCampaign {
    fn default() -> Self {
        CacheProbeCampaign {
            n_domains: 10,
            rounds_per_day: 8,
            duration: SimDuration::days(1),
            start: SimTime::ZERO,
        }
    }
}

/// Campaign output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheProbeResult {
    /// Prefixes with at least one cache hit.
    pub discovered: BTreeSet<PrefixId>,
    /// Hits per prefix (discovery strength / activity signal).
    pub hits_by_prefix: BTreeMap<PrefixId, u32>,
    /// Probes issued per prefix (denominator for hit rates).
    pub probes_per_prefix: u32,
    /// Distinct discovered prefixes per open-resolver PoP (Figure 1a).
    pub discovered_by_pop: BTreeMap<PopId, u32>,
    /// The domains probed.
    pub domains: Vec<String>,
    /// Per-probe fate accounting: `observed + degraded + lost` equals the
    /// probes issued (all-observed when the campaign ran without faults).
    pub fault_stats: FaultStats,
}

impl CacheProbeCampaign {
    /// The domain list a real campaign would use: the most popular sites
    /// that support ECS (non-ECS domains give no per-prefix signal, so
    /// campaigns skip them).
    pub fn pick_domains(&self, s: &Substrate) -> Vec<String> {
        self.pick_services(s)
            .map(|svc| svc.domain.clone())
            .collect()
    }

    fn pick_services<'s>(&self, s: &'s Substrate) -> impl Iterator<Item = &'s Service> {
        s.catalog
            .services
            .iter()
            .filter(|svc| svc.ecs_support)
            .take(self.n_domains)
    }

    /// How many shards the campaign splits into (a property of the input
    /// size, never of the machine running it).
    pub fn shard_count(&self, s: &Substrate) -> usize {
        s.topo.prefixes.len().clamp(1, DEFAULT_SHARDS)
    }

    /// Run the campaign sequentially (shards executed in index order).
    pub fn run(&self, s: &Substrate, resolver: &OpenResolver<'_>) -> CacheProbeResult {
        let faults = FaultInjector::new(FaultPlan::off(), &s.seeds, "cache_probe");
        self.run_with_faults(s, resolver, &faults, |n, job| (0..n).map(job).collect())
    }

    /// Run the campaign with a caller-supplied shard runner under a fault
    /// plan.
    ///
    /// `run_shards(n, job)` must return `job(0..n)` results in shard-index
    /// order; whether the jobs execute sequentially or on a worker pool is
    /// the caller's business. Each shard probes a fixed contiguous slice
    /// of the prefix table, and the merge is a union of disjoint per-shard
    /// maps, so the result is identical for any execution schedule. Probe
    /// fates are keyed by `(prefix address, domain, round)`, so the set of
    /// lost probes is a pure function of the plan — identical across runs
    /// and thread counts.
    pub fn run_with_faults<R>(
        &self,
        s: &Substrate,
        resolver: &OpenResolver<'_>,
        faults: &FaultInjector,
        run_shards: R,
    ) -> CacheProbeResult
    where
        R: FnOnce(usize, &(dyn Fn(usize) -> CacheProbeShard + Sync)) -> Vec<CacheProbeShard>,
    {
        let _span = itm_obs::span("cache_probe.run");
        let _campaign =
            itm_obs::trace::campaign(itm_obs::trace::Technique::CacheProbe, "ecs cache probing");
        let queries = itm_obs::counter!("probe.queries", "technique" => "cache_probe");
        let domains = self.pick_domains(s);
        let keys: Vec<DomainKey> = self.pick_services(s).map(DomainKey::of).collect();
        let hoisted: Vec<HoistedDomain> = keys.iter().map(|&k| resolver.hoist_domain(k)).collect();
        let (rounds, _) = self.schedule();
        let diurnal = DiurnalTable::build(self, s, resolver, &keys);

        let n_shards = self.shard_count(s);
        let parts = run_shards(n_shards, &|shard| {
            self.probe_shard(s, resolver, &hoisted, &diurnal, faults, shard, n_shards)
        });

        // Merge in shard-index order: the shards' slices are consecutive,
        // so the hit counts come out in prefix order and both maps are
        // built once from sorted input.
        let mut hit_counts: Vec<(PrefixId, u32)> = Vec::new();
        let mut issued: u64 = 0;
        let mut fault_stats = FaultStats::default();
        let mut dns = DnsTally::default();
        for part in parts {
            hit_counts.extend(
                s.topo
                    .prefixes
                    .iter()
                    .skip(part.lo)
                    .zip(&part.hits)
                    .filter(|&(_, &h)| h > 0)
                    .map(|(rec, &h)| (rec.id, h)),
            );
            issued += part.issued;
            fault_stats.merge(&part.stats);
            dns.merge(&part.dns);
        }
        dns.flush();
        let discovered: BTreeSet<PrefixId> = hit_counts.iter().map(|&(p, _)| p).collect();
        let hits_by_prefix: BTreeMap<PrefixId, u32> = hit_counts.into_iter().collect();
        queries.add(issued);
        // One DNS query ≈ 80 bytes on the wire each way; the campaign's
        // only targets are the open resolver's PoPs.
        itm_obs::counter!("probe.bytes", "technique" => "cache_probe").add(issued * 160);
        itm_obs::counter!("probe.hosts", "technique" => "cache_probe")
            .add(resolver.pops().len() as u64);

        let mut discovered_by_pop: BTreeMap<PopId, u32> = BTreeMap::new();
        for &p in &discovered {
            *discovered_by_pop.entry(resolver.pop_of(p)).or_insert(0) += 1;
        }

        CacheProbeResult {
            discovered,
            hits_by_prefix,
            probes_per_prefix: (rounds as u32) * domains.len() as u32,
            discovered_by_pop,
            domains,
            fault_stats,
        }
    }

    /// The probe cadence: `(rounds, seconds between rounds)`, a pure
    /// function of the campaign parameters.
    fn schedule(&self) -> (u64, u64) {
        let rounds = (self.duration.as_secs() as f64 / 86_400.0 * self.rounds_per_day as f64)
            .round()
            .max(1.0) as u64;
        (rounds, self.duration.as_secs() / rounds)
    }

    /// Probe one shard's slice of the prefix table. Pure given the shard
    /// index: the resolver's cache oracle is deterministic per
    /// (prefix, domain, time), so no shard sees another's state.
    ///
    /// Every term of a probe is computed where it stops changing: the
    /// domains' terms once per campaign, each prefix's terms and each
    /// (prefix, domain) pair's daily demand once per shard, each domain's
    /// cache window once per round, and each (round, city, domain)
    /// diurnal factor in the campaign's table.
    #[allow(clippy::too_many_arguments)]
    fn probe_shard(
        &self,
        s: &Substrate,
        resolver: &OpenResolver<'_>,
        domains: &[HoistedDomain],
        diurnal: &DiurnalTable,
        faults: &FaultInjector,
        shard: usize,
        n_shards: usize,
    ) -> CacheProbeShard {
        let (rounds, step) = self.schedule();
        let (lo, hi) = shard_bounds(s.topo.prefixes.len(), shard, n_shards);
        let prefixes: Vec<HoistedPrefix> = (s.topo.prefixes.iter().skip(lo).take(hi - lo))
            .map(|rec| resolver.hoist_prefix(rec))
            .collect();
        let mut daily = Vec::with_capacity(prefixes.len() * domains.len());
        for p in &prefixes {
            let id = p.record().id;
            daily.extend(
                domains
                    .iter()
                    .map(|d| resolver.daily_demand(id, d.key.service)),
            );
        }
        let mut part = CacheProbeShard {
            lo,
            hits: vec![0; hi - lo],
            issued: 0,
            stats: FaultStats::default(),
            dns: DnsTally::default(),
        };
        let mut windows = Vec::with_capacity(domains.len());
        for round in 0..rounds {
            let t = SimTime(self.start.as_secs() + round * step);
            windows.clear();
            windows.extend(domains.iter().map(|d| d.window(t)));
            for (i, p) in prefixes.iter().enumerate() {
                let row = &daily[i * domains.len()..][..domains.len()];
                let factors = diurnal.row(round, p.record().city);
                let terms = domains.iter().zip(&windows).zip(row).zip(factors);
                for (((d, &w), &demand), &factor) in terms {
                    part.issued += 1;
                    debug_assert_eq!(
                        factor.to_bits(),
                        s.traffic
                            .diurnal_multiplier(p.record().id, w.start())
                            .to_bits(),
                        "tabulated diurnal factor of {:?} at {:?}",
                        p.record().id,
                        w.start()
                    );
                    let rate = resolver.ecs_rate(p, demand, factor);
                    let (res, fate) = resolver.probe_hoisted_with_faults(
                        p,
                        d,
                        w,
                        rate,
                        faults,
                        round,
                        &mut part.dns,
                    );
                    part.stats.record(fate);
                    if let Some(ProbeResult::Hit(_)) = res {
                        part.hits[i] += 1;
                    }
                }
            }
        }
        part
    }
}

/// The diurnal factor of every probe a campaign issues, computed once
/// before the shards run. A probe's factor depends on its round, its
/// domain (through the TTL window the round's time falls in) and its
/// prefix's city, so the table holds rounds × domains × cities entries,
/// laid out by (round, city, domain) so that one prefix's probes in a
/// round read one contiguous row. Each entry is
/// [`OpenResolver::window_diurnal`], bit for bit the factor the kernel
/// would compute for any prefix of that city.
struct DiurnalTable {
    n_cities: usize,
    n_domains: usize,
    factors: Vec<f64>,
}

impl DiurnalTable {
    fn build(
        c: &CacheProbeCampaign,
        s: &Substrate,
        resolver: &OpenResolver<'_>,
        domains: &[DomainKey],
    ) -> DiurnalTable {
        let (rounds, step) = c.schedule();
        let n_cities = s.topo.world.cities.len();
        let mut factors = Vec::with_capacity(rounds as usize * n_cities * domains.len());
        for round in 0..rounds {
            let t = SimTime(c.start.as_secs() + round * step);
            for city in 0..n_cities as u32 {
                factors.extend(domains.iter().map(|&d| resolver.window_diurnal(city, d, t)));
            }
        }
        DiurnalTable {
            n_cities,
            n_domains: domains.len(),
            factors,
        }
    }

    /// The factors of `round` for a prefix in `city`, in domain order.
    fn row(&self, round: u64, city: u32) -> &[f64] {
        let at = (round as usize * self.n_cities + city as usize) * self.n_domains;
        &self.factors[at..at + self.n_domains]
    }
}

/// One shard's partial campaign output (disjoint prefix slice).
#[derive(Debug, Clone)]
pub struct CacheProbeShard {
    /// Index of the slice's first prefix.
    lo: usize,
    /// Hits per prefix of the slice, by offset from `lo`.
    hits: Vec<u32>,
    issued: u64,
    stats: FaultStats,
    dns: DnsTally,
}

impl CacheProbeResult {
    /// ASes with at least one discovered prefix.
    pub fn discovered_ases(&self, s: &Substrate) -> BTreeSet<Asn> {
        self.discovered
            .iter()
            .map(|&p| s.topo.prefixes.get(p).owner)
            .collect()
    }

    /// Hit counts aggregated per AS (the Fig. 2 x-axis signal).
    pub fn hits_by_as(&self, s: &Substrate) -> BTreeMap<Asn, u32> {
        let mut out: BTreeMap<Asn, u32> = BTreeMap::new();
        for (&p, &h) in &self.hits_by_prefix {
            *out.entry(s.topo.prefixes.get(p).owner).or_insert(0) += h;
        }
        out
    }

    /// Hit *rate* per AS: hits / probes issued to that AS's prefixes.
    pub fn hit_rate_by_as(&self, s: &Substrate) -> BTreeMap<Asn, f64> {
        let hits = self.hits_by_as(s);
        let mut out = BTreeMap::new();
        for (asn, h) in hits {
            let n_prefixes = s.topo.prefixes.owned_by(asn).len() as f64;
            let probes = n_prefixes * self.probes_per_prefix as f64;
            if probes > 0.0 {
                out.insert(asn, h as f64 / probes);
            }
        }
        out
    }

    /// Dense presence-claim bitmap: `true` at each discovered prefix
    /// index. This is cache probing's claim surface for the quality
    /// audit — the technique asserts "this /24 hosts users", for every
    /// service (it is service-agnostic at cell granularity).
    pub fn presence_claims(&self, n_prefixes: usize) -> Vec<bool> {
        let mut out = vec![false; n_prefixes];
        for &p in &self.discovered {
            if let Some(slot) = out.get_mut(p.index()) {
                *slot = true;
            }
        }
        out
    }

    /// False-discovery rate: fraction of discovered prefixes that host no
    /// users at all (the "<1% of identified client prefixes did not
    /// contact Microsoft" check from \[34\]).
    pub fn false_discovery_rate(&self, s: &Substrate) -> f64 {
        if self.discovered.is_empty() {
            return 0.0;
        }
        let false_pos = self
            .discovered
            .iter()
            .filter(|&&p| s.users.users_of(p) <= 0.0)
            .count();
        false_pos as f64 / self.discovered.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::SubstrateConfig;
    use std::collections::BTreeSet as HS;

    fn setup() -> Substrate {
        Substrate::build(SubstrateConfig::small(), 103).unwrap()
    }

    #[test]
    fn campaign_discovers_most_traffic() {
        let s = setup();
        let resolver = s.open_resolver().expect("open resolver");
        let result = CacheProbeCampaign::default().run(&s, &resolver);
        assert!(!result.discovered.is_empty());
        // Traffic-weighted coverage should be high: busy prefixes are the
        // easiest to discover (the paper's 95% result, shape-wise).
        let cov =
            s.traffic
                .provider_coverage(&s.topo, &s.users, &s.catalog, &result.discovered, None);
        assert!(cov > 0.75, "coverage only {cov:.3}");
        // And per-prefix recall is *lower* than traffic coverage (quiet
        // prefixes get missed) — the whole point of traffic weighting.
        let all_user: HS<PrefixId> = s.users.user_prefixes(&s.topo).collect();
        let recall = result
            .discovered
            .iter()
            .filter(|p| all_user.contains(p))
            .count() as f64
            / all_user.len() as f64;
        assert!(recall < cov, "recall {recall:.3} vs coverage {cov:.3}");
    }

    #[test]
    fn false_discovery_rate_is_tiny() {
        let s = setup();
        let resolver = s.open_resolver().expect("open resolver");
        let result = CacheProbeCampaign::default().run(&s, &resolver);
        let fdr = result.false_discovery_rate(&s);
        assert!(fdr < 0.02, "FDR {fdr:.4}");
    }

    #[test]
    fn hit_counts_track_activity() {
        let s = setup();
        let resolver = s.open_resolver().expect("open resolver");
        let result = CacheProbeCampaign::default().run(&s, &resolver);
        // Across discovered prefixes, hits should correlate with traffic.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (&p, &h) in &result.hits_by_prefix {
            xs.push(s.traffic.prefix_total(p).raw());
            ys.push(h as f64);
        }
        let rho = itm_types::stats::spearman(&xs, &ys).unwrap();
        assert!(rho > 0.4, "spearman {rho:.3}");
    }

    #[test]
    fn per_pop_counts_sum_to_discoveries() {
        let s = setup();
        let resolver = s.open_resolver().expect("open resolver");
        let result = CacheProbeCampaign::default().run(&s, &resolver);
        let sum: u32 = result.discovered_by_pop.values().sum();
        assert_eq!(sum as usize, result.discovered.len());
    }

    #[test]
    fn more_rounds_discover_no_less() {
        let s = setup();
        let resolver = s.open_resolver().expect("open resolver");
        let short = CacheProbeCampaign {
            rounds_per_day: 2,
            ..Default::default()
        }
        .run(&s, &resolver);
        let long = CacheProbeCampaign {
            rounds_per_day: 16,
            ..Default::default()
        }
        .run(&s, &resolver);
        assert!(long.discovered.len() >= short.discovered.len());
    }

    #[test]
    fn diurnal_table_is_bit_identical_to_the_curve_in_place() {
        let mut s = setup();
        let c = CacheProbeCampaign::default();
        let (rounds, step) = c.schedule();
        for shift in [0.0, 3.5] {
            s.traffic.shift_diurnal_phase(shift);
            let resolver = s.open_resolver().expect("open resolver");
            let keys: Vec<DomainKey> = c.pick_services(&s).map(DomainKey::of).collect();
            let table = DiurnalTable::build(&c, &s, &resolver, &keys);
            let n_cities = s.topo.world.cities.len();
            assert_eq!(table.factors.len(), rounds as usize * n_cities * keys.len());
            for round in 0..rounds {
                let t = c.start.as_secs() + round * step;
                for rec in s.topo.prefixes.iter() {
                    let row = table.row(round, rec.city);
                    for (d, got) in keys.iter().zip(row) {
                        let ttl = s.catalog.get(d.service).ttl_secs.max(1) as u64;
                        let ws = SimTime(t / ttl * ttl);
                        let want = s.traffic.diurnal_multiplier(rec.id, ws);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "shift {shift}, round {round}, {:?}, {:?}",
                            rec.id,
                            d.service
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn domain_list_is_ecs_only() {
        let s = setup();
        let c = CacheProbeCampaign::default();
        for d in c.pick_domains(&s) {
            assert!(s.catalog.by_domain(&d).unwrap().ecs_support);
        }
    }
}
