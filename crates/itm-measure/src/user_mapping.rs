//! ECS-based user→host mapping and client-centric server geolocation
//! (§3.2, E3/E8 support).
//!
//! "ECS probing of Google Public DNS allows us to infer the users for all
//! services that support ECS" — the campaign resolves every (user prefix,
//! ECS service) pair through the open resolver with the prefix in the ECS
//! option and records the returned front-end. For services without ECS the
//! mapping cannot be measured this way (the §3.2.3 open question); the
//! result marks them unmeasurable.
//!
//! Server geolocation follows \[13\]: estimate each discovered front-end's
//! position as the user-weighted centroid of the client prefixes mapped to
//! it, and score the error against the true site city.

use crate::substrate::Substrate;
use itm_dns::{ClientRuns, DnsTally, DomainKey, OpenResolver};
use itm_topology::PrefixKind;
use itm_traffic::DeliveryMode;
use itm_types::rng::{shard_bounds, DEFAULT_SHARDS};
use itm_types::{
    merge_sorted_runs, Cell, CellMap, FaultInjector, FaultPlan, FaultStats, Ipv4Addr, PrefixId,
    ServiceId,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// The measured user→host mapping.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UserMapping {
    /// (service, prefix) → serving address, for measurable services.
    ///
    /// Columnar: 12 bytes per measured cell instead of a `BTreeMap` node —
    /// this map is the single largest object the build materialises (the
    /// paper's Table 1 cell grid), so its representation sets the peak.
    pub mapping: CellMap,
    /// Services that could not be measured (no ECS or anycast/custom-URL).
    pub unmeasurable: Vec<ServiceId>,
    /// Distinct serving addresses seen per service.
    pub footprint: BTreeMap<ServiceId, Vec<Ipv4Addr>>,
    /// Per-resolution fate accounting: `observed + degraded + lost`
    /// equals the resolutions issued.
    pub fault_stats: FaultStats,
    /// The same accounting, split by service. Fates are keyed by
    /// `(prefix, domain)`, so a service's row is independent of which
    /// other services were measured alongside it — the property that
    /// lets the epoch engine re-measure a dirty subset and splice its
    /// rows over the retained ones without touching the aggregate's
    /// meaning (`fault_stats` is always the fold of this map).
    pub stats_by_service: BTreeMap<ServiceId, FaultStats>,
}

impl UserMapping {
    /// Run the mapping campaign over all user prefixes × DNS-redirected
    /// ECS services.
    pub fn measure(s: &Substrate, resolver: &OpenResolver<'_>) -> UserMapping {
        Self::measure_with(s, resolver, |n, job| (0..n).map(job).collect())
    }

    /// How many shards the campaign splits into (a property of the input
    /// size, never of the machine running it).
    pub fn shard_count(s: &Substrate) -> usize {
        s.topo.prefixes.len().clamp(1, DEFAULT_SHARDS)
    }

    /// Run the campaign with a caller-supplied shard runner (see
    /// `CacheProbeCampaign::run_with`). Shards cover disjoint prefix
    /// slices and hand back sorted runs (cells ascending by `(service,
    /// prefix)`, footprints ascending by address), so the merge is a
    /// linear k-way pass and the output is byte-identical for any
    /// execution schedule.
    pub fn measure_with<R>(s: &Substrate, resolver: &OpenResolver<'_>, run_shards: R) -> UserMapping
    where
        R: FnOnce(usize, &(dyn Fn(usize) -> UserMappingShard + Sync)) -> Vec<UserMappingShard>,
    {
        let faults = FaultInjector::new(FaultPlan::off(), &s.seeds, "user_mapping");
        Self::measure_with_faults(s, resolver, &faults, run_shards)
    }

    /// Run the mapping campaign under a fault plan. Each resolution goes
    /// through two hops (client → open resolver → authoritative); either
    /// can fail, and the combined fate is recorded. Fates are keyed by
    /// `(prefix, domain)`, never by emission order, so degraded mappings
    /// are identical across runs and thread counts.
    pub fn measure_with_faults<R>(
        s: &Substrate,
        resolver: &OpenResolver<'_>,
        faults: &FaultInjector,
        run_shards: R,
    ) -> UserMapping
    where
        R: FnOnce(usize, &(dyn Fn(usize) -> UserMappingShard + Sync)) -> Vec<UserMappingShard>,
    {
        Self::measure_filtered(s, resolver, faults, None, run_shards)
    }

    /// Re-measure only the services in `subset` — the epoch engine's
    /// incremental path. Shard layout, per-shard sweep order, and every
    /// per-cell resolution are identical to what a full campaign would
    /// produce for those services (resolutions are pure functions of
    /// `(substrate, prefix, domain)`), so splicing the subset's segments
    /// over the retained map reproduces a from-scratch build byte for
    /// byte. The result is *partial*: its footprint and stats cover only
    /// `subset`, and `unmeasurable` is empty (the caller retains the
    /// previous epoch's, which is a static property of the catalogue).
    pub fn measure_subset_with_faults<R>(
        s: &Substrate,
        resolver: &OpenResolver<'_>,
        subset: &BTreeSet<ServiceId>,
        faults: &FaultInjector,
        run_shards: R,
    ) -> UserMapping
    where
        R: FnOnce(usize, &(dyn Fn(usize) -> UserMappingShard + Sync)) -> Vec<UserMappingShard>,
    {
        Self::measure_filtered(s, resolver, faults, Some(subset), run_shards)
    }

    /// Splice a subset re-measurement over this (previous-epoch) mapping:
    /// dirty services take `fresh`'s cells, footprints, and stats rows;
    /// everything else is retained by move. The aggregate `fault_stats`
    /// is re-folded from the spliced rows, so the accounting invariant
    /// survives (u64 sums are order-independent, matching a full build).
    pub fn splice(mut self, fresh: UserMapping, dirty: &BTreeSet<ServiceId>) -> UserMapping {
        self.mapping = self.mapping.splice_services(fresh.mapping, dirty);
        for svc in dirty {
            self.footprint.remove(svc);
            self.stats_by_service.remove(svc);
        }
        self.footprint.extend(fresh.footprint);
        self.stats_by_service.extend(fresh.stats_by_service);
        let mut fault_stats = FaultStats::default();
        for st in self.stats_by_service.values() {
            fault_stats.merge(st);
        }
        self.fault_stats = fault_stats;
        self
    }

    /// The shared campaign body: `subset = None` measures every
    /// measurable service, `Some(set)` restricts the sweep to it.
    fn measure_filtered<R>(
        s: &Substrate,
        resolver: &OpenResolver<'_>,
        faults: &FaultInjector,
        subset: Option<&BTreeSet<ServiceId>>,
        run_shards: R,
    ) -> UserMapping
    where
        R: FnOnce(usize, &(dyn Fn(usize) -> UserMappingShard + Sync)) -> Vec<UserMappingShard>,
    {
        let _span = itm_obs::span("user_mapping.measure");
        let _campaign = itm_obs::trace::campaign(
            itm_obs::trace::Technique::EcsMapping,
            "ECS user-to-frontend mapping",
        );
        let queries = itm_obs::counter!("probe.queries", "technique" => "ecs_mapping");

        let n_shards = Self::shard_count(s);
        let parts = run_shards(n_shards, &|shard| {
            Self::measure_shard(s, resolver, faults, subset, shard, n_shards)
        });

        let mut issued: u64 = 0;
        let mut shard_maps = Vec::with_capacity(parts.len());
        let mut seen: BTreeMap<ServiceId, Vec<Vec<Ipv4Addr>>> = BTreeMap::new();
        let mut fault_stats = FaultStats::default();
        let mut stats_by_service: BTreeMap<ServiceId, FaultStats> = BTreeMap::new();
        let mut dns = DnsTally::default();
        for part in parts {
            shard_maps.push(part.mapping);
            for (svc, addrs) in part.seen {
                seen.entry(svc).or_default().push(addrs);
            }
            issued += part.issued;
            dns.merge(&part.dns);
            for (svc, st) in part.stats {
                fault_stats.merge(&st);
                stats_by_service.entry(svc).or_default().merge(&st);
            }
        }
        // Zero-copy gather: shards are prefix-sliced and in shard order,
        // so the merged grid is a rearrangement of the shards' segments —
        // the cell store is never duplicated during the merge.
        let mapping = CellMap::merge_shards(shard_maps);

        let mut unmeasurable = Vec::new();
        let mut footprint: BTreeMap<ServiceId, Vec<Ipv4Addr>> = BTreeMap::new();
        for svc in &s.catalog.services {
            if let Some(set) = subset {
                if !set.contains(&svc.id) {
                    continue;
                }
            }
            if svc.ecs_support && svc.mode == DeliveryMode::DnsRedirection {
                let mut addrs = merge_sorted_runs(seen.remove(&svc.id).unwrap_or_default());
                addrs.dedup();
                footprint.insert(svc.id, addrs);
            } else if subset.is_none() {
                unmeasurable.push(svc.id);
            }
        }

        dns.flush();
        queries.add(issued);
        itm_obs::counter!("probe.bytes", "technique" => "ecs_mapping").add(issued * 160);
        UserMapping {
            mapping,
            unmeasurable,
            footprint,
            fault_stats,
            stats_by_service,
        }
    }

    /// Resolve one shard's slice of the prefix table against every
    /// measurable service (optionally restricted to `subset`).
    ///
    /// The slice's user prefixes are grouped once into runs that share an
    /// owner AS and a city ([`ClientRuns`]), and every service resolves
    /// run by run, so the redirection policy is consulted once per run.
    /// Each service's cells fill one segment sized to the slice's user
    /// prefixes, which is exact when no resolution is lost.
    fn measure_shard(
        s: &Substrate,
        resolver: &OpenResolver<'_>,
        faults: &FaultInjector,
        subset: Option<&BTreeSet<ServiceId>>,
        shard: usize,
        n_shards: usize,
    ) -> UserMappingShard {
        let (lo, hi) = shard_bounds(s.topo.prefixes.len(), shard, n_shards);
        let clients = ClientRuns::new(
            s.topo
                .prefixes
                .iter()
                .skip(lo)
                .take(hi - lo)
                .filter(|rec| rec.kind == PrefixKind::UserAccess),
        );
        let mut part = UserMappingShard {
            mapping: CellMap::new(),
            seen: BTreeMap::new(),
            issued: 0,
            stats: BTreeMap::new(),
            dns: DnsTally::default(),
        };
        for svc in &s.catalog.services {
            if !(svc.ecs_support && svc.mode == DeliveryMode::DnsRedirection) {
                continue;
            }
            if subset.is_some_and(|set| !set.contains(&svc.id)) {
                continue;
            }
            let dom = DomainKey::of(svc);
            let svc_stats = part.stats.entry(svc.id).or_default();
            let mut cells: Vec<Cell> = Vec::with_capacity(clients.len());
            let mut footprint: Vec<Ipv4Addr> = Vec::new();
            for run in clients.runs() {
                resolver.resolve_run_with_faults(
                    run,
                    dom,
                    faults,
                    &mut part.dns,
                    |rec, ans, fate| {
                        svc_stats.record(fate);
                        if let Some(addr) = ans {
                            // The prefix slice ascends, so cells arrive sorted.
                            cells.push(Cell {
                                service: svc.id,
                                prefix: rec.id,
                                addr,
                            });
                            // Consecutive prefixes of one network and city
                            // share a front-end, so skipping repeats of the
                            // last address keeps the list short; the sort
                            // below removes the rest.
                            if footprint.last() != Some(&addr) {
                                footprint.push(addr);
                            }
                        }
                    },
                );
            }
            part.issued += clients.len() as u64;
            // Lost resolutions leave the segment short of its capacity.
            cells.shrink_to_fit();
            part.mapping.push_segment(cells);
            if !footprint.is_empty() {
                // Sort footprints inside the shard so the merge never has to.
                // The shard holds every footprint until the merge: keep
                // only the deduplicated length.
                footprint.sort_unstable();
                footprint.dedup();
                footprint.shrink_to_fit();
                part.seen.insert(svc.id, footprint);
            }
        }
        part
    }

    /// All measured cells of one service, ascending by prefix id — the
    /// ECS technique's claim table for the quality audit, walkable in
    /// lockstep with an ascending prefix sweep (no per-cell map lookups).
    pub fn cells_of(&self, svc: ServiceId) -> impl Iterator<Item = (PrefixId, Ipv4Addr)> + '_ {
        self.mapping.cells_of(svc).map(|c| (c.prefix, c.addr))
    }

    /// Fraction of (prefix, service) cells whose measured front-end equals
    /// the ground-truth redirection target — the mapping's correctness.
    pub fn accuracy(&self, s: &Substrate) -> f64 {
        if self.mapping.is_empty() {
            return 0.0;
        }
        let mut ok = 0usize;
        for c in self.mapping.iter() {
            let rec = s.topo.prefixes.get(c.prefix);
            let truth = s.frontends.select(&s.topo, c.service, rec.owner, rec.city);
            if truth.addr == c.addr {
                ok += 1;
            }
        }
        ok as f64 / self.mapping.len() as f64
    }

    /// Traffic share of measurable services (the §3.2.3 ECS statistics:
    /// "15 of the top 20 sites support ECS, representing 35% of Internet
    /// traffic and 91% of traffic to the top 20 sites").
    pub fn measurable_traffic_share(&self, s: &Substrate) -> f64 {
        let measured: f64 = self
            .footprint
            .keys()
            .map(|&svc| s.catalog.get(svc).traffic_share)
            .sum();
        measured
    }
}

/// One shard's partial mapping output (disjoint prefix slice). Both the
/// cell run and the per-service footprints leave the shard sorted.
#[derive(Debug, Clone)]
pub struct UserMappingShard {
    mapping: CellMap,
    seen: BTreeMap<ServiceId, Vec<Ipv4Addr>>,
    issued: u64,
    /// Per-service fate accounting for this shard's slice.
    stats: BTreeMap<ServiceId, FaultStats>,
    dns: DnsTally,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::SubstrateConfig;

    fn setup() -> (Substrate, UserMapping) {
        let s = Substrate::build(SubstrateConfig::small(), 131).unwrap();
        let resolver = s.open_resolver().expect("open resolver");
        let m = UserMapping::measure(&s, &resolver);
        (s, m)
    }

    #[test]
    fn mapping_is_exact_for_ecs_services() {
        let (s, m) = setup();
        assert!(!m.mapping.is_empty());
        // ECS DNS redirection reveals the true mapping (the technique's
        // promise: "infer the users for all services that support ECS").
        let acc = m.accuracy(&s);
        assert!(acc > 0.999, "accuracy {acc}");
    }

    #[test]
    fn unmeasurable_services_are_the_non_ecs_ones() {
        let (s, m) = setup();
        for &svc in &m.unmeasurable {
            let info = s.catalog.get(svc);
            assert!(
                !info.ecs_support || info.mode != DeliveryMode::DnsRedirection,
                "{} wrongly unmeasurable",
                info.domain
            );
        }
        // Partition: measurable + unmeasurable = all services.
        assert_eq!(m.footprint.len() + m.unmeasurable.len(), s.catalog.len());
    }

    #[test]
    fn measurable_share_is_substantial_but_partial() {
        let (s, m) = setup();
        let share = m.measurable_traffic_share(&s);
        assert!(share > 0.15, "share {share:.3}");
        assert!(share < 0.95, "share {share:.3}");
    }

    #[test]
    fn footprints_are_sorted_and_real() {
        let (s, m) = setup();
        for (svc, addrs) in &m.footprint {
            for w in addrs.windows(2) {
                assert!(w[0] < w[1]);
            }
            for a in addrs {
                // Every observed front-end is a real endpoint of the service.
                assert!(
                    s.frontends.endpoints(*svc).iter().any(|e| e.addr == *a),
                    "phantom endpoint {a}"
                );
            }
        }
    }
}
