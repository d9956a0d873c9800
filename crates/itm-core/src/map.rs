//! The Internet Traffic Map: assembly and queries.
//!
//! [`TrafficMap::build`] runs the full §3 pipeline over a substrate:
//!
//! 1. **Users & activity** (§3.1): cache probing + root-log crawling,
//!    fused with the APNIC estimates.
//! 2. **Services & mapping** (§3.2): TLS scans for infrastructure, SNI
//!    scans for footprints, ECS mapping for user→host, anycast catchments
//!    for anycast services.
//! 3. **Routes** (§3.3): the public collector view augmented with
//!    cloud-VM-discovered links; paths predicted on demand.
//!
//! There is one pipeline: a private `run_pipeline` runs each campaign
//! once, in the order above (resolver deploy, cache probe, root crawl,
//! activity fusion, TLS+SNI, ECS mapping, anycast, public view + cloud
//! probe), recomputing the campaigns a [`DirtySet`] names and retaining
//! the rest from a previous map. A full build is that pipeline with
//! [`DirtySet::all`] and no previous map; an epoch's incremental rebuild
//! ([`crate::epoch::build_incremental`]) is the same pipeline with the
//! epoch's dirty set. Both record the same per-stage spans
//! (`resolver.deploy`, `users.activity`, `services.scan`,
//! `services.anycast`, `routes.assemble` with `routes.public_view` and
//! `routes.cloud_probe` inside). Both stages that walk routing trees
//! follow the cone rule ([`itm_routing::flapped_cones`]): a rebuilt
//! public view reuses the previous map's per-destination feeder links for
//! the trees no link flap reaches, and the anycast stage keeps the
//! previous catchments of every service none of whose origins a flap
//! reaches.
//!
//! The result is self-contained and serializable (minus the prediction
//! view, which is recomputed from stored links).

use crate::ParallelExecutor;
use itm_measure::{
    ActivityEstimator, CacheProbeCampaign, CacheProbeResult, CloudProbeResult, RootCrawlResult,
    RootCrawler, Substrate, UserMapping,
};
use itm_routing::{
    flapped_cones, AnycastDeployment, Catchments, CollectorSet, GraphView, VisibilityReport,
};
use itm_tls::{detect_offnets, OffnetFinding, ScanConfig, SniScan, TlsScan};
use itm_traffic::DeliveryMode;
use itm_types::epoch::{Campaign, DirtySet};
use itm_types::{
    Asn, DomainTable, FaultInjector, FaultPlan, FaultStats, Ipv4Addr, ItmError, PrefixId, Result,
    ServiceId,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Map-construction configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MapConfig {
    /// Cache-probing campaign parameters.
    pub cache_probe: CacheProbeCampaign,
    /// Root-crawl parameters.
    pub root_crawl: RootCrawler,
    /// TLS/SNI scan parameters.
    pub scan: ScanConfig,
    /// Anycast intra-AS site-selection noise (hot-potato artifacts).
    pub anycast_noise: f64,
    /// Fault plan the campaigns run under (off by default: the clean,
    /// byte-identical-to-seed pipeline).
    pub faults: FaultPlan,
    /// Record per-cell claim bitmaps and per-technique claim tables
    /// ([`crate::audit::MapClaims`]) at assembly time, for the quality
    /// audit. Off by default: a clean build's memory profile and summary
    /// are unchanged.
    #[serde(default)]
    pub record_claims: bool,
}

impl Default for MapConfig {
    fn default() -> Self {
        MapConfig {
            cache_probe: CacheProbeCampaign::default(),
            root_crawl: RootCrawler::default(),
            scan: ScanConfig::default(),
            anycast_noise: 0.15,
            faults: FaultPlan::off(),
            record_claims: false,
        }
    }
}

/// The assembled Internet Traffic Map.
pub struct TrafficMap {
    /// Component 1: prefixes identified as hosting users.
    pub user_prefixes: BTreeSet<PrefixId>,
    /// Component 1: relative activity per AS (fused estimate).
    pub activity: ActivityEstimator,
    /// Component 2: serving infrastructure per hypergiant (on-net).
    pub onnet_servers: Vec<OffnetFinding>,
    /// Component 2: off-net deployments detected.
    pub offnet_servers: Vec<OffnetFinding>,
    /// Component 2: per-service footprints from SNI scanning.
    pub sni_footprints: BTreeMap<ServiceId, Vec<Ipv4Addr>>,
    /// Component 2: measured user→host mapping (ECS services).
    pub user_mapping: UserMapping,
    /// Component 2: anycast catchments per anycast service.
    pub catchments: BTreeMap<ServiceId, Catchments>,
    /// Component 3: the topology view available for path prediction
    /// (public + cloud-augmented links).
    pub route_view: GraphView,
    /// Collector visibility statistics (E12 input).
    pub visibility: VisibilityReport,
    /// Raw campaign outputs kept for scoring.
    pub cache_result: CacheProbeResult,
    /// Root-crawl output kept for scoring.
    pub root_result: RootCrawlResult,
    /// Cloud-probing output kept for scoring.
    pub cloud_result: CloudProbeResult,
    /// Per-technique fault accounting (`observed + degraded + lost` per
    /// technique equals the probes issued). Empty when the map was built
    /// with faults off, so clean builds stay byte-identical.
    pub fault_report: BTreeMap<String, FaultStats>,
    /// Per-cell claim bitmaps and per-technique claim tables, recorded
    /// when [`MapConfig::record_claims`] is set (`None` otherwise — the
    /// audit rebuilds them on demand).
    pub claims: Option<crate::audit::MapClaims>,
}

impl TrafficMap {
    /// Run the full pipeline.
    ///
    /// Fails only when a measurement substrate component cannot be
    /// deployed (e.g. a degenerate topology with no cities).
    pub fn build(s: &Substrate, cfg: &MapConfig) -> Result<TrafficMap> {
        Self::build_with(s, cfg, &ParallelExecutor::sequential())
    }

    /// Run the full pipeline with a shard executor.
    ///
    /// Campaigns split into a fixed number of shards (a function of input
    /// size only) and `exec` decides how many threads run them; partial
    /// results merge in shard-index order, so the map — and its JSON
    /// summary — is byte-identical for any thread count.
    pub fn build_with(
        s: &Substrate,
        cfg: &MapConfig,
        exec: &ParallelExecutor,
    ) -> Result<TrafficMap> {
        let _span = itm_obs::span("map.build");
        let _campaign = itm_obs::trace::campaign(
            itm_obs::trace::Technique::MapAssembly,
            "traffic map assembly",
        );
        run_pipeline(s, cfg, exec, None, &DirtySet::all())
            .map_err(|e| ItmError::in_campaign("map.build", e))
    }

    /// The AS the map believes serves `(client_prefix, service)`.
    pub fn serving_as_for(
        &self,
        s: &Substrate,
        client_prefix: PrefixId,
        service: ServiceId,
    ) -> Option<Asn> {
        // ECS-measured mapping first.
        if let Some(addr) = self.user_mapping.mapping.get(service, client_prefix) {
            return s.topo.prefixes.lookup(addr).map(|r| r.owner);
        }
        // Anycast: the catchment's site AS.
        if let Some(c) = self.catchments.get(&service) {
            let client_as = s.topo.prefixes.get(client_prefix).owner;
            if let Some(site) = c.site_of(client_as) {
                let e = s.frontends.endpoints(service).get(site.index())?;
                return Some(e.offnet_host.unwrap_or(e.asn));
            }
        }
        // Fallback: the service owner's AS.
        Some(s.catalog.get(service).owner.serving_as())
    }

    /// Total number of distinct serving addresses the map knows about.
    pub fn known_server_count(&self) -> usize {
        let mut addrs: BTreeSet<u32> = BTreeSet::new();
        for f in self.onnet_servers.iter().chain(&self.offnet_servers) {
            addrs.insert(f.addr.0);
        }
        for v in self.sni_footprints.values() {
            addrs.extend(v.iter().map(|a| a.0));
        }
        addrs.len()
    }
}

/// The one campaign sequence behind both [`TrafficMap::build_with`] and
/// [`crate::epoch::build_incremental`].
///
/// Each campaign is recomputed when `dirty` names it and otherwise taken
/// from `prev`; with no `prev` every campaign runs, so a full build is
/// the incremental build with everything dirty. Retention relies on the
/// closure rules of [`DirtySet::normalize`] (cache/root ⇒ activity,
/// cloud probe ⇔ routes, TLS ⇒ SNI).
pub(crate) fn run_pipeline(
    s: &Substrate,
    cfg: &MapConfig,
    exec: &ParallelExecutor,
    prev: Option<TrafficMap>,
    dirty: &DirtySet,
) -> Result<TrafficMap> {
    let injector = |campaign: &str| FaultInjector::new(cfg.faults.clone(), &s.seeds, campaign);
    let keep = |c: Campaign| !dirty.is_dirty(c);

    // The previous build's components, each `None` on a fresh build. The
    // TLS/SNI pair travels with its fault-report entries, which are the
    // only record of those scans' statistics a map keeps.
    let (p_cache, p_root, p_activity, p_scans, p_mapping, p_catchments, p_routes) = match prev {
        Some(p) => {
            let stats = |k: &str| p.fault_report.get(k).copied();
            let (tls, sni) = (stats("tls_scan"), stats("sni_scan"));
            (
                Some(p.cache_result),
                Some(p.root_result),
                Some(p.activity),
                Some((
                    p.onnet_servers,
                    p.offnet_servers,
                    p.sni_footprints,
                    tls,
                    sni,
                )),
                Some(p.user_mapping),
                Some(p.catchments),
                Some((p.route_view, p.visibility, p.cloud_result)),
            )
        }
        None => Default::default(),
    };

    // ---- Component 1: users + activity ----
    let users_span = itm_obs::span("users.activity");
    // The resolver deployment is a pure function of the substrate and
    // costs a per-city nearest-PoP pass, so every build redeploys it
    // rather than threading it through the dirty branches. Its one
    // expensive table (PoP-wide rates) is built only if something probes
    // a PoP-scope domain, which no map campaign does.
    let resolver = {
        let _span = itm_obs::span("resolver.deploy");
        s.open_resolver()?
    };
    let cache_result = match p_cache {
        Some(x) if keep(Campaign::CacheProbe) => x,
        _ => cfg
            .cache_probe
            .run_with_faults(s, &resolver, &injector("cache_probe"), |n, job| {
                exec.map(n, job)
            }),
    };
    let root_result = match p_root {
        Some(x) if keep(Campaign::RootCrawl) => x,
        _ => cfg
            .root_crawl
            .run_with_faults(s, &resolver, &injector("root_crawl"), |n, job| {
                exec.map(n, job)
            }),
    };
    let activity = match p_activity {
        Some(x) if keep(Campaign::Activity) => x,
        _ => {
            ActivityEstimator::fuse_with(s, &cache_result, &root_result, |n, job| exec.map(n, job))
        }
    };
    let user_prefixes = cache_result.discovered.clone();
    drop(users_span);

    // ---- Component 2: services ----
    let services_span = itm_obs::span("services.scan");
    // The SNI scan resolves against the TLS scan's candidate table, which
    // the map does not keep, so the pair recomputes together.
    let (onnet_servers, offnet_servers, sni_footprints, tls_stats, sni_stats) = match p_scans {
        Some(x) if keep(Campaign::TlsScan) && keep(Campaign::SniScan) => x,
        _ => {
            let scan = TlsScan::run_with_faults(
                &s.topo,
                &s.tls,
                &cfg.scan,
                &s.seeds,
                &injector("tls-scan"),
                |n, job| exec.map(n, job),
            );
            let (onnet, offnet) = detect_offnets(&s.topo, &s.tls, &scan);
            let candidates: Vec<Ipv4Addr> = scan.observations.iter().map(|o| o.addr).collect();
            // Intern the catalogue's domains once; the SNI campaign and its
            // shards carry 4-byte ids instead of cloned strings.
            let domains = DomainTable::from_names(s.catalog.services.iter().map(|x| &x.domain));
            let sni = SniScan::run_with_faults(
                &s.tls,
                &candidates,
                &domains,
                &cfg.scan,
                &s.seeds,
                &injector("sni-scan"),
                |n, job| exec.map(n, job),
            );
            let footprints = s
                .catalog
                .services
                .iter()
                .map(|svc| (svc.id, sni.addresses_of(&domains, &svc.domain).to_vec()))
                .collect();
            (
                onnet,
                offnet,
                footprints,
                Some(scan.fault_stats),
                Some(sni.fault_stats),
            )
        }
    };
    let ecs_faults = injector("user_mapping");
    let user_mapping = match p_mapping {
        Some(x) if keep(Campaign::UserMapping) => x,
        // Named services: re-measure only those and splice their
        // segments over the retained grid. No names means the grid was
        // invalidated wholesale.
        Some(x) if !dirty.services.is_empty() => {
            let fresh = UserMapping::measure_subset_with_faults(
                s,
                &resolver,
                &dirty.services,
                &ecs_faults,
                |n, job| exec.map(n, job),
            );
            x.splice(fresh, &dirty.services)
        }
        _ => UserMapping::measure_with_faults(s, &resolver, &ecs_faults, |n, job| exec.map(n, job)),
    };
    drop(services_span);

    // Per AS, whether it lies in the cone of a link whose flap state
    // differs from the previous public view's: the trees a flap can
    // change are those with an origin marked here. `None` (no previous
    // map, or a transit link changed) marks every AS.
    let anycast_span = itm_obs::span("services.anycast");
    let full = s.full_view();
    let reach = p_routes
        .as_ref()
        .and_then(|(_, v, _)| flapped_cones(&s.topo, &full, v.links_down()?));

    // Anycast catchments: one shard per anycast service whose tree the
    // flaps can reach, the rest kept from the previous map, merged into
    // a BTreeMap (disjoint service keys).
    let catchments = match p_catchments {
        Some(x) if keep(Campaign::Anycast) => x,
        p => {
            let mut kept = p.unwrap_or_default();
            let mut todo: Vec<(ServiceId, AnycastDeployment)> = Vec::new();
            for svc in &s.catalog.services {
                if svc.mode != DeliveryMode::Anycast {
                    continue;
                }
                let sites: Vec<(Asn, u32)> = s
                    .frontends
                    .endpoints(svc.id)
                    .iter()
                    .map(|e| (e.offnet_host.unwrap_or(e.asn), e.city))
                    .collect();
                let dep = AnycastDeployment::new(&s.topo, &sites, cfg.anycast_noise);
                let reached = reach
                    .as_ref()
                    .is_none_or(|r| dep.origin_ases().iter().any(|o| r[o.index()]));
                if reached || !kept.contains_key(&svc.id) {
                    todo.push((svc.id, dep));
                }
            }
            itm_obs::counter!("routing.anycast.catchments_recomputed").add(todo.len() as u64);
            let computed = exec.map(todo.len(), &|k| {
                let (svc, dep) = &todo[k];
                (
                    *svc,
                    Catchments::compute(&s.topo, &full, dep, &s.seeds.child("map-anycast")),
                )
            });
            kept.extend(computed);
            kept
        }
    };
    drop(anycast_span);

    // ---- Component 3: routes ----
    let routes_span = itm_obs::span("routes.assemble");
    let (route_view, visibility, cloud_result) = match p_routes {
        Some(x) if keep(Campaign::Routes) => x,
        // The previous view's per-destination feeder links let the public
        // view recompute only the trees a link flap can reach.
        p => {
            let (public_view, visibility) = {
                let _span = itm_obs::span("routes.public_view");
                let prev = p.as_ref().zip(reach.as_deref());
                CollectorSet::typical(&s.topo, &s.seeds).public_view_with(
                    &s.topo,
                    &full,
                    prev.map(|((_, v, _), r)| (v, r)),
                    |n, job| exec.map(n, job),
                )
            };
            let cloud_result = {
                let _span = itm_obs::span("routes.cloud_probe");
                CloudProbeResult::run_with_faults(
                    s,
                    &full,
                    &s.seeds,
                    &injector("cloud_probe"),
                    |n, job| exec.map(n, job),
                )
            };
            let route_view = public_view.with_extra_links(cloud_result.as_links(s).iter());
            (route_view, visibility, cloud_result)
        }
    };
    drop(routes_span);

    // Per-technique fault accounting. Populated only when the plan is
    // on: a clean build carries no report, which keeps its JSON summary
    // byte-identical to builds that predate fault injection. Retained
    // campaigns carry their stats with them (identical by the purity
    // argument in the epoch module docs).
    let mut fault_report: BTreeMap<String, FaultStats> = BTreeMap::new();
    if !cfg.faults.is_off() {
        let entries = [
            ("cache_probe", Some(cache_result.fault_stats)),
            ("root_crawl", Some(root_result.fault_stats)),
            ("tls_scan", tls_stats),
            ("sni_scan", sni_stats),
            ("ecs_mapping", Some(user_mapping.fault_stats)),
            ("cloud_probe", Some(cloud_result.fault_stats)),
        ];
        for (key, st) in entries {
            if let Some(st) = st {
                fault_report.insert(key.into(), st);
            }
        }
    }

    let mut map = TrafficMap {
        user_prefixes,
        activity,
        onnet_servers,
        offnet_servers,
        sni_footprints,
        user_mapping,
        catchments,
        route_view,
        visibility,
        cache_result,
        root_result,
        cloud_result,
        fault_report,
        claims: None,
    };
    // Claim recording reads the assembled map, so it runs last; gated
    // because the tables cost memory a clean build must not pay.
    if cfg.record_claims {
        map.claims = Some(crate::audit::MapClaims::record(s, &map));
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use itm_measure::SubstrateConfig;

    fn build() -> (Substrate, TrafficMap) {
        let s = Substrate::build(SubstrateConfig::small(), 139).unwrap();
        let m = TrafficMap::build(&s, &MapConfig::default()).expect("map build");
        (s, m)
    }

    #[test]
    fn map_has_all_components() {
        let (s, m) = build();
        assert!(!m.user_prefixes.is_empty());
        assert!(!m.activity.is_empty());
        assert!(!m.onnet_servers.is_empty());
        assert!(m.known_server_count() > 0);
        assert!(!m.user_mapping.mapping.is_empty());
        // Every anycast service has catchments.
        let anycast = s
            .catalog
            .services
            .iter()
            .filter(|x| x.mode == DeliveryMode::Anycast)
            .count();
        assert_eq!(m.catchments.len(), anycast);
    }

    #[test]
    fn route_view_is_public_plus_cloud() {
        let (s, m) = build();
        // The augmented view has at least as many edges as any cloud
        // discovered link set alone and is a subset of ground truth.
        assert!(m.route_view.n_edges_directed() <= s.full_view().n_edges_directed());
        for &(a, b) in &m.cloud_result.links {
            assert!(m.route_view.has_edge(a, b));
        }
    }
}
