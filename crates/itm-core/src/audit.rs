//! Truth-conditioned map-quality auditing (the "five blind men" scorer).
//!
//! The map fuses several partial measurement views: ECS mapping, anycast
//! catchments, TLS/SNI footprints, the catalogue prior, cache probing,
//! root crawling, and cloud traceroutes. Each sees a slice of the truth;
//! where slices overlap they can disagree. Because the substrate is
//! synthetic, every technique's view is exactly scorable — this module
//! owns the sweep: it enumerates the cell universe, derives each
//! technique's claim from compact per-technique claim tables
//! ([`MapClaims`]), compares the claims against ground truth, and rolls
//! the verdicts into an [`itm_obs::QualityReport`].
//!
//! Three claim planes:
//!
//! * **replica** — a claim names the AS serving a `(service, prefix)`
//!   cell. Estimators: `ecs` (the measured mapping), `anycast` (BGP
//!   catchments), `tls_nearest` (geodesically nearest SNI-confirmed
//!   front-end — the classic scan-derived assignment heuristic),
//!   `catalog_prior` (the operator's home AS), and `fused` (the map's own
//!   [`TrafficMap::serving_as_for`] cascade).
//! * **presence** — a claim asserts "users live here": `cache_probe` at
//!   prefix granularity, `root_crawl` at AS granularity.
//! * **routes** — a claim asserts an inter-AS link exists: `cloud_probe`
//!   against the ground-truth link set.
//!
//! Ground truth for a replica cell is the substrate's redirection policy
//! ([`itm_dns::FrontendDirectory::select`]): the off-net inside the
//! client's AS when one exists, else the geodesically nearest on-net PoP.
//! Anycast services are scored against the same intent — the catchment
//! estimator's gap to it (BGP path choice plus hot-potato noise) is
//! exactly the §3.2.3 open problem the audit is meant to expose.
//!
//! Everything here is a pure function of `(substrate, map)`. The map is
//! byte-identical across thread counts, so the audit — and its JSON — is
//! too.

use crate::map::TrafficMap;
use itm_measure::Substrate;
use itm_obs::quality::{DisagreementIndex, PairwiseAgreement, QualityReport, TechniqueAudit};
use itm_obs::Verdict;
use itm_topology::PrefixKind;
use itm_traffic::{DeliveryMode, Service};
use itm_types::{Asn, Ipv4Addr, PrefixId, ServiceId};
use std::collections::BTreeMap;

/// Claim-bitmap bits: which techniques back one measured mapping cell.
pub mod bits {
    /// Cache probing found users in the cell's prefix.
    pub const CACHE_PROBE: u8 = 1 << 0;
    /// The root crawl saw queries from the cell's AS.
    pub const ROOT_CRAWL: u8 = 1 << 1;
    /// The ECS campaign measured the cell directly.
    pub const ECS: u8 = 1 << 2;
    /// A catchment assigns the cell's AS to a serving site.
    pub const ANYCAST: u8 = 1 << 3;
    /// An SNI-confirmed front-end exists for the cell's service.
    pub const TLS_NEAREST: u8 = 1 << 4;
    /// The catalogue prior always speaks.
    pub const CATALOG_PRIOR: u8 = 1 << 5;
}

/// Compact per-technique claim tables, plus the per-cell claim bitmap.
///
/// Recorded at assembly time when [`crate::MapConfig::record_claims`] is
/// set (or its tables rebuilt on demand by [`audit`] and the snapshot
/// writer, which need no stored bitmap): dense vectors keyed by the
/// same raw indices the rest of the pipeline uses, so deriving any cell's
/// claim set is O(log services) — cheap enough to sweep hundreds of
/// millions of cells.
#[derive(Debug, Clone, Default)]
pub struct MapClaims {
    /// One bitmap byte per measured mapping cell, in
    /// `user_mapping.mapping` iteration order (sorted by `(service,
    /// prefix)`). See [`bits`].
    pub cell_bits: Vec<u8>,
    /// Per anycast service: catchment-derived serving AS per client AS
    /// (dense ASN index; `None` = unreachable).
    anycast_site_as: BTreeMap<ServiceId, Vec<Option<Asn>>>,
    /// Per SNI-footprinted service: owner AS of the geodesically nearest
    /// confirmed front-end, per city (ties toward the smaller address).
    tls_nearest_as: BTreeMap<ServiceId, Vec<Option<Asn>>>,
    /// The catalogue prior per service index.
    catalog_prior_as: Vec<Asn>,
    /// Serving address → host AS, memoized over every address the map's
    /// footprints mention.
    addr_owner: BTreeMap<u32, Asn>,
    /// Cache-probe presence claim per prefix index.
    cache_prefix: Vec<bool>,
    /// Root-crawl presence claim per AS index.
    root_as: Vec<bool>,
}

impl MapClaims {
    /// Build the claim tables from an assembled map, with the per-cell
    /// claim bitmap.
    pub fn record(s: &Substrate, map: &TrafficMap) -> MapClaims {
        let _span = itm_obs::span("map.claims");
        let mut claims = MapClaims::tables(s, map);
        let cells = &map.user_mapping.mapping;
        let derive = CellClaims::new(&claims, s);
        let mut cell_bits = Vec::with_capacity(cells.len());
        for seg in cells.segments() {
            let Some(svc) = seg.first().map(|c| derive.service(c.service)) else {
                continue;
            };
            cell_bits.extend(seg.iter().map(|c| derive.bits(&svc, c.prefix)));
        }
        claims.cell_bits = cell_bits;
        claims
    }

    /// The claim tables alone: everything [`MapClaims::record`] builds
    /// but the per-cell bitmap.
    pub(crate) fn tables(s: &Substrate, map: &TrafficMap) -> MapClaims {
        let n_prefixes = s.topo.prefixes.len();
        let n_ases = s.topo.n_ases();

        let cache_prefix = map.cache_result.presence_claims(n_prefixes);
        let mut root_as = vec![false; n_ases];
        for a in map.root_result.claimed_as_set(s) {
            if let Some(slot) = root_as.get_mut(a.index()) {
                *slot = true;
            }
        }

        let mut anycast_site_as = BTreeMap::new();
        for (&svc, c) in &map.catchments {
            let eps = s.frontends.endpoints(svc);
            let mut per_as = vec![None; n_ases];
            for (client, site) in c.iter() {
                if let Some(e) = eps.get(site.index()) {
                    per_as[client.index()] = Some(e.offnet_host.unwrap_or(e.asn));
                }
            }
            anycast_site_as.insert(svc, per_as);
        }

        let n_cities = s.topo.world.cities.len() as u32;
        let mut tls_nearest_as = BTreeMap::new();
        for (&svc, addrs) in &map.sni_footprints {
            // (city, address, host AS) per confirmed front-end.
            let fronts: Vec<(u32, Ipv4Addr, Asn)> = addrs
                .iter()
                .filter_map(|&a| s.topo.prefixes.lookup(a).map(|r| (r.city, a, r.owner)))
                .collect();
            if fronts.is_empty() {
                continue;
            }
            let nearest =
                nearest_front_per_city(fronts, n_cities, |from, to| s.topo.city_km(from, to));
            tls_nearest_as.insert(svc, nearest);
        }

        let catalog_prior_as: Vec<Asn> = s
            .catalog
            .services
            .iter()
            .map(|svc| svc.owner.serving_as())
            .collect();

        let mut addr_owner: BTreeMap<u32, Asn> = BTreeMap::new();
        for addrs in map
            .user_mapping
            .footprint
            .values()
            .chain(map.sni_footprints.values())
        {
            for &a in addrs {
                if let Some(r) = s.topo.prefixes.lookup(a) {
                    addr_owner.insert(a.0, r.owner);
                }
            }
        }

        MapClaims {
            cell_bits: Vec::new(),
            anycast_site_as,
            tls_nearest_as,
            catalog_prior_as,
            addr_owner,
            cache_prefix,
            root_as,
        }
    }

    /// The catchment estimator's serving-AS claim for a cell.
    pub fn anycast_claim(&self, svc: ServiceId, client: Asn) -> Option<Asn> {
        table_claim(self.anycast_site_as.get(&svc), client.index())
    }

    /// The nearest-SNI-front-end claim for a cell.
    pub fn tls_claim(&self, svc: ServiceId, city: u32) -> Option<Asn> {
        table_claim(self.tls_nearest_as.get(&svc), city as usize)
    }

    /// The catalogue prior's claim (always present for a valid service).
    pub fn prior_claim(&self, svc: ServiceId) -> Option<Asn> {
        self.catalog_prior_as.get(svc.index()).copied()
    }

    /// Host AS of a serving address (memoized footprint lookup).
    pub fn owner_of(&self, addr: Ipv4Addr) -> Option<Asn> {
        self.addr_owner.get(&addr.0).copied()
    }

    /// Whether cache probing claims the prefix hosts users.
    pub fn cache_claim(&self, p: PrefixId) -> bool {
        self.cache_prefix.get(p.index()).copied().unwrap_or(false)
    }

    /// Whether the root crawl claims the AS hosts users.
    pub fn root_claim(&self, a: Asn) -> bool {
        self.root_as.get(a.index()).copied().unwrap_or(false)
    }
}

/// The claim tables in the shape the per-cell bitmap is derived from:
/// the bits every cell of a prefix shares whatever its service (ECS, the
/// catalogue prior, the prefix's cache-probe claim and its AS's
/// root-crawl claim), and each prefix's owner and city, through which a
/// service's [`ServiceClaims`] add the rest. No per-cell lookup is left.
pub(crate) struct CellClaims<'c> {
    claims: &'c MapClaims,
    prefix_bits: Vec<u8>,
    owners: Vec<u32>,
    cities: Vec<u32>,
}

/// One service's claim bits by client AS ([`bits::ANYCAST`]) and by
/// client city ([`bits::TLS_NEAREST`]); empty when the service has no
/// such claim table, as no DNS-redirected service has a catchment.
pub(crate) struct ServiceClaims {
    anycast: Vec<u8>,
    tls: Vec<u8>,
}

impl<'c> CellClaims<'c> {
    pub(crate) fn new(claims: &'c MapClaims, s: &Substrate) -> CellClaims<'c> {
        let prefixes = &s.topo.prefixes;
        CellClaims {
            claims,
            prefix_bits: prefixes
                .iter()
                .map(|rec| {
                    let mut b = bits::ECS | bits::CATALOG_PRIOR;
                    if claims.cache_claim(rec.id) {
                        b |= bits::CACHE_PROBE;
                    }
                    if claims.root_claim(rec.owner) {
                        b |= bits::ROOT_CRAWL;
                    }
                    b
                })
                .collect(),
            owners: prefixes.iter().map(|rec| rec.owner.raw()).collect(),
            cities: prefixes.iter().map(|rec| rec.city).collect(),
        }
    }

    /// The claim bits of `svc`'s cells, by client AS and city.
    pub(crate) fn service(&self, svc: ServiceId) -> ServiceClaims {
        let table_bits = |table: Option<&Vec<Option<Asn>>>, bit: u8| -> Vec<u8> {
            table.map_or_else(Vec::new, |t| {
                t.iter()
                    .map(|c| if c.is_some() { bit } else { 0 })
                    .collect()
            })
        };
        ServiceClaims {
            anycast: table_bits(self.claims.anycast_site_as.get(&svc), bits::ANYCAST),
            tls: table_bits(self.claims.tls_nearest_as.get(&svc), bits::TLS_NEAREST),
        }
    }

    /// The claim bitmap of `svc`'s cell for prefix `p`.
    #[inline]
    pub(crate) fn bits(&self, svc: &ServiceClaims, p: PrefixId) -> u8 {
        let p = p.index();
        let at = |table: &[u8], i: Option<&u32>| {
            i.and_then(|&i| table.get(i as usize)).copied().unwrap_or(0)
        };
        let mut b = self.prefix_bits.get(p).copied().unwrap_or(0);
        if !svc.anycast.is_empty() {
            b |= at(&svc.anycast, self.owners.get(p));
        }
        if !svc.tls.is_empty() {
            b |= at(&svc.tls, self.cities.get(p));
        }
        b
    }
}

/// One entry of a per-service claim table (`None` if the service has no
/// table or the table is silent at `i`).
fn table_claim(table: Option<&Vec<Option<Asn>>>, i: usize) -> Option<Asn> {
    table.and_then(|t| t.get(i).copied().flatten())
}

/// The TLS-nearest claim of one service for every client city below
/// `n_cities`: the host AS of the geodesically nearest confirmed
/// front-end, ties toward the smaller address. `fronts` holds `(city,
/// address, host AS)` per front-end, and `km(from, to)` is the distance
/// from front-end city `from` to client city `to`.
///
/// Front-ends in one city are equally far from every client, so only the
/// smallest address of each city can win: the argmin runs over front-end
/// cities, not front-ends.
fn nearest_front_per_city(
    mut fronts: Vec<(u32, Ipv4Addr, Asn)>,
    n_cities: u32,
    km: impl Fn(u32, u32) -> f64,
) -> Vec<Option<Asn>> {
    // Keep each city's smallest address.
    fronts.sort_by_key(|&(city, addr, _)| (city, addr));
    fronts.dedup_by_key(|&mut (city, _, _)| city);
    (0..n_cities)
        .map(|to| {
            fronts
                .iter()
                .min_by(|a, b| km(a.0, to).total_cmp(&km(b.0, to)).then(a.1.cmp(&b.1)))
                .map(|&(_, _, host)| host)
        })
        .collect()
}

/// Replica-plane technique names, indexed as the audit tallies them: the
/// four estimators in the order each cell's claims are listed, then
/// `fused`.
pub const REPLICA_TECHNIQUES: [&str; 5] =
    ["ecs", "anycast", "tls_nearest", "catalog_prior", "fused"];

/// One cell's replica-plane claims, in [`REPLICA_TECHNIQUES`] order, and
/// the `fused` claim: the [`TrafficMap::serving_as_for`] cascade of ECS,
/// then the catchment, then the prior. `ecs` is the host AS of the cell's
/// measured address; the tables and `prior` are the service's own.
fn replica_claims(
    ecs: Option<Asn>,
    anycast_table: Option<&Vec<Option<Asn>>>,
    tls_table: Option<&Vec<Option<Asn>>>,
    prior: Option<Asn>,
    owner: Asn,
    city: u32,
) -> ([Option<Asn>; 4], Option<Asn>) {
    let anycast = table_claim(anycast_table, owner.index());
    let tls = table_claim(tls_table, city as usize);
    ([ecs, anycast, tls, prior], ecs.or(anycast).or(prior))
}

/// One prefix of the audited universe, with everything the per-cell loop
/// needs precomputed.
struct UniversePrefix {
    id: PrefixId,
    owner: Asn,
    city: u32,
    /// Index into [`POPULATION_TIERS`].
    tier: usize,
    populated: bool,
}

/// The delivery classes services are audited under.
const SERVICE_CLASSES: [&str; 4] = ["anycast", "custom_url", "dns_ecs", "dns_no_ecs"];

/// The prefix population tiers, by user count against the p50 and p90
/// of populated prefixes.
const POPULATION_TIERS: [&str; 4] = ["t0_none", "t1_low", "t2_mid", "t3_high"];

/// The delivery class a service is audited under, as an index into
/// [`SERVICE_CLASSES`].
fn service_class(svc: &Service) -> usize {
    match (svc.mode, svc.ecs_support) {
        (DeliveryMode::Anycast, _) => 0,
        (DeliveryMode::CustomUrl, _) => 1,
        (DeliveryMode::DnsRedirection, true) => 2,
        (DeliveryMode::DnsRedirection, false) => 3,
    }
}

/// The population tier of a prefix with `users` users, as an index into
/// [`POPULATION_TIERS`].
fn population_tier(users: f64, p50: f64, p90: f64) -> usize {
    if users <= 0.0 {
        0
    } else if users <= p50 {
        1
    } else if users <= p90 {
        2
    } else {
        3
    }
}

fn verdict_for(claim: Option<Asn>, truth: Asn) -> Verdict {
    match claim {
        Some(c) if c == truth => Verdict::Asserted,
        Some(_) => Verdict::Contradicted,
        None => Verdict::Silent,
    }
}

/// The ground-truth serving AS for one `(service, prefix)` cell: the
/// substrate's redirection policy (off-net in the client AS, else the
/// nearest on-net PoP).
pub fn truth_serving_as(s: &Substrate, svc: ServiceId, owner: Asn, city: u32) -> Asn {
    let e = s.frontends.select(&s.topo, svc, owner, city);
    e.offnet_host.unwrap_or(e.asn)
}

/// Run the full quality audit of a map against its substrate.
///
/// Pure function of `(substrate, map)`: reuses the map's recorded claim
/// tables when [`crate::MapConfig::record_claims`] was on, rebuilds them
/// otherwise, and returns the same report either way.
pub fn audit(s: &Substrate, map: &TrafficMap) -> QualityReport {
    let _span = itm_obs::span("map.audit");
    let rebuilt;
    let claims = match &map.claims {
        Some(c) => c,
        None => {
            let _span = itm_obs::span("map.claims");
            rebuilt = MapClaims::tables(s, map);
            &rebuilt
        }
    };

    // ---- Cell universe: user-access prefixes ∪ cache-discovered ones ----
    let universe_ids: Vec<PrefixId> = s
        .topo
        .prefixes
        .iter()
        .filter(|r| r.kind == PrefixKind::UserAccess || claims.cache_claim(r.id))
        .map(|r| r.id)
        .collect();

    // Population-tier thresholds: p50/p90 of positive user counts.
    let mut positive: Vec<f64> = universe_ids
        .iter()
        .map(|&p| s.users.users_of(p))
        .filter(|&u| u > 0.0)
        .collect();
    positive.sort_by(|a, b| a.total_cmp(b));
    let pick = |q: usize| -> f64 {
        if positive.is_empty() {
            0.0
        } else {
            positive[(positive.len() * q / 100).min(positive.len() - 1)]
        }
    };
    let (p50, p90) = (pick(50), pick(90));

    let universe: Vec<UniversePrefix> = universe_ids
        .iter()
        .map(|&p| {
            let rec = s.topo.prefixes.get(p);
            let users = s.users.users_of(p);
            UniversePrefix {
                id: p,
                owner: rec.owner,
                city: rec.city,
                tier: population_tier(users, p50, p90),
                populated: users > 0.0,
            }
        })
        .collect();

    let mut report = QualityReport {
        seed: s.seed,
        services: s.catalog.len() as u64,
        prefixes: universe.len() as u64,
        cells: (s.catalog.len() as u64) * (universe.len() as u64),
        tier_p50: p50,
        tier_p90: p90,
        ..QualityReport::default()
    };

    // ---- Replica plane ----
    let mut audits = REPLICA_TECHNIQUES
        .map(|_| TechniqueAudit::new("replica", &SERVICE_CLASSES, &POPULATION_TIERS));
    let mut disagreement = DisagreementIndex::new(&REPLICA_TECHNIQUES);
    let mut pairwise = PairwiseAgreement::new(&REPLICA_TECHNIQUES);

    for svc in &s.catalog.services {
        let class = service_class(svc);
        let anycast_table = claims.anycast_site_as.get(&svc.id);
        let tls_table = claims.tls_nearest_as.get(&svc.id);
        let prior = claims.prior_claim(svc.id);
        // Walk the service's measured cells in lockstep with the
        // ascending prefix sweep: both are sorted by prefix id.
        let mut measured = map.user_mapping.cells_of(svc.id).peekable();
        for up in &universe {
            let truth = truth_serving_as(s, svc.id, up.owner, up.city);
            let mut ecs = None;
            while let Some(&(mp, addr)) = measured.peek() {
                if mp < up.id {
                    measured.next();
                } else {
                    if mp == up.id {
                        ecs = claims.owner_of(addr);
                    }
                    break;
                }
            }
            let (replica, fused) =
                replica_claims(ecs, anycast_table, tls_table, prior, up.owner, up.city);

            // The cell's claims, by technique index: the estimators',
            // then the fused one.
            let mut cell = [(0, 0); REPLICA_TECHNIQUES.len()];
            let mut claimed = 0;
            for (t, claim) in replica.into_iter().chain([fused]).enumerate() {
                audits[t].record(Some(class), Some(up.tier), verdict_for(claim, truth), true);
                if let Some(c) = claim {
                    cell[claimed] = (t, c.raw());
                    claimed += 1;
                }
            }
            let estimators = claimed - usize::from(fused.is_some());
            disagreement.observe(&cell[..estimators]);
            pairwise.observe(&cell[..claimed]);
        }
    }

    // ---- Presence plane ----
    let mut cache = TechniqueAudit::new("presence", &[], &POPULATION_TIERS);
    let mut populated_as = vec![false; s.topo.n_ases()];
    for up in &universe {
        let claimed = claims.cache_claim(up.id);
        let v = match (claimed, up.populated) {
            (true, true) => Verdict::Asserted,
            (true, false) => Verdict::Contradicted,
            (false, _) => Verdict::Silent,
        };
        cache.record(None, Some(up.tier), v, up.populated);
        if up.populated {
            if let Some(slot) = populated_as.get_mut(up.owner.index()) {
                *slot = true;
            }
        }
    }
    let mut root = TechniqueAudit::new("presence", &[], &[]);
    for (i, &truth) in populated_as.iter().enumerate() {
        let asn = Asn(i as u32);
        let v = match (claims.root_claim(asn), truth) {
            (true, true) => Verdict::Asserted,
            (true, false) => Verdict::Contradicted,
            (false, _) => Verdict::Silent,
        };
        root.record(None, None, v, truth);
    }

    // ---- Routes plane ----
    let mut cloud = TechniqueAudit::new("routes", &[], &[]);
    let truth_links: std::collections::BTreeSet<(Asn, Asn)> =
        s.topo.links.iter().map(|l| l.key()).collect();
    let claimed_links = map.cloud_result.claimed_links();
    for link in truth_links.union(claimed_links) {
        let is_true = truth_links.contains(link);
        let v = match (claimed_links.contains(link), is_true) {
            (true, true) => Verdict::Asserted,
            (true, false) => Verdict::Contradicted,
            (false, _) => Verdict::Silent,
        };
        cloud.record(None, None, v, is_true);
    }

    for (name, a) in REPLICA_TECHNIQUES.into_iter().zip(audits) {
        report.techniques.insert(name.to_string(), a);
    }
    report.techniques.insert("cache_probe".to_string(), cache);
    report.techniques.insert("root_crawl".to_string(), root);
    report.techniques.insert("cloud_probe".to_string(), cloud);
    report.disagreement = disagreement;
    report.pairwise = pairwise;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::MapConfig;
    use itm_measure::SubstrateConfig;
    use itm_types::GeoPoint;

    fn build() -> (Substrate, TrafficMap) {
        let s = Substrate::build(SubstrateConfig::small(), 139).unwrap();
        let cfg = MapConfig {
            record_claims: true,
            ..MapConfig::default()
        };
        let m = TrafficMap::build(&s, &cfg).expect("map build");
        (s, m)
    }

    /// The TLS-nearest estimator as first written: for every city, a
    /// `min_by` over all confirmed front-ends, two haversines per
    /// comparison. Kept as the oracle for [`nearest_front_per_city`].
    fn brute_force_nearest(
        fronts: &[(GeoPoint, Ipv4Addr, Asn)],
        locs: &[GeoPoint],
    ) -> Vec<Option<Asn>> {
        locs.iter()
            .map(|&loc| {
                fronts
                    .iter()
                    .min_by(|a, b| {
                        a.0.distance_km(loc)
                            .total_cmp(&b.0.distance_km(loc))
                            .then(a.1.cmp(&b.1))
                    })
                    .map(|&(_, _, host)| host)
            })
            .collect()
    }

    /// Both estimators over hand-placed cities and `(city, address, AS)`
    /// front-ends.
    fn nearest_both_ways(
        locs: &[GeoPoint],
        fronts: &[(u32, u32, u32)],
    ) -> (Vec<Option<Asn>>, Vec<Option<Asn>>) {
        let fast: Vec<_> = fronts
            .iter()
            .map(|&(c, a, h)| (c, Ipv4Addr(a), Asn(h)))
            .collect();
        let slow: Vec<_> = fronts
            .iter()
            .map(|&(c, a, h)| (locs[c as usize], Ipv4Addr(a), Asn(h)))
            .collect();
        (
            nearest_front_per_city(fast, locs.len() as u32, |from, to| {
                locs[from as usize].distance_km(locs[to as usize])
            }),
            brute_force_nearest(&slow, locs),
        )
    }

    #[test]
    fn tls_nearest_table_matches_brute_force_on_the_substrate() {
        let (s, m) = build();
        let claims = m.claims.as_ref().unwrap();
        let locs: Vec<GeoPoint> = s.topo.world.cities.iter().map(|c| c.location).collect();
        let mut oracle = BTreeMap::new();
        for (&svc, addrs) in &m.sni_footprints {
            let fronts: Vec<(GeoPoint, Ipv4Addr, Asn)> = addrs
                .iter()
                .filter_map(|&a| {
                    s.topo
                        .prefixes
                        .lookup(a)
                        .map(|r| (s.topo.city_location(r.city), a, r.owner))
                })
                .collect();
            if !fronts.is_empty() {
                oracle.insert(svc, brute_force_nearest(&fronts, &locs));
            }
        }
        assert!(!oracle.is_empty());
        assert_eq!(claims.tls_nearest_as, oracle);
    }

    #[test]
    fn tls_nearest_ties_go_to_the_smaller_address() {
        // City 0 hosts the clients; cities 1 and 2 sit at the same
        // distance from it, east and west on the equator.
        let locs = [
            GeoPoint { lat: 0.0, lon: 0.0 },
            GeoPoint {
                lat: 0.0,
                lon: 10.0,
            },
            GeoPoint {
                lat: 0.0,
                lon: -10.0,
            },
        ];
        assert_eq!(locs[1].distance_km(locs[0]), locs[2].distance_km(locs[0]));

        // Two front-ends in one city: the smaller address wins everywhere.
        let (fast, slow) = nearest_both_ways(&locs, &[(1, 9, 5), (1, 3, 6)]);
        assert_eq!(fast, slow);
        assert_eq!(fast, vec![Some(Asn(6)); 3]);

        // Equidistant front-end cities: the smaller address wins for the
        // client city, whichever city holds it and in whatever order the
        // front-ends are listed; each front-end city keeps its own.
        for fronts in [[(1, 9, 5), (2, 4, 7)], [(2, 4, 7), (1, 9, 5)]] {
            let (fast, slow) = nearest_both_ways(&locs, &fronts);
            assert_eq!(fast, slow);
            assert_eq!(fast, vec![Some(Asn(7)), Some(Asn(5)), Some(Asn(7))]);
        }
        let (fast, slow) = nearest_both_ways(&locs, &[(1, 2, 5), (2, 4, 7), (2, 8, 9)]);
        assert_eq!(fast, slow);
        assert_eq!(fast, vec![Some(Asn(5)), Some(Asn(5)), Some(Asn(7))]);
    }

    #[test]
    fn claims_recorded_and_bitmap_covers_mapping() {
        let (_s, m) = build();
        let claims = m.claims.as_ref().expect("claims recorded");
        assert_eq!(claims.cell_bits.len(), m.user_mapping.mapping.len());
        // Every measured cell is, by construction, an ECS claim backed by
        // the catalogue prior.
        for &b in &claims.cell_bits {
            assert_ne!(b & bits::ECS, 0);
            assert_ne!(b & bits::CATALOG_PRIOR, 0);
        }
    }

    #[test]
    fn audit_is_consistent_and_covers_all_planes() {
        let (s, m) = build();
        let q = audit(&s, &m);
        assert!(q.is_consistent());
        for name in [
            "ecs",
            "anycast",
            "tls_nearest",
            "catalog_prior",
            "fused",
            "cache_probe",
            "root_crawl",
            "cloud_probe",
        ] {
            assert!(q.techniques.contains_key(name), "missing {name}");
        }
        // Replica universes all have the same size: services × prefixes.
        for name in ["ecs", "anycast", "tls_nearest", "catalog_prior", "fused"] {
            assert_eq!(q.techniques[name].overall.cells, q.cells, "{name}");
        }
        // ECS is near-perfect where it speaks (the technique's promise).
        let ecs = &q.techniques["ecs"].overall;
        assert!(ecs.precision() > 0.999, "ecs precision {}", ecs.precision());
        // The prior speaks everywhere.
        let prior = &q.techniques["catalog_prior"].overall;
        assert_eq!(prior.silent, 0);
        // Cloud probing never invents links.
        let cloud = &q.techniques["cloud_probe"].overall;
        assert_eq!(cloud.contradicted, 0);
        assert!(cloud.recall() > 0.0);
    }

    #[test]
    fn audit_matches_with_and_without_recorded_claims() {
        let s = Substrate::build(SubstrateConfig::small(), 139).unwrap();
        let plain = TrafficMap::build(&s, &MapConfig::default()).unwrap();
        let cfg = MapConfig {
            record_claims: true,
            ..MapConfig::default()
        };
        let recorded = TrafficMap::build(&s, &cfg).unwrap();
        let a = serde_json::to_string(&audit(&s, &plain).to_json_value()).unwrap();
        let b = serde_json::to_string(&audit(&s, &recorded).to_json_value()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fused_estimator_mirrors_the_map_cascade() {
        let (s, m) = build();
        let claims = m.claims.as_ref().unwrap();
        let mut checked = 0;
        // Every user cell: anycast claims mostly equal the prior, so only
        // a full sweep reaches cells where the cascade order matters.
        for r in s.topo.prefixes.iter() {
            if r.kind != PrefixKind::UserAccess {
                continue;
            }
            for svc in &s.catalog.services {
                let ecs = m
                    .user_mapping
                    .mapping
                    .get(svc.id, r.id)
                    .and_then(|addr| claims.owner_of(addr));
                let (_, fused) = replica_claims(
                    ecs,
                    claims.anycast_site_as.get(&svc.id),
                    claims.tls_nearest_as.get(&svc.id),
                    claims.prior_claim(svc.id),
                    r.owner,
                    r.city,
                );
                assert_eq!(fused, m.serving_as_for(&s, r.id, svc.id));
                checked += 1;
            }
        }
        assert!(checked > 0);
    }
}
