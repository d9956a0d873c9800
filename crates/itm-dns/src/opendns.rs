//! The open-resolver (Google Public DNS analogue) with probeable caches.
//!
//! §3.1.2, approach 1: "We issued non-recursive queries for popular domains
//! to Google Public DNS … to determine if the popular domains were in the
//! cache. … we used the EDNS0 Client Subnet (ECS) option, which enables
//! specifying a client prefix, causing Google Public DNS to only return a
//! result if a client from that prefix recently queried for the domain."
//!
//! The model: the open resolver operates PoPs in major cities; each user
//! prefix's open-resolver queries land at its nearest PoP; each PoP keeps a
//! cache keyed by `(service, scope)` where the scope is the client /24 for
//! ECS-supporting services and PoP-wide otherwise. Organic traffic fills
//! the caches; probes with `RD=0` read them without filling them.
//!
//! Deploying is cheap: the nearest PoP is computed once per city and the
//! PoP egress addresses once per PoP. The PoP-wide rate table (one sum
//! over every prefix × service) is built on the first PoP-scope read,
//! because the map's campaigns only probe ECS domains and never need it.
//!
//! Caches are probed through an *analytic oracle*
//! ([`OpenResolver::probe`]): occupancy of a cache entry during a TTL
//! window is a deterministic Bernoulli draw with the Poisson no-arrival
//! probability `1 − exp(−rate·TTL)`. Within a window the outcome is fixed
//! (as a real cache's would be), across windows it redraws. This makes a
//! full Internet sweep O(prefixes × domains) without any simulation time
//! stepping.
//!
//! One kernel, [`OpenResolver::probe_hoisted`], decides every probe. The
//! occupancy draw is `mix(seed ^ mix(key) ^ mix(service ⋘ 17) ^
//! mix(window ⋘ 34))`, so each term can be mixed once where it stops
//! changing: per prefix ([`HoistedPrefix`]), per domain
//! ([`HoistedDomain`]) and per domain at one probe time
//! ([`HoistedWindow`]). A campaign builds these tables outside its loops;
//! the string API and [`OpenResolver::probe_prefix`] build them per call.

use crate::authoritative::{AuthoritativeDns, DnsAnswer};
use crate::resolvers::ResolverAssignment;
use crate::tally::DnsTally;
use itm_topology::{PrefixRecord, Topology};
use itm_traffic::{DeliveryMode, Service, ServiceCatalog, TrafficModel, UserModel};
use itm_types::rng::{mix64 as mix, stable_hash};
use itm_types::{
    FaultInjector, GeoPoint, Ipv4Addr, Ipv4Net, ItmError, PopId, PrefixId, ProbeFate, SeedDomain,
    ServiceId, SimTime,
};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Mean bits transferred per user session-with-DNS-lookup; converts demand
/// (bps) into DNS query rate (qps).
pub const BITS_PER_SESSION: f64 = 4.0e7;

/// Open-resolver deployment parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpenResolverConfig {
    /// Number of PoPs (placed in the largest global cities).
    pub n_pops: usize,
    /// Background query noise (qps) per (routed prefix, popular domain):
    /// scanners, bots, misconfigured hosts. Produces the small
    /// false-positive rate real cache probing observes (<1% in \[34\]).
    pub noise_qps: f64,
}

impl Default for OpenResolverConfig {
    fn default() -> Self {
        OpenResolverConfig {
            n_pops: 12,
            noise_qps: 2.0e-7,
        }
    }
}

/// One open-resolver PoP.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Pop {
    /// Dense id.
    pub id: PopId,
    /// City (world index).
    pub city: u32,
    /// Location (cached).
    pub location: GeoPoint,
}

/// Outcome of a non-recursive cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbeResult {
    /// The entry was cached: someone behind that scope queried recently.
    Hit(Ipv4Addr),
    /// Not cached.
    Miss,
    /// Unknown domain.
    NxDomain,
}

/// A domain resolved once for repeated probing: its service, and the
/// hash of its name that keys its fault fates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainKey {
    /// The service the domain names.
    pub service: ServiceId,
    /// `stable_hash` of the domain name.
    pub hash: u64,
}

impl DomainKey {
    /// The key of a catalogue service's domain.
    pub fn of(svc: &Service) -> DomainKey {
        DomainKey {
            service: svc.id,
            hash: stable_hash(&svc.domain),
        }
    }
}

/// A probed domain's terms of [`OpenResolver::probe_hoisted`], made once
/// per campaign by [`OpenResolver::hoist_domain`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoistedDomain {
    /// The domain.
    pub key: DomainKey,
    /// Whether its cache entries are scoped to the client prefix.
    ecs: bool,
    /// The length of a cache window in seconds: the TTL, at least 1.
    window_secs: u64,
    /// The TTL as the occupancy probability's factor (not clamped).
    ttl_secs: f64,
    /// The service's term of the occupancy draw.
    service_term: u64,
}

impl HoistedDomain {
    /// The cache window of this domain that holds `t`.
    pub fn window(&self, t: SimTime) -> HoistedWindow {
        let window = t.as_secs() / self.window_secs;
        HoistedWindow {
            start: SimTime(window * self.window_secs),
            term: mix(window.rotate_left(34)),
        }
    }
}

/// One domain's cache window at a probe time: where it starts (the time
/// a probe's rate is evaluated at, so the outcome is constant across the
/// window, as a real cache's is) and its term of the occupancy draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HoistedWindow {
    start: SimTime,
    term: u64,
}

impl HoistedWindow {
    /// The start of the window.
    pub fn start(&self) -> SimTime {
        self.start
    }
}

/// A probed prefix's terms of [`OpenResolver::probe_hoisted`], made once
/// per campaign shard by [`OpenResolver::hoist_prefix`]: its record, its
/// term of a client-scoped occupancy draw, and its open-resolver share.
#[derive(Debug, Clone, Copy)]
pub struct HoistedPrefix<'t> {
    rec: &'t PrefixRecord,
    key_term: u64,
    open_share: f64,
}

impl<'t> HoistedPrefix<'t> {
    /// The prefix's record.
    pub fn record(&self) -> &'t PrefixRecord {
        self.rec
    }
}

/// The high bit that keys a PoP-wide entry's draw apart from every
/// client prefix's.
const POP_SCOPE: u64 = 0x8000_0000_0000_0000;

/// The answer an ECS-grid campaign hoists out of its resolution loop, for
/// [`OpenResolver::resolve_prefix_with_faults`]: the front-end the
/// redirection policy picks for a client prefix. The policy reads only
/// the client's AS and city, so one value serves a whole run of
/// consecutive prefixes that share both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HoistedAnswer {
    /// The serving address every client of the run is answered with.
    pub addr: Ipv4Addr,
}

/// Client prefix records in runs of consecutive records that share an
/// owner AS and a city: the unit the ECS grid resolves once, since the
/// redirection policy reads nothing else of a client. The table depends
/// on the records alone, so one serves every service of a campaign.
#[derive(Debug, Clone, Default)]
pub struct ClientRuns<'t> {
    recs: Vec<&'t PrefixRecord>,
    /// End of each run in `recs`, ascending.
    ends: Vec<u32>,
}

impl<'t> ClientRuns<'t> {
    /// Group `recs`, in their order, into runs.
    pub fn new(recs: impl IntoIterator<Item = &'t PrefixRecord>) -> ClientRuns<'t> {
        let recs: Vec<&PrefixRecord> = recs.into_iter().collect();
        let mut ends = Vec::new();
        for (i, w) in recs.windows(2).enumerate() {
            if (w[0].owner, w[0].city) != (w[1].owner, w[1].city) {
                ends.push(i as u32 + 1);
            }
        }
        if !recs.is_empty() {
            ends.push(recs.len() as u32);
        }
        ClientRuns { recs, ends }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Whether there are no records.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// The runs, in record order; none is empty.
    pub fn runs(&self) -> impl Iterator<Item = ClientRun<'_, 't>> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(a, &b)| ClientRun {
            recs: &self.recs[a as usize..b as usize],
        })
    }
}

/// One run of a [`ClientRuns`] table: consecutive client records with
/// one owner AS and one city.
#[derive(Debug, Clone, Copy)]
pub struct ClientRun<'r, 't> {
    recs: &'r [&'t PrefixRecord],
}

impl<'r, 't> ClientRun<'r, 't> {
    /// The run's records, in order.
    pub fn records(&self) -> &'r [&'t PrefixRecord] {
        self.recs
    }
}

/// The open resolver bound to a substrate.
pub struct OpenResolver<'a> {
    topo: &'a Topology,
    users: &'a UserModel,
    catalog: &'a ServiceCatalog,
    traffic: &'a TrafficModel,
    resolvers: &'a ResolverAssignment,
    auth: AuthoritativeDns<'a>,
    cfg: OpenResolverConfig,
    pops: Vec<Pop>,
    /// PoP serving each prefix (nearest by geography).
    pop_of_prefix: Vec<PopId>,
    /// Egress address of each PoP; empty when the operator has no
    /// hosting space.
    pop_egress: Vec<Ipv4Addr>,
    /// Per-(pop, service) aggregate daily-mean qps for PoP-wide scopes,
    /// built on first read.
    pop_service_qps: OnceLock<Vec<f64>>,
    /// Occupancy draw seed.
    draw_seed: u64,
}

impl<'a> OpenResolver<'a> {
    /// Deploy the open resolver.
    ///
    /// Fails with [`ItmError::InvalidConfig`] when the topology has no
    /// cities to site PoPs in.
    #[allow(clippy::too_many_arguments)]
    pub fn deploy(
        topo: &'a Topology,
        users: &'a UserModel,
        catalog: &'a ServiceCatalog,
        traffic: &'a TrafficModel,
        resolvers: &'a ResolverAssignment,
        auth: AuthoritativeDns<'a>,
        cfg: OpenResolverConfig,
        seeds: &SeedDomain,
    ) -> Result<OpenResolver<'a>, ItmError> {
        let seeds = seeds.child("opendns");
        // PoPs in the biggest cities (by size × country weight).
        let mut ranked: Vec<(u32, f64)> = topo
            .world
            .cities
            .iter()
            .map(|c| {
                (
                    c.id,
                    c.size_weight * topo.world.country(c.country).population_weight,
                )
            })
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let pops: Vec<Pop> = ranked
            .iter()
            .take(cfg.n_pops.max(1))
            .enumerate()
            .map(|(i, &(city, _))| Pop {
                id: PopId(i as u32),
                city,
                location: topo.city_location(city),
            })
            .collect();

        let Some(first) = pops.first() else {
            return Err(ItmError::InvalidConfig {
                field: "world.cities",
                reason: "open resolver needs at least one city to site PoPs".into(),
            });
        };

        // Nearest-PoP assignment: every prefix in a city shares its
        // city's nearest PoP, so compute it once per city.
        let pop_of_city: Vec<PopId> = topo
            .world
            .cities
            .iter()
            .map(|c| nearest_pop(&pops, c.location).unwrap_or(first).id)
            .collect();
        let pop_of_prefix = topo
            .prefixes
            .iter()
            .map(|r| pop_of_city[r.city as usize])
            .collect();

        // Egress addresses, drawn from the operator's hosting space
        // (offset 8, per PoP index).
        let hosting: Vec<Ipv4Net> = topo
            .hypergiants()
            .first()
            .map(|&op| {
                topo.prefixes
                    .owned_by(op)
                    .iter()
                    .map(|&p| topo.prefixes.get(p))
                    .filter(|r| r.kind == itm_topology::PrefixKind::Hosting)
                    .map(|r| r.net)
                    .collect()
            })
            .unwrap_or_default();
        let pop_egress = if hosting.is_empty() {
            Vec::new()
        } else {
            (0..pops.len())
                .map(|i| {
                    let off = 8 + (i / hosting.len()) as u32;
                    hosting[i % hosting.len()].addr(off.min(9))
                })
                .collect()
        };

        Ok(OpenResolver {
            topo,
            users,
            catalog,
            traffic,
            resolvers,
            auth,
            cfg,
            pops,
            pop_of_prefix,
            pop_egress,
            pop_service_qps: OnceLock::new(),
            draw_seed: seeds.seed("occupancy"),
        })
    }

    /// Aggregate PoP-wide rates per service (for non-ECS scopes), summed
    /// over every prefix on first use.
    fn pop_service_qps(&self) -> &[f64] {
        self.pop_service_qps.get_or_init(|| {
            let _span = itm_obs::span("resolver.pop_rates");
            let (topo, users, catalog) = (self.topo, self.users, self.catalog);
            let n_s = catalog.len();
            let mut pop_service_qps = vec![0.0; self.pops.len() * n_s];
            for r in topo.prefixes.iter() {
                if users.users_of(r.id) <= 0.0 {
                    continue;
                }
                let share = self.resolvers.open_share(r.id);
                if share <= 0.0 {
                    continue;
                }
                let pop = self.pop_of_prefix[r.id.index()].index();
                for s in &catalog.services {
                    let qps = self.traffic.demand(topo, users, catalog, r.id, s.id).raw() * share
                        / BITS_PER_SESSION;
                    pop_service_qps[pop * n_s + s.id.index()] += qps;
                }
            }
            pop_service_qps
        })
    }

    /// The deployed PoPs.
    pub fn pops(&self) -> &[Pop] {
        &self.pops
    }

    /// The PoP a prefix's clients use.
    pub fn pop_of(&self, p: PrefixId) -> PopId {
        self.pop_of_prefix[p.index()]
    }

    /// The AS operating the open resolver (the largest hypergiant — the
    /// Google analogue).
    pub fn operator(&self) -> itm_types::Asn {
        self.topo.hypergiants()[0]
    }

    /// The egress address a PoP uses when querying authoritative/root
    /// servers — what root logs record for open-resolver clients. Drawn
    /// from the operator's hosting space (offset 8, per PoP index).
    pub fn pop_egress_addr(&self, pop: PopId) -> Ipv4Addr {
        assert!(!self.pop_egress.is_empty(), "operator has hosting space");
        self.pop_egress[pop.index()]
    }

    /// Daily-mean organic demand (bps) of prefix `p` for service `s`: the
    /// only part of an ECS entry's query rate that does not depend on the
    /// time of day, so a campaign probing the same pair in many rounds
    /// computes it once and hands it to [`OpenResolver::ecs_rate`].
    pub fn daily_demand(&self, p: PrefixId, s: ServiceId) -> f64 {
        self.traffic
            .demand(self.topo, self.users, self.catalog, p, s)
            .raw()
    }

    /// The diurnal multiplier an ECS probe of `dom` at `t` reads for a
    /// prefix anchored in `city`: the curve at the city's solar offset, at
    /// the start of the TTL window containing `t`. `TrafficModel::build`
    /// gives every prefix its city's solar offset, so this is bit for bit
    /// the prefix's own multiplier, and a campaign can tabulate it per
    /// city and pass it to [`OpenResolver::ecs_rate`].
    pub fn window_diurnal(&self, city: u32, dom: DomainKey, t: SimTime) -> f64 {
        let ttl = self.catalog.get(dom.service).ttl_secs.max(1) as u64;
        let offset = self.topo.city_location(city).solar_offset_hours();
        self.traffic
            .diurnal_multiplier_at(offset, SimTime(t.as_secs() / ttl * ttl))
    }

    /// Organic open-resolver query rate for (prefix, service) at time `t`,
    /// including the background noise floor.
    pub fn query_rate(&self, p: PrefixId, s: ServiceId, t: SimTime) -> f64 {
        self.query_rate_from(
            self.daily_demand(p, s),
            self.traffic.diurnal_multiplier(p, t),
            self.resolvers.open_share(p),
        )
    }

    /// The query rate given the pair's daily demand, its diurnal factor
    /// and the prefix's open share, in the float order of a pair's
    /// demand at `t` (`TrafficModel::demand` × `diurnal_multiplier`):
    /// daily × diurnal factor, then the open share and the session size.
    fn query_rate_from(&self, daily: f64, diurnal: f64, open_share: f64) -> f64 {
        let organic = daily * diurnal * open_share / BITS_PER_SESSION;
        organic + self.cfg.noise_qps
    }

    /// The query rate of a client-scoped entry for a campaign that
    /// hoisted its terms: the pair's [`OpenResolver::daily_demand`] and
    /// the prefix's diurnal multiplier at the window start (its city's
    /// [`OpenResolver::window_diurnal`]). Bit for bit the rate
    /// [`OpenResolver::probe_prefix`] computes, for
    /// [`OpenResolver::probe_hoisted`].
    pub fn ecs_rate(&self, p: &HoistedPrefix<'_>, daily: f64, diurnal: f64) -> f64 {
        self.query_rate_from(daily, diurnal, p.open_share)
    }

    /// The query rate of the cache entry for `(svc, scope of p)` at `t`.
    fn entry_rate(&self, p: PrefixId, svc: &Service, t: SimTime) -> f64 {
        if svc.ecs_support {
            self.query_rate(p, svc.id, t)
        } else {
            // PoP-wide scope: everyone behind the PoP contributes, so the
            // diurnal phase is the *PoP's*, not the probing prefix's —
            // otherwise one physical cache entry would look different to
            // probes carrying different ECS prefixes.
            let pop = self.pop_of(p).index();
            let base = self.pop_service_qps()[pop * self.catalog.len() + svc.id.index()];
            let offset = self.pops[pop].location.solar_offset_hours();
            base * self.traffic.diurnal_multiplier_at(offset, t) + self.cfg.noise_qps
        }
    }

    /// Probability that the cache entry for `(s, scope of p)` is occupied
    /// during the TTL window containing `t`.
    pub fn hit_probability(&self, p: PrefixId, s: ServiceId, t: SimTime) -> f64 {
        let svc = self.catalog.get(s);
        occupancy(self.entry_rate(p, svc, t), svc.ttl_secs as f64)
    }

    /// The terms of `dom` for [`OpenResolver::probe_hoisted`].
    pub fn hoist_domain(&self, dom: DomainKey) -> HoistedDomain {
        let svc = self.catalog.get(dom.service);
        HoistedDomain {
            key: dom,
            ecs: svc.ecs_support,
            window_secs: svc.ttl_secs.max(1) as u64,
            ttl_secs: svc.ttl_secs as f64,
            service_term: mix((dom.service.raw() as u64).rotate_left(17)),
        }
    }

    /// The terms of a routed prefix for [`OpenResolver::probe_hoisted`].
    pub fn hoist_prefix<'t>(&self, rec: &'t PrefixRecord) -> HoistedPrefix<'t> {
        HoistedPrefix {
            rec,
            key_term: mix(rec.id.raw() as u64),
            open_share: self.resolvers.open_share(rec.id),
        }
    }

    /// Resolve a domain name once, for campaigns that probe it many times.
    pub fn domain_key(&self, domain: &str) -> Option<DomainKey> {
        self.catalog.by_domain(domain).map(DomainKey::of)
    }

    /// Non-recursive (RD=0) ECS probe: is `domain` cached for `ecs`'s
    /// scope at the PoP serving that prefix, at time `t`?
    ///
    /// Deterministic: the same (prefix, domain, TTL-window) always gives
    /// the same outcome, as a real cache would within one window. A
    /// wrapper over [`OpenResolver::probe_prefix`] that looks the domain
    /// and the prefix up once and bumps the global counters.
    pub fn probe(&self, ecs: Ipv4Net, domain: &str, t: SimTime) -> ProbeResult {
        let mut tally = DnsTally::default();
        let res = self.probe_located(
            self.topo.prefixes.find(ecs),
            self.domain_key(domain),
            t,
            &mut tally,
        );
        tally.flush();
        res
    }

    /// [`OpenResolver::probe`] under fault injection. The probe's fate is
    /// keyed by `(ecs prefix, domain, round)` — stable entity identifiers,
    /// never emission order — so faulted sweeps are byte-reproducible at
    /// any thread count. A lost probe returns `None` (the campaign records
    /// the gap); a degraded one returns the *same* result a clean probe
    /// would, after virtual-time backoff.
    pub fn probe_with_faults(
        &self,
        ecs: Ipv4Net,
        domain: &str,
        t: SimTime,
        faults: &FaultInjector,
        round: u64,
    ) -> (Option<ProbeResult>, ProbeFate) {
        let rec = self.topo.prefixes.find(ecs);
        let dom = self.domain_key(domain);
        let mut tally = DnsTally::default();
        let out = faulted_probe(
            faults,
            (ecs.addr(0).0 as u64, stable_hash(domain), round),
            || self.probe_subjects(rec, dom.map(|d| d.service)),
            || self.probe_located(rec, dom, t, &mut tally),
        );
        tally.flush();
        out
    }

    /// [`OpenResolver::probe`] for a routed prefix and a resolved domain,
    /// with no lookups: the hoisted terms and the entry's rate at the
    /// window start are made for this one probe, then
    /// [`OpenResolver::probe_hoisted`] decides it. Counts into `tally`,
    /// not the registry.
    pub fn probe_prefix(
        &self,
        rec: &PrefixRecord,
        dom: DomainKey,
        t: SimTime,
        tally: &mut DnsTally,
    ) -> ProbeResult {
        let d = self.hoist_domain(dom);
        let w = d.window(t);
        let rate = self.entry_rate(rec.id, self.catalog.get(dom.service), w.start);
        self.probe_hoisted(&self.hoist_prefix(rec), &d, w, rate, tally)
    }

    /// The cache-probe kernel: is `d` cached for `p`'s scope in window
    /// `w` (`d.window(t)` of the probe time `t`)? `rate` is the entry's
    /// query rate at the window start: [`OpenResolver::ecs_rate`] for a
    /// client-scoped domain. Each probe costs one mix, one `exp` and a
    /// compare; the catalogue and the PoP are read only for a hit, a
    /// PoP-scope domain or a traced miss. Counts into `tally`, not the
    /// registry, and emits the `CacheHit`/`CacheMiss` events of `probe`.
    pub fn probe_hoisted(
        &self,
        p: &HoistedPrefix<'_>,
        d: &HoistedDomain,
        w: HoistedWindow,
        rate: f64,
        tally: &mut DnsTally,
    ) -> ProbeResult {
        let rec = p.rec;
        let key_term = if d.ecs {
            tally.cache_lookups_ecs += 1;
            p.key_term
        } else {
            tally.cache_lookups_pop += 1;
            // PoP-wide entry: same draw for every prefix behind the PoP.
            mix(POP_SCOPE | self.pop_of(rec.id).raw() as u64)
        };
        let k = mix(self.draw_seed ^ key_term ^ d.service_term ^ w.term);
        let draw = (k >> 11) as f64 / (1u64 << 53) as f64;
        let sid = d.key.service;
        if draw < occupancy(rate, d.ttl_secs) {
            tally.cache_hit += 1;
            // Answer as the authoritative would have for the organic query.
            let pop = self.pop_of(rec.id);
            let pop_city = self.pops[pop.index()].city;
            let ecs = d.ecs.then_some(rec);
            let ans = self.auth.resolve_record(sid, pop_city, ecs, None, tally);
            itm_obs::trace::emit(
                itm_obs::trace::Technique::CacheProbe,
                itm_obs::trace::EventKind::CacheHit,
                itm_obs::trace::Subjects::none()
                    .prefix(rec.id.raw())
                    .service(sid.raw())
                    .addr(ans.addr.0)
                    .pop(pop.raw()),
                &self.catalog.get(sid).domain,
            );
            ProbeResult::Hit(ans.addr)
        } else {
            tally.cache_miss += 1;
            if itm_obs::trace::enabled() {
                itm_obs::trace::emit(
                    itm_obs::trace::Technique::CacheProbe,
                    itm_obs::trace::EventKind::CacheMiss,
                    itm_obs::trace::Subjects::none()
                        .prefix(rec.id.raw())
                        .service(sid.raw())
                        .pop(self.pop_of(rec.id).raw()),
                    &self.catalog.get(sid).domain,
                );
            }
            ProbeResult::Miss
        }
    }

    /// [`OpenResolver::probe_hoisted`] under fault injection, with the
    /// fate keys of [`OpenResolver::probe_with_faults`]: the prefix's
    /// network address, the domain's hash and the round.
    #[allow(clippy::too_many_arguments)]
    pub fn probe_hoisted_with_faults(
        &self,
        p: &HoistedPrefix<'_>,
        d: &HoistedDomain,
        w: HoistedWindow,
        rate: f64,
        faults: &FaultInjector,
        round: u64,
        tally: &mut DnsTally,
    ) -> (Option<ProbeResult>, ProbeFate) {
        faulted_probe(
            faults,
            (p.rec.net.addr(0).0 as u64, d.key.hash, round),
            || self.probe_subjects(Some(p.rec), Some(d.key.service)),
            || self.probe_hoisted(p, d, w, rate, tally),
        )
    }

    /// A probe whose lookups may have failed: unknown domains answer
    /// NXDOMAIN, unrouted prefixes miss (nothing organic ever cached for
    /// them).
    fn probe_located(
        &self,
        rec: Option<&PrefixRecord>,
        dom: Option<DomainKey>,
        t: SimTime,
        tally: &mut DnsTally,
    ) -> ProbeResult {
        let Some(dom) = dom else {
            tally.cache_nxdomain += 1;
            return ProbeResult::NxDomain;
        };
        let Some(rec) = rec else {
            tally.cache_miss += 1;
            return ProbeResult::Miss;
        };
        self.probe_prefix(rec, dom, t, tally)
    }

    /// Trace subjects of a faulted probe: whatever the lookups found.
    fn probe_subjects(
        &self,
        rec: Option<&PrefixRecord>,
        sid: Option<ServiceId>,
    ) -> itm_obs::trace::Subjects {
        let mut s = itm_obs::trace::Subjects::none();
        if let Some(rec) = rec {
            s = s.prefix(rec.id.raw()).pop(self.pop_of(rec.id).raw());
        }
        if let Some(sid) = sid {
            s = s.service(sid.raw());
        }
        s
    }

    /// A *recursive* query as a client stub would issue (fills caches in
    /// the event-level simulation; the analytic path does not need it).
    /// A wrapper over [`OpenResolver::resolve_prefix`].
    pub fn resolve_for_client(&self, client: PrefixId, domain: &str) -> Option<DnsAnswer> {
        let dom = self.domain_key(domain)?;
        let mut tally = DnsTally::default();
        let ans = self.resolve_prefix(self.topo.prefixes.get(client), dom, None, &mut tally);
        tally.flush();
        Some(ans)
    }

    /// [`OpenResolver::resolve_for_client`] under fault injection. Two
    /// hops can fault: the resolver hop (loss/timeout/refusal per the
    /// full plan) and the authoritative hop (refusals only, applied by
    /// [`AuthoritativeDns::resolve_record_with_faults`]). The combined fate is
    /// lost-dominant with retries added across hops.
    pub fn resolve_for_client_with_faults(
        &self,
        client: PrefixId,
        domain: &str,
        faults: &FaultInjector,
    ) -> (Option<DnsAnswer>, ProbeFate) {
        let Some(dom) = self.domain_key(domain) else {
            // NXDOMAIN is an answer, not a fault.
            return (None, ProbeFate::Observed);
        };
        let mut tally = DnsTally::default();
        let out = self.resolve_prefix_with_faults(
            self.topo.prefixes.get(client),
            dom,
            None,
            faults,
            &mut tally,
        );
        tally.flush();
        out
    }

    /// The ECS-grid kernel: [`OpenResolver::resolve_for_client`] for a
    /// client record and a resolved domain, with no lookups. `hoisted`
    /// carries the client's front-end when the caller resolved it once
    /// for the client's run (debug-asserted), or is `None` to look it up.
    /// Counts into `tally`, not the registry.
    pub fn resolve_prefix(
        &self,
        rec: &PrefixRecord,
        dom: DomainKey,
        hoisted: Option<HoistedAnswer>,
        tally: &mut DnsTally,
    ) -> DnsAnswer {
        let svc = self.catalog.get(dom.service);
        let pop_city = self.pops[self.pop_of(rec.id).index()].city;
        let ecs = svc.ecs_support.then_some(rec);
        let ans = self
            .auth
            .resolve_record(dom.service, pop_city, ecs, hoisted, tally);
        self.emit_scoped(rec, svc, &ans);
        ans
    }

    /// [`OpenResolver::resolve_prefix`] under fault injection, with the
    /// fate keys of [`OpenResolver::resolve_for_client_with_faults`]: the
    /// prefix id and the domain's hash.
    pub fn resolve_prefix_with_faults(
        &self,
        rec: &PrefixRecord,
        dom: DomainKey,
        hoisted: Option<HoistedAnswer>,
        faults: &FaultInjector,
        tally: &mut DnsTally,
    ) -> (Option<DnsAnswer>, ProbeFate) {
        if faults.is_off() {
            return (
                Some(self.resolve_prefix(rec, dom, hoisted, tally)),
                ProbeFate::Observed,
            );
        }
        let client = rec.id;
        let sid = dom.service;
        let key_a = client.raw() as u64;
        let key_b = dom.hash;
        let hop = faults.fate(key_a, key_b, 0);
        if let ProbeFate::Lost = hop {
            itm_obs::counter!("faults.resolve.lost").inc();
            let kind = faults
                .first_fault(key_a, key_b, 0)
                .map(|k| k.as_str())
                .unwrap_or("fault");
            itm_obs::trace::emit(
                itm_obs::trace::Technique::EcsMapping,
                itm_obs::trace::EventKind::ProbeFailed,
                itm_obs::trace::Subjects::none()
                    .prefix(client.raw())
                    .service(sid.raw())
                    .pop(self.pop_of(client).raw()),
                &format!("{kind}, retries exhausted"),
            );
            return (None, ProbeFate::Lost);
        }
        let svc = self.catalog.get(sid);
        let pop_city = self.pops[self.pop_of(client).index()].city;
        let ecs = svc.ecs_support.then_some(rec);
        let (ans, auth_fate) = self
            .auth
            .resolve_record_with_faults(sid, pop_city, ecs, hoisted, faults, key_a, tally);
        let combined = hop.combine(auth_fate);
        let Some(ans) = ans else {
            return (None, ProbeFate::Lost);
        };
        if let ProbeFate::Degraded { retries } = combined {
            itm_obs::counter!("faults.resolve.retried").inc();
            itm_obs::trace::emit(
                itm_obs::trace::Technique::EcsMapping,
                itm_obs::trace::EventKind::ProbeRetried,
                itm_obs::trace::Subjects::none()
                    .prefix(client.raw())
                    .service(sid.raw()),
                &format!(
                    "retries={retries} backoff={}s",
                    faults.total_backoff_secs(key_a ^ key_b, retries)
                ),
            );
        }
        self.emit_scoped(rec, svc, &ans);
        (Some(ans), combined)
    }

    /// The ECS grid's run kernel: resolve `dom` for one run of client
    /// records, calling `each` with every record's answer and fate, in
    /// order. Every answer, fate, count and trace event is the one
    /// [`OpenResolver::resolve_prefix_with_faults`] gives the record on
    /// its own.
    ///
    /// For a DNS-redirected ECS service the redirection policy reads
    /// only the client's AS and city, which the run's records share, so
    /// the front-end is looked up once and handed to the per-record
    /// kernel as a [`HoistedAnswer`]. With faults off and tracing off no
    /// record needs a fate draw or an event, so the kernel is skipped
    /// altogether: the authoritative query count rises by the run length
    /// and every record gets the run's answer. Any other service is
    /// resolved record by record.
    pub fn resolve_run_with_faults(
        &self,
        run: ClientRun<'_, '_>,
        dom: DomainKey,
        faults: &FaultInjector,
        tally: &mut DnsTally,
        mut each: impl FnMut(&PrefixRecord, Option<Ipv4Addr>, ProbeFate),
    ) {
        let run = run.records();
        let svc = self.catalog.get(dom.service);
        let shared = run
            .first()
            .filter(|_| svc.ecs_support && svc.mode == DeliveryMode::DnsRedirection)
            .map(|first| HoistedAnswer {
                addr: self.auth.redirect(dom.service, first),
            });
        if let Some(h) = shared {
            if faults.is_off() && !itm_obs::trace::enabled() {
                tally.auth_queries_ecs += run.len() as u64;
                for rec in run {
                    debug_assert_eq!(h.addr, self.auth.redirect(dom.service, rec));
                    each(rec, Some(h.addr), ProbeFate::Observed);
                }
                return;
            }
        }
        for rec in run {
            let (ans, fate) = self.resolve_prefix_with_faults(rec, dom, shared, faults, tally);
            each(rec, ans.map(|a| a.addr), fate);
        }
    }

    /// Record an ECS-scoped answer in the trace.
    fn emit_scoped(&self, rec: &PrefixRecord, svc: &Service, ans: &DnsAnswer) {
        if matches!(
            ans.scope,
            crate::authoritative::AnswerScope::ClientPrefix(_)
        ) {
            itm_obs::trace::emit(
                itm_obs::trace::Technique::EcsMapping,
                itm_obs::trace::EventKind::EcsScopedAnswer,
                itm_obs::trace::Subjects::none()
                    .prefix(rec.id.raw())
                    .service(svc.id.raw())
                    .addr(ans.addr.0)
                    .pop(self.pop_of(rec.id).raw()),
                &svc.domain,
            );
        }
    }
}

/// Draw a probe's fate from `keys = (prefix address, domain hash,
/// round)` and run `probe` unless the fate is a loss.
fn faulted_probe(
    faults: &FaultInjector,
    (key_a, key_b, round): (u64, u64, u64),
    subjects: impl Fn() -> itm_obs::trace::Subjects,
    probe: impl FnOnce() -> ProbeResult,
) -> (Option<ProbeResult>, ProbeFate) {
    if faults.is_off() {
        return (Some(probe()), ProbeFate::Observed);
    }
    let fate = faults.fate(key_a, key_b, round);
    match fate {
        ProbeFate::Observed => (Some(probe()), fate),
        ProbeFate::Degraded { retries } => {
            itm_obs::counter!("faults.probe.retried").inc();
            itm_obs::trace::emit(
                itm_obs::trace::Technique::CacheProbe,
                itm_obs::trace::EventKind::ProbeRetried,
                subjects(),
                &format!(
                    "retries={retries} backoff={}s",
                    faults.total_backoff_secs(key_a ^ key_b, retries)
                ),
            );
            (Some(probe()), fate)
        }
        ProbeFate::Lost => {
            itm_obs::counter!("faults.probe.lost").inc();
            let kind = faults
                .first_fault(key_a, key_b, round)
                .map(|k| k.as_str())
                .unwrap_or("fault");
            itm_obs::trace::emit(
                itm_obs::trace::Technique::CacheProbe,
                itm_obs::trace::EventKind::ProbeFailed,
                subjects(),
                &format!(
                    "{kind}, retries exhausted after {} attempts",
                    faults.plan().max_retries + 1
                ),
            );
            (None, fate)
        }
    }
}

/// The PoP nearest `loc`; an exact distance tie goes to the lower id.
fn nearest_pop(pops: &[Pop], loc: GeoPoint) -> Option<&Pop> {
    pops.iter().min_by(|a, b| {
        a.location
            .distance_km(loc)
            .total_cmp(&b.location.distance_km(loc))
            .then(a.id.cmp(&b.id))
    })
}

/// The probability that an entry with query rate `rate` (qps) is
/// occupied: no arrival in the last `ttl_secs` is `exp(−rate·TTL)`.
fn occupancy(rate: f64, ttl_secs: f64) -> f64 {
    1.0 - (-rate * ttl_secs).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontends::FrontendDirectory;
    use crate::resolvers::ResolverConfig;
    use itm_obs::exec::ParallelExecutor;
    use itm_topology::{generate, PrefixKind, TopologyConfig};
    use itm_traffic::{ServiceCatalogConfig, TrafficConfig};

    struct Fixture {
        topo: Topology,
        users: UserModel,
        catalog: ServiceCatalog,
        traffic: TrafficModel,
        resolvers: ResolverAssignment,
        frontends: FrontendDirectory,
    }

    fn fixture() -> Fixture {
        let seeds = SeedDomain::new(43);
        let topo = generate(&TopologyConfig::small(), 43).unwrap();
        let users = UserModel::generate(&topo, &seeds);
        let catalog = ServiceCatalog::generate(&ServiceCatalogConfig::small(), &topo, &seeds);
        let traffic = TrafficModel::build(
            &topo,
            &users,
            &catalog,
            TrafficConfig::default(),
            &seeds,
            &ParallelExecutor::sequential(),
        );
        let resolvers = ResolverAssignment::build(&topo, &ResolverConfig::default(), &seeds);
        let frontends = FrontendDirectory::build(&topo, &catalog);
        Fixture {
            topo,
            users,
            catalog,
            traffic,
            resolvers,
            frontends,
        }
    }

    fn resolver<'a>(f: &'a Fixture) -> OpenResolver<'a> {
        let auth = AuthoritativeDns::new(&f.topo, &f.catalog, &f.frontends);
        OpenResolver::deploy(
            &f.topo,
            &f.users,
            &f.catalog,
            &f.traffic,
            &f.resolvers,
            auth,
            OpenResolverConfig {
                n_pops: 6,
                ..Default::default()
            },
            &SeedDomain::new(43),
        )
        .expect("deploy open resolver")
    }

    /// The PoP-wide rate table as deploy used to build it eagerly, with
    /// each prefix's PoP found by brute force.
    fn eager_pop_service_qps(f: &Fixture, r: &OpenResolver<'_>) -> Vec<f64> {
        let n_s = f.catalog.len();
        let mut qps = vec![0.0; r.pops().len() * n_s];
        for rec in f.topo.prefixes.iter() {
            if f.users.users_of(rec.id) <= 0.0 {
                continue;
            }
            let share = f.resolvers.open_share(rec.id);
            if share <= 0.0 {
                continue;
            }
            let pop = brute_force_pop(&f.topo, r.pops(), rec.city).index();
            for s in &f.catalog.services {
                qps[pop * n_s + s.id.index()] += f
                    .traffic
                    .demand(&f.topo, &f.users, &f.catalog, rec.id, s.id)
                    .raw()
                    * share
                    / BITS_PER_SESSION;
            }
        }
        qps
    }

    fn brute_force_pop(topo: &Topology, pops: &[Pop], city: u32) -> PopId {
        let loc = topo.city_location(city);
        pops.iter()
            .min_by(|a, b| {
                a.location
                    .distance_km(loc)
                    .total_cmp(&b.location.distance_km(loc))
                    .then(a.id.cmp(&b.id))
            })
            .unwrap()
            .id
    }

    #[test]
    fn pop_scope_hit_probability_matches_eager_table() {
        let f = fixture();
        let r = resolver(&f);
        let table = eager_pop_service_qps(&f, &r);
        let n_s = f.catalog.len();
        let pop_scope: Vec<_> = f
            .catalog
            .services
            .iter()
            .filter(|s| !s.ecs_support)
            .collect();
        assert!(!pop_scope.is_empty(), "fixture has no PoP-scope service");
        for t in [SimTime(0), SimTime(7 * 3600), SimTime(86_400 + 1800)] {
            for rec in f.topo.prefixes.iter() {
                let pop = brute_force_pop(&f.topo, r.pops(), rec.city).index();
                let offset = r.pops()[pop].location.solar_offset_hours();
                for svc in &pop_scope {
                    let rate = table[pop * n_s + svc.id.index()]
                        * f.traffic.diurnal_multiplier_at(offset, t)
                        + r.cfg.noise_qps;
                    let expect = 1.0 - (-rate * svc.ttl_secs as f64).exp();
                    assert_eq!(
                        r.hit_probability(rec.id, svc.id, t).to_bits(),
                        expect.to_bits(),
                        "prefix {:?} service {:?} at {t:?}",
                        rec.id,
                        svc.id
                    );
                }
            }
        }
    }

    #[test]
    fn client_runs_split_where_the_owner_or_the_city_changes() {
        let f = fixture();
        let users: Vec<&PrefixRecord> = f
            .topo
            .prefixes
            .iter()
            .filter(|r| r.kind == itm_topology::PrefixKind::UserAccess)
            .collect();
        let table = ClientRuns::new(users.iter().copied());
        assert_eq!(table.len(), users.len());
        let runs: Vec<&[&PrefixRecord]> = table.runs().map(|r| r.records()).collect();
        assert!(runs.len() < users.len(), "no two neighbours share a run");
        let key = |r: &PrefixRecord| (r.owner, r.city);
        for run in &runs {
            assert!(run.iter().all(|r| key(r) == key(run[0])));
        }
        for w in runs.windows(2) {
            assert_ne!(key(w[0][w[0].len() - 1]), key(w[1][0]));
        }
        let flat: Vec<PrefixId> = runs.concat().iter().map(|r| r.id).collect();
        let ids: Vec<PrefixId> = users.iter().map(|r| r.id).collect();
        assert_eq!(flat, ids);
        assert_eq!(ClientRuns::new([]).runs().count(), 0);
    }

    #[test]
    fn pop_of_is_the_nearest_pop() {
        let f = fixture();
        let r = resolver(&f);
        for rec in f.topo.prefixes.iter() {
            assert_eq!(
                r.pop_of(rec.id),
                brute_force_pop(&f.topo, r.pops(), rec.city),
                "prefix {:?}",
                rec.id
            );
        }
    }

    #[test]
    fn equidistant_pops_tie_to_the_lower_id() {
        let pop = |id, lon| Pop {
            id: PopId(id),
            city: id,
            location: GeoPoint::new(0.0, lon),
        };
        let loc = GeoPoint::new(0.0, 0.0);
        let pops = [pop(1, -10.0), pop(0, 10.0)];
        assert_eq!(
            pops[0].location.distance_km(loc).to_bits(),
            pops[1].location.distance_km(loc).to_bits(),
            "not an exact tie"
        );
        assert_eq!(nearest_pop(&pops, loc).map(|p| p.id), Some(PopId(0)));
        assert!(nearest_pop(&[], loc).is_none());
    }

    #[test]
    fn pop_egress_addr_matches_per_call_formula() {
        let f = fixture();
        let r = resolver(&f);
        // The formula deploy precomputes, evaluated per call.
        let per_call = |pop: PopId| {
            let op = r.operator();
            let hosting: Vec<_> = f
                .topo
                .prefixes
                .owned_by(op)
                .iter()
                .filter(|&&p| f.topo.prefixes.get(p).kind == PrefixKind::Hosting)
                .collect();
            let k = pop.index() % hosting.len();
            let off = 8 + (pop.index() / hosting.len()) as u32;
            f.topo.prefixes.get(*hosting[k]).net.addr(off.min(9))
        };
        for p in r.pops() {
            assert_eq!(r.pop_egress_addr(p.id), per_call(p.id), "pop {:?}", p.id);
        }
    }

    #[test]
    fn pops_deploy_and_cover_all_prefixes() {
        let f = fixture();
        let r = resolver(&f);
        assert_eq!(r.pops().len(), 6);
        for rec in f.topo.prefixes.iter() {
            let pop = r.pop_of(rec.id);
            assert!(pop.index() < 6);
        }
    }

    #[test]
    fn domain_keys_name_catalogue_services() {
        let f = fixture();
        let r = resolver(&f);
        assert_eq!(
            r.domain_key("svc0.example"),
            Some(DomainKey {
                service: ServiceId(0),
                hash: stable_hash("svc0.example"),
            })
        );
        assert_eq!(r.domain_key("no-such.example"), None);
    }

    #[test]
    fn nxdomain_for_unknown_names() {
        let f = fixture();
        let r = resolver(&f);
        let net = f.topo.prefixes.get(PrefixId(0)).net;
        assert_eq!(
            r.probe(net, "not-a-service.example", SimTime::ZERO),
            ProbeResult::NxDomain
        );
    }

    #[test]
    fn unrouted_prefixes_never_hit() {
        let f = fixture();
        let r = resolver(&f);
        let bogus: Ipv4Net = "203.0.113.0/24".parse().unwrap();
        for w in 0..20 {
            let t = SimTime(w * 3600);
            assert_eq!(r.probe(bogus, "svc0.example", t), ProbeResult::Miss);
        }
    }

    #[test]
    fn busy_prefixes_hit_popular_domains() {
        let f = fixture();
        let r = resolver(&f);
        // The busiest user prefix should hit svc0 in most windows.
        let busiest = f
            .topo
            .prefixes
            .iter()
            .filter(|rec| rec.kind == PrefixKind::UserAccess)
            .max_by(|a, b| {
                f.traffic
                    .prefix_total(a.id)
                    .raw()
                    .partial_cmp(&f.traffic.prefix_total(b.id).raw())
                    .unwrap()
            })
            .unwrap();
        let mut hits = 0;
        let n = 48;
        for w in 0..n {
            let t = SimTime(w * 1800);
            if matches!(r.probe(busiest.net, "svc0.example", t), ProbeResult::Hit(_)) {
                hits += 1;
            }
        }
        assert!(hits > n / 2, "only {hits}/{n} windows hit");
    }

    #[test]
    fn probe_is_deterministic_within_a_window() {
        let f = fixture();
        let r = resolver(&f);
        let rec = f
            .topo
            .prefixes
            .iter()
            .find(|rec| rec.kind == PrefixKind::UserAccess)
            .unwrap();
        let a = r.probe(rec.net, "svc1.example", SimTime(1000));
        let b = r.probe(rec.net, "svc1.example", SimTime(1001));
        assert_eq!(a, b); // same TTL window (ttl >= 30s)
    }

    #[test]
    fn hit_probability_reflects_activity() {
        let f = fixture();
        let r = resolver(&f);
        let mut user_prefixes: Vec<_> = f
            .topo
            .prefixes
            .iter()
            .filter(|rec| rec.kind == PrefixKind::UserAccess)
            .collect();
        user_prefixes.sort_by(|a, b| {
            f.traffic
                .prefix_total(b.id)
                .raw()
                .partial_cmp(&f.traffic.prefix_total(a.id).raw())
                .unwrap()
        });
        let busy = user_prefixes.first().unwrap();
        let quiet = user_prefixes.last().unwrap();
        // Find an ECS service: probability must be higher for the busy one.
        let svc = f.catalog.services.iter().find(|s| s.ecs_support).unwrap();
        let t = SimTime(7200);
        assert!(
            r.hit_probability(busy.id, svc.id, t) > r.hit_probability(quiet.id, svc.id, t),
            "activity ordering lost"
        );
    }

    #[test]
    fn ecs_answer_matches_ground_truth_mapping() {
        let f = fixture();
        let r = resolver(&f);
        let svc = f
            .catalog
            .services
            .iter()
            .find(|s| s.ecs_support && s.mode == itm_traffic::DeliveryMode::DnsRedirection)
            .unwrap();
        // Probe every user prefix until we find a hit; its address must be
        // the ground-truth selection for that prefix.
        let mut checked = 0;
        for rec in f.topo.prefixes.iter() {
            if rec.kind != PrefixKind::UserAccess {
                continue;
            }
            for w in 0..8 {
                let t = SimTime(w * svc.ttl_secs as u64);
                if let ProbeResult::Hit(addr) = r.probe(rec.net, &svc.domain, t) {
                    let expect = f.frontends.select(&f.topo, svc.id, rec.owner, rec.city);
                    assert_eq!(addr, expect.addr);
                    checked += 1;
                    break;
                }
            }
            if checked > 10 {
                break;
            }
        }
        assert!(checked > 0, "no hits at all — model too cold");
    }

    /// The occupancy draw as one function of its four keys, the way it
    /// was written before its terms were hoisted.
    fn four_key_draw(seed: u64, a: u64, b: u64, c: u64) -> f64 {
        let k = mix(seed ^ mix(a) ^ mix(b.rotate_left(17)) ^ mix(c.rotate_left(34)));
        (k >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn hoisted_probes_draw_like_the_four_key_draw() {
        let f = fixture();
        let r = resolver(&f);
        let mut tally = DnsTally::default();
        for svc in &f.catalog.services {
            let d = r.hoist_domain(DomainKey::of(svc));
            let ttl = svc.ttl_secs.max(1) as u64;
            for rec in f.topo.prefixes.iter().step_by(7) {
                let p = r.hoist_prefix(rec);
                let key = if svc.ecs_support {
                    rec.id.raw() as u64
                } else {
                    POP_SCOPE | r.pop_of(rec.id).raw() as u64
                };
                for secs in [0, 1_799, 7 * 3600 + 5, 86_400 + 1_800] {
                    let t = SimTime(secs);
                    let w = d.window(t);
                    assert_eq!(w.start(), SimTime(secs / ttl * ttl));
                    let p_hit = r.hit_probability(rec.id, svc.id, w.start());
                    let hit =
                        four_key_draw(r.draw_seed, key, svc.id.raw() as u64, secs / ttl) < p_hit;
                    let rate = if svc.ecs_support {
                        r.ecs_rate(
                            &p,
                            r.daily_demand(rec.id, svc.id),
                            r.window_diurnal(rec.city, d.key, t),
                        )
                    } else {
                        r.entry_rate(rec.id, svc, w.start())
                    };
                    let got = r.probe_hoisted(&p, &d, w, rate, &mut tally);
                    assert_eq!(
                        matches!(got, ProbeResult::Hit(_)),
                        hit,
                        "{:?} {:?} at {t:?}",
                        rec.id,
                        svc.id
                    );
                    assert_eq!(r.probe_prefix(rec, d.key, t, &mut tally), got);
                }
            }
        }
    }

    #[test]
    fn noise_floor_produces_rare_false_positives_only() {
        let f = fixture();
        let r = resolver(&f);
        // Infrastructure prefixes have no users; only the noise floor can
        // make them hit. Over many windows, hits must be very rare.
        let mut probes = 0u32;
        let mut hits = 0u32;
        for rec in f.topo.prefixes.iter() {
            if rec.kind != PrefixKind::Infrastructure {
                continue;
            }
            for w in 0..50 {
                let t = SimTime(w * 600);
                probes += 1;
                if matches!(r.probe(rec.net, "svc0.example", t), ProbeResult::Hit(_)) {
                    hits += 1;
                }
            }
        }
        assert!(probes > 0);
        assert!(
            (hits as f64) < probes as f64 * 0.01,
            "{hits}/{probes} false positives"
        );
    }
}
