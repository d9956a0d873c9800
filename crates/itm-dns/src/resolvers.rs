//! Recursive resolvers: who resolves for whom.
//!
//! Each AS with users operates an ISP resolver; every user prefix splits
//! its queries between that resolver and the open resolver, with an
//! adoption fraction that varies by country ("Usage of both Google Public
//! DNS and Chromium may be skewed", §3.1.3). A configurable fraction of
//! ASes outsource their resolver to another AS entirely, violating the
//! "clients are in the same AS as their recursive resolver" assumption the
//! root-log technique needs — the D2 ablation knob.

use itm_topology::{AsClass, PrefixKind, Topology};
use itm_types::rng::SeedDomain;
use itm_types::{Asn, FaultInjector, Ipv4Addr, PrefixId};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Identifier of an ISP resolver (dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ResolverId(pub u32);

/// Configuration of the resolver ecosystem.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResolverConfig {
    /// Fraction of eyeball/stub ASes whose "ISP resolver" actually lives
    /// in a different AS (an upstream or a commercial DNS outsourcer).
    pub offnet_resolver_fraction: f64,
    /// Per-prefix jitter (σ, logit scale) applied to the country-level
    /// open-resolver adoption rate.
    pub adoption_jitter: f64,
    /// Base probability that a *small* network's resolver is a forwarder
    /// to the open resolver rather than a full recursive. Forwarders'
    /// root-bound queries egress from the open resolver's addresses, so
    /// their networks are invisible to root-log crawling — a major reason
    /// the technique reaches only ~60% of traffic in \[34\]. The effective
    /// probability has a size-independent floor plus a component that
    /// decays with network size (incumbents run their own recursion):
    /// `forwarder_base · (0.45 + 1 / (1 + size_factor))`, clamped to 1.
    pub forwarder_base: f64,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        ResolverConfig {
            offnet_resolver_fraction: 0.12,
            adoption_jitter: 0.5,
            forwarder_base: 0.75,
        }
    }
}

/// One ISP resolver.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct IspResolver {
    /// Dense id.
    pub id: ResolverId,
    /// The AS whose users this resolver serves.
    pub serves: Asn,
    /// The AS the resolver host actually sits in (== `serves` unless the
    /// resolver is outsourced).
    pub located_in: Asn,
    /// Source address root servers see.
    pub addr: Ipv4Addr,
    /// Whether the resolver is a mere forwarder to the open resolver
    /// (its iterative queries egress from open-resolver addresses).
    pub forwards_to_open: bool,
}

/// The assignment of prefixes to resolvers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResolverAssignment {
    /// ISP resolvers, indexed by ResolverId.
    resolvers: Vec<IspResolver>,
    /// Per-AS resolver id (for ASes with users).
    by_as: Vec<Option<ResolverId>>,
    /// Per-prefix fraction of queries using the open resolver (0 for
    /// non-user prefixes).
    open_share: Vec<f64>,
}

impl ResolverAssignment {
    /// Build the resolver ecosystem.
    pub fn build(topo: &Topology, cfg: &ResolverConfig, seeds: &SeedDomain) -> ResolverAssignment {
        let seeds = seeds.child("resolvers");
        let mut rng = seeds.rng("isp");
        let mut resolvers = Vec::new();
        let mut by_as = vec![None; topo.n_ases()];

        // Candidate outsourcing hosts: transit providers.
        let transits: Vec<Asn> = topo
            .ases_of_class(AsClass::Transit)
            .map(|a| a.asn)
            .collect();

        for a in &topo.ases {
            if !matches!(a.class, AsClass::Eyeball | AsClass::Stub) {
                continue;
            }
            let outsourced = rng.gen_bool(cfg.offnet_resolver_fraction.clamp(0.0, 1.0));
            let located_in = if outsourced && !transits.is_empty() {
                transits[rng.gen_range(0..transits.len())]
            } else {
                a.asn
            };
            // Resolver address: inside the hosting AS's space. Distinct
            // hosts get distinct addresses even when outsourced to the
            // same provider (offset 53 + a per-resolver sub-index), so
            // root logs can tell the tenant resolvers apart.
            let host_prefixes = topo.prefixes.owned_by(located_in);
            let sub = resolvers.len() as u32;
            let addr = host_prefixes
                .get(sub as usize % host_prefixes.len().max(1))
                .map(|&p| {
                    topo.prefixes
                        .get(p)
                        .net
                        .addr(53 + sub / host_prefixes.len().max(1) as u32 % 150)
                })
                .unwrap_or(Ipv4Addr::new(127, 0, 0, 53));
            // Size-dependent plus a size-independent floor: even large
            // ISPs increasingly outsource recursion to public DNS.
            let p_forward =
                (cfg.forwarder_base * (0.45 + 1.0 / (1.0 + a.size_factor))).clamp(0.0, 1.0);
            let forwards_to_open = rng.gen_bool(p_forward);
            let id = ResolverId(resolvers.len() as u32);
            itm_obs::trace::emit(
                itm_obs::trace::Technique::Resolvers,
                itm_obs::trace::EventKind::ResolverAssigned,
                itm_obs::trace::Subjects::none()
                    .asn(a.asn.raw())
                    .addr(addr.0),
                if forwards_to_open {
                    "forwarder"
                } else {
                    "recursive"
                },
            );
            resolvers.push(IspResolver {
                id,
                serves: a.asn,
                located_in,
                addr,
                forwards_to_open,
            });
            by_as[a.asn.index()] = Some(id);
        }

        // Per-prefix open-resolver share: country adoption with jitter.
        let mut open_share = vec![0.0; topo.prefixes.len()];
        for r in topo.prefixes.iter() {
            if r.kind != PrefixKind::UserAccess {
                continue;
            }
            let country = topo.as_info(r.owner).home_country;
            let base = topo.world.country(country).open_resolver_adoption;
            let mut prng = seeds.rng_indexed("adoption", r.id.raw() as u64);
            // Jitter on the logit scale keeps the share in (0, 1).
            let logit =
                (base / (1.0 - base)).ln() + cfg.adoption_jitter * (prng.gen::<f64>() * 2.0 - 1.0);
            open_share[r.id.index()] = 1.0 / (1.0 + (-logit).exp());
        }

        ResolverAssignment {
            resolvers,
            by_as,
            open_share,
        }
    }

    /// All ISP resolvers.
    pub fn resolvers(&self) -> &[IspResolver] {
        &self.resolvers
    }

    /// The resolver serving an AS's users, if it has one.
    pub fn resolver_of(&self, asn: Asn) -> Option<&IspResolver> {
        self.by_as[asn.index()].map(|id| &self.resolvers[id.0 as usize])
    }

    /// Fraction of a prefix's queries that go to the open resolver.
    pub fn open_share(&self, p: PrefixId) -> f64 {
        self.open_share[p.index()]
    }

    /// Fraction going to the ISP resolver.
    pub fn isp_share(&self, p: PrefixId) -> f64 {
        let s = self.open_share[p.index()];
        if s > 0.0 {
            1.0 - s
        } else {
            0.0
        }
    }

    /// Re-draw the open-resolver adoption share for every user prefix
    /// owned by one of `ases` — the epoch engine's resolver-churn hook
    /// (operators switch default resolvers, national campaigns shift
    /// public-DNS uptake). Draws are keyed by prefix id under the caller's
    /// epoch-scoped domain, so the same epoch re-drawn twice lands on the
    /// same shares and prefixes outside `ases` are untouched. Non-user
    /// prefixes never acquire a share.
    pub fn churn_adoption(
        &mut self,
        topo: &Topology,
        ases: &BTreeSet<Asn>,
        jitter: f64,
        epoch_seeds: &SeedDomain,
    ) {
        for r in topo.prefixes.iter() {
            if r.kind != PrefixKind::UserAccess || !ases.contains(&r.owner) {
                continue;
            }
            let country = topo.as_info(r.owner).home_country;
            let base = topo.world.country(country).open_resolver_adoption;
            let mut prng = epoch_seeds.rng_indexed("adoption", r.id.raw() as u64);
            let logit = (base / (1.0 - base)).ln() + jitter * (prng.gen::<f64>() * 2.0 - 1.0);
            self.open_share[r.id.index()] = 1.0 / (1.0 + (-logit).exp());
        }
    }

    /// Source addresses of ISP resolvers that churn away under the given
    /// fault plan — hosts rebooted, renumbered, or decommissioned
    /// mid-campaign. Root-log crawling loses every log line such a
    /// resolver would have contributed. Draws are keyed by the resolver's
    /// dense id, so the churned set is identical across runs, shards, and
    /// thread counts.
    pub fn churned_sources(&self, faults: &FaultInjector) -> BTreeSet<Ipv4Addr> {
        if faults.is_off() {
            return BTreeSet::new();
        }
        self.resolvers
            .iter()
            .filter(|r| faults.churned(r.id.0 as u64))
            .map(|r| {
                itm_obs::counter!("faults.resolver.churned").inc();
                r.addr
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itm_topology::{generate, TopologyConfig};

    fn setup(offnet: f64) -> (Topology, ResolverAssignment) {
        let t = generate(&TopologyConfig::small(), 41).unwrap();
        let cfg = ResolverConfig {
            offnet_resolver_fraction: offnet,
            ..Default::default()
        };
        let r = ResolverAssignment::build(&t, &cfg, &SeedDomain::new(41));
        (t, r)
    }

    #[test]
    fn every_access_as_has_a_resolver() {
        let (t, r) = setup(0.1);
        for a in &t.ases {
            let should = matches!(a.class, AsClass::Eyeball | AsClass::Stub);
            assert_eq!(r.resolver_of(a.asn).is_some(), should, "{}", a.asn);
        }
    }

    #[test]
    fn zero_offnet_keeps_resolvers_home() {
        let (_, r) = setup(0.0);
        for res in r.resolvers() {
            assert_eq!(res.serves, res.located_in);
        }
    }

    #[test]
    fn offnet_fraction_moves_resolvers() {
        let (_, r) = setup(0.5);
        let moved = r
            .resolvers()
            .iter()
            .filter(|res| res.serves != res.located_in)
            .count();
        let frac = moved as f64 / r.resolvers().len() as f64;
        assert!(frac > 0.3 && frac < 0.7, "moved fraction {frac}");
    }

    #[test]
    fn open_share_only_for_user_prefixes() {
        let (t, r) = setup(0.1);
        for rec in t.prefixes.iter() {
            let s = r.open_share(rec.id);
            if rec.kind == PrefixKind::UserAccess {
                assert!(s > 0.0 && s < 1.0, "share {s}");
                assert!((r.isp_share(rec.id) + s - 1.0).abs() < 1e-12);
            } else {
                assert_eq!(s, 0.0);
                assert_eq!(r.isp_share(rec.id), 0.0);
            }
        }
    }

    #[test]
    fn global_share_is_plausible() {
        let (t, r) = setup(0.1);
        let share =
            t.prefixes.iter().map(|p| r.open_share(p.id)).sum::<f64>() / t.prefixes.len() as f64;
        // Country adoptions are drawn in [0.10, 0.65]; the mean should sit
        // inside that band (the paper cites 30-35% for Google Public DNS).
        assert!(share > 0.1 && share < 0.65, "global share {share}");
    }

    #[test]
    fn resolver_addresses_live_in_host_as() {
        let (t, r) = setup(0.3);
        for res in r.resolvers() {
            if let Some(p) = t.prefixes.lookup(res.addr) {
                assert_eq!(p.owner, res.located_in);
            }
        }
    }

    #[test]
    fn deterministic() {
        let (_, a) = setup(0.12);
        let (_, b) = setup(0.12);
        assert_eq!(a.resolvers().len(), b.resolvers().len());
        for (x, y) in a.resolvers().iter().zip(b.resolvers()) {
            assert_eq!(x.addr, y.addr);
            assert_eq!(x.located_in, y.located_in);
        }
    }
}
