//! Authoritative DNS for the service catalogue.
//!
//! A resolver querying a service's authoritative server gets a redirection
//! answer. If the service supports EDNS0 Client Subnet and the resolver
//! attached an ECS option, the answer (and its cache scope) is computed for
//! the *client's* /24; otherwise the answer is computed from the resolver's
//! own location — the precision loss that makes ECS adoption matter
//! (§3.2.1: approaches "are limited by available vantage points because
//! each only discovers the mapping based on its location").

use crate::frontends::FrontendDirectory;
use crate::opendns::HoistedAnswer;
use crate::tally::DnsTally;
use itm_topology::{PrefixRecord, Topology};
use itm_traffic::{DeliveryMode, ServiceCatalog};
use itm_types::{FaultInjector, Ipv4Addr, Ipv4Net, ProbeFate, ServiceId};
use serde::{Deserialize, Serialize};

/// The scope of a DNS answer: which clients it is valid (cacheable) for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AnswerScope {
    /// Valid only for the ECS /24 it was computed for.
    ClientPrefix(Ipv4Net),
    /// Valid for anyone behind the querying resolver/PoP.
    ResolverWide,
}

/// A DNS answer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DnsAnswer {
    /// The address handed to the client.
    pub addr: Ipv4Addr,
    /// Cache scope.
    pub scope: AnswerScope,
    /// TTL in seconds.
    pub ttl_secs: u32,
}

/// The ECS option of one query, as the authoritative sees it.
#[derive(Debug, Clone, Copy)]
enum Ecs<'r> {
    /// No ECS option.
    Absent,
    /// ECS for a routed client /24, located in the ground truth.
    Client(&'r PrefixRecord),
    /// ECS for a /24 the ground truth does not route.
    Unrouted(Ipv4Net),
}

/// The authoritative servers of every service, as one queryable object.
#[derive(Debug, Clone)]
pub struct AuthoritativeDns<'a> {
    topo: &'a Topology,
    catalog: &'a ServiceCatalog,
    frontends: &'a FrontendDirectory,
}

impl<'a> AuthoritativeDns<'a> {
    /// Bind authoritative behaviour to a topology and catalogue.
    pub fn new(
        topo: &'a Topology,
        catalog: &'a ServiceCatalog,
        frontends: &'a FrontendDirectory,
    ) -> Self {
        AuthoritativeDns {
            topo,
            catalog,
            frontends,
        }
    }

    /// Resolve `service` for a query arriving from a resolver located in
    /// `resolver_city`, optionally carrying an ECS option for a client
    /// /24. This is the full redirection logic of §3.2:
    ///
    /// * anycast services always return the VIP (scope: anyone);
    /// * ECS-supporting services with an ECS option return the per-client
    ///   endpoint, scoped to the client /24;
    /// * everything else returns the endpoint nearest the *resolver*,
    ///   scoped resolver-wide.
    ///
    /// A wrapper over [`AuthoritativeDns::resolve_record`]: it locates the
    /// ECS prefix in the ground truth once and bumps the global counters.
    pub fn resolve(
        &self,
        service: ServiceId,
        resolver_city: u32,
        ecs: Option<Ipv4Net>,
    ) -> DnsAnswer {
        let mut tally = DnsTally::default();
        let ans = self.answer(service, resolver_city, self.ecs_of(ecs), None, &mut tally);
        tally.flush();
        ans
    }

    /// [`AuthoritativeDns::resolve`] for a routed client the caller has
    /// already located: `ecs` is the client's prefix record, so the answer
    /// needs no prefix lookup. `hoisted`, when given, is the client's
    /// front-end as [`AuthoritativeDns::redirect`] gives it
    /// (debug-asserted), resolved once for a run of clients, and the
    /// answer skips the redirection lookup. Counts into `tally`, not the
    /// registry.
    pub fn resolve_record(
        &self,
        service: ServiceId,
        resolver_city: u32,
        ecs: Option<&PrefixRecord>,
        hoisted: Option<HoistedAnswer>,
        tally: &mut DnsTally,
    ) -> DnsAnswer {
        let ecs = ecs.map_or(Ecs::Absent, Ecs::Client);
        self.answer(service, resolver_city, ecs, hoisted.map(|h| h.addr), tally)
    }

    /// The front-end the redirection policy picks for an ECS query of
    /// `service` from `client`: a function of the client's AS and city
    /// alone, so clients that share both get the same one.
    pub(crate) fn redirect(&self, service: ServiceId, client: &PrefixRecord) -> Ipv4Addr {
        self.frontends
            .select(self.topo, service, client.owner, client.city)
            .addr
    }

    /// [`AuthoritativeDns::resolve_record`] under fault injection: the
    /// authoritative server may *refuse* the query (loss and timeouts
    /// belong to the resolver hop, so only the plan's refusal rate
    /// applies here). Refusals are retried per the plan's policy; when
    /// retries exhaust, the answer is dropped and a `ProbeFailed` trace
    /// event records the gap. `client_key` is a stable identifier of the
    /// querying client (prefix raw id) so the draw is entity-keyed.
    #[allow(clippy::too_many_arguments)]
    pub fn resolve_record_with_faults(
        &self,
        service: ServiceId,
        resolver_city: u32,
        ecs: Option<&PrefixRecord>,
        hoisted: Option<HoistedAnswer>,
        faults: &FaultInjector,
        client_key: u64,
        tally: &mut DnsTally,
    ) -> (Option<DnsAnswer>, ProbeFate) {
        let resolve =
            |tally: &mut DnsTally| self.resolve_record(service, resolver_city, ecs, hoisted, tally);
        if faults.is_off() {
            return (Some(resolve(tally)), ProbeFate::Observed);
        }
        let fate = faults.refusal_fate(service.raw() as u64, client_key, resolver_city as u64);
        let subjects = || {
            let s = itm_obs::trace::Subjects::none().service(service.raw());
            match ecs {
                Some(rec) => s.prefix(rec.id.raw()),
                None => s,
            }
        };
        match fate {
            ProbeFate::Observed => {}
            ProbeFate::Degraded { retries } => {
                itm_obs::counter!("faults.auth.retried").inc();
                itm_obs::trace::emit(
                    itm_obs::trace::Technique::Dns,
                    itm_obs::trace::EventKind::ProbeRetried,
                    subjects(),
                    &format!(
                        "refused, retries={retries} backoff={}s",
                        faults.total_backoff_secs(service.raw() as u64 ^ client_key, retries)
                    ),
                );
            }
            ProbeFate::Lost => {
                itm_obs::counter!("faults.auth.lost").inc();
                itm_obs::trace::emit(
                    itm_obs::trace::Technique::Dns,
                    itm_obs::trace::EventKind::ProbeFailed,
                    subjects(),
                    "refused on every attempt",
                );
                return (None, ProbeFate::Lost);
            }
        }
        (Some(resolve(tally)), fate)
    }

    /// Classify an ECS option against the ground-truth prefix table.
    fn ecs_of(&self, ecs: Option<Ipv4Net>) -> Ecs<'a> {
        match ecs {
            None => Ecs::Absent,
            Some(net) => match self.topo.prefixes.find(net) {
                Some(r) => Ecs::Client(r),
                None => Ecs::Unrouted(net),
            },
        }
    }

    /// The redirection logic `resolve` and `resolve_record` share.
    fn answer(
        &self,
        service: ServiceId,
        resolver_city: u32,
        ecs: Ecs<'_>,
        hoisted: Option<Ipv4Addr>,
        tally: &mut DnsTally,
    ) -> DnsAnswer {
        if matches!(ecs, Ecs::Absent) {
            tally.auth_queries_plain += 1;
        } else {
            tally.auth_queries_ecs += 1;
        }
        let s = self.catalog.get(service);
        if s.mode == DeliveryMode::Anycast {
            // Every anycast service gets a VIP at directory build time; a
            // VIP-less one degrades to the unicast redirection path below
            // instead of panicking.
            if let Some(addr) = self.frontends.vip(service) {
                itm_obs::trace::emit(
                    itm_obs::trace::Technique::Dns,
                    itm_obs::trace::EventKind::AuthAnswer,
                    itm_obs::trace::Subjects::none()
                        .service(service.raw())
                        .addr(addr.0),
                    "anycast-vip",
                );
                return DnsAnswer {
                    addr,
                    scope: AnswerScope::ResolverWide,
                    ttl_secs: s.ttl_secs,
                };
            }
        }
        let (addr, scope) = match ecs {
            // The true redirection policy for the located client prefix,
            // unless the caller resolved it once for the client's run.
            Ecs::Client(r) if s.ecs_support => {
                debug_assert!(
                    hoisted.is_none_or(|a| a == self.redirect(service, r)),
                    "hoisted answer of {:?} for {service:?}",
                    r.id
                );
                let addr = hoisted.unwrap_or_else(|| self.redirect(service, r));
                (addr, AnswerScope::ClientPrefix(r.net))
            }
            // Unrouted ECS prefix: answer from resolver locale, but still
            // scope it to the (bogus) client net, as real ECS servers do.
            Ecs::Unrouted(net) if s.ecs_support => (
                self.frontends
                    .select_by_city(self.topo, service, resolver_city)
                    .addr,
                AnswerScope::ClientPrefix(net),
            ),
            _ => (
                self.frontends
                    .select_by_city(self.topo, service, resolver_city)
                    .addr,
                AnswerScope::ResolverWide,
            ),
        };
        let ans = DnsAnswer {
            addr,
            scope,
            ttl_secs: s.ttl_secs,
        };
        itm_obs::trace::emit(
            itm_obs::trace::Technique::Dns,
            itm_obs::trace::EventKind::AuthAnswer,
            itm_obs::trace::Subjects::none()
                .service(service.raw())
                .addr(ans.addr.0),
            match ans.scope {
                AnswerScope::ClientPrefix(_) => "ecs-scoped",
                AnswerScope::ResolverWide => "resolver-wide",
            },
        );
        ans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itm_topology::{generate, TopologyConfig};
    use itm_traffic::{ServiceCatalogConfig, ServiceOwner};
    use itm_types::SeedDomain;

    struct Fixture {
        topo: Topology,
        catalog: ServiceCatalog,
        frontends: FrontendDirectory,
    }

    fn fixture() -> Fixture {
        let topo = generate(&TopologyConfig::small(), 37).unwrap();
        let catalog =
            ServiceCatalog::generate(&ServiceCatalogConfig::small(), &topo, &SeedDomain::new(37));
        let frontends = FrontendDirectory::build(&topo, &catalog);
        Fixture {
            topo,
            catalog,
            frontends,
        }
    }

    #[test]
    fn anycast_services_return_vip() {
        let f = fixture();
        let auth = AuthoritativeDns::new(&f.topo, &f.catalog, &f.frontends);
        let any = f
            .catalog
            .services
            .iter()
            .find(|s| s.mode == DeliveryMode::Anycast)
            .expect("an anycast service exists");
        let ans = auth.resolve(any.id, 0, None);
        assert_eq!(Some(ans.addr), f.frontends.vip(any.id));
        assert_eq!(ans.scope, AnswerScope::ResolverWide);
        // ECS does not change the answer.
        let some_net = f.topo.prefixes.get(itm_types::PrefixId(0)).net;
        let ans2 = auth.resolve(any.id, 0, Some(some_net));
        assert_eq!(ans2.addr, ans.addr);
    }

    #[test]
    fn ecs_answers_are_client_scoped_and_client_correct() {
        let f = fixture();
        let auth = AuthoritativeDns::new(&f.topo, &f.catalog, &f.frontends);
        let svc = f
            .catalog
            .services
            .iter()
            .find(|s| s.ecs_support && s.mode == DeliveryMode::DnsRedirection)
            .expect("an ECS DNS service exists");
        // Pick a user prefix.
        let r = f
            .topo
            .prefixes
            .iter()
            .find(|r| r.kind == itm_topology::PrefixKind::UserAccess)
            .unwrap();
        let ans = auth.resolve(svc.id, 0, Some(r.net));
        assert_eq!(ans.scope, AnswerScope::ClientPrefix(r.net));
        // The answer must equal the ground-truth redirection policy.
        let expect = f.frontends.select(&f.topo, svc.id, r.owner, r.city);
        assert_eq!(ans.addr, expect.addr);
        assert_eq!(ans.ttl_secs, svc.ttl_secs);
    }

    #[test]
    fn non_ecs_services_answer_from_resolver_city() {
        let f = fixture();
        let auth = AuthoritativeDns::new(&f.topo, &f.catalog, &f.frontends);
        let svc = f
            .catalog
            .services
            .iter()
            .find(|s| !s.ecs_support && s.mode == DeliveryMode::DnsRedirection)
            .expect("a non-ECS DNS service exists");
        let r = f
            .topo
            .prefixes
            .iter()
            .find(|r| r.kind == itm_topology::PrefixKind::UserAccess)
            .unwrap();
        // ECS supplied but ignored.
        let city = f.topo.ases[0].cities[0];
        let with_ecs = auth.resolve(svc.id, city, Some(r.net));
        let without = auth.resolve(svc.id, city, None);
        assert_eq!(with_ecs.addr, without.addr);
        assert_eq!(with_ecs.scope, AnswerScope::ResolverWide);
    }

    #[test]
    fn offnet_answer_for_hosted_client() {
        let f = fixture();
        let auth = AuthoritativeDns::new(&f.topo, &f.catalog, &f.frontends);
        // An ECS hypergiant service + a host of that hypergiant's off-nets.
        let target = f.catalog.services.iter().find_map(|s| {
            if !s.ecs_support || s.mode != DeliveryMode::DnsRedirection {
                return None;
            }
            match s.owner {
                ServiceOwner::Hypergiant(hg) => f
                    .topo
                    .offnets
                    .of_hypergiant(hg)
                    .next()
                    .map(|d| (s, d.host, d.prefix)),
                _ => None,
            }
        });
        let Some((svc, host, _)) = target else {
            // Seeds might not produce the combination in a tiny topology;
            // the frontends tests cover select() itself.
            return;
        };
        // Query with ECS for one of the host's user prefixes.
        let client = f
            .topo
            .prefixes
            .owned_by(host)
            .iter()
            .map(|&p| f.topo.prefixes.get(p))
            .find(|r| r.kind == itm_topology::PrefixKind::UserAccess)
            .unwrap();
        let ans = auth.resolve(svc.id, 0, Some(client.net));
        let answered = f.topo.prefixes.lookup(ans.addr).unwrap();
        assert_eq!(answered.owner, host, "client not served from its off-net");
        assert_eq!(answered.kind, itm_topology::PrefixKind::OffnetCache);
    }

    #[test]
    fn unrouted_ecs_prefix_falls_back() {
        let f = fixture();
        let auth = AuthoritativeDns::new(&f.topo, &f.catalog, &f.frontends);
        let svc = f
            .catalog
            .services
            .iter()
            .find(|s| s.ecs_support && s.mode == DeliveryMode::DnsRedirection)
            .unwrap();
        let bogus: Ipv4Net = "203.0.113.0/24".parse().unwrap();
        let ans = auth.resolve(svc.id, 0, Some(bogus));
        assert_eq!(ans.scope, AnswerScope::ClientPrefix(bogus));
    }
}
