//! Temporal evolution of the Internet — why Table 1 has a *temporal
//! precision* column.
//!
//! The paper demands component refresh cadences (users daily, activity
//! hourly, services weekly, mapping hourly, routes daily) because the
//! Internet drifts underneath a map: hypergiants keep deploying off-nets
//! (\[25\] tracked seven years of growth), peering keeps densifying, and
//! user populations shift. [`evolve`] advances a substrate by N days with
//! deterministic incremental drift:
//!
//! * each hypergiant deploys off-nets into further eyeballs at a daily
//!   rate (the \[25\] growth process);
//! * content networks add peering links to co-located networks
//!   (flattening continues);
//! * per-prefix user populations random-walk (multiplicative drift).
//!
//! The [`staleness`] experiment builds a map on day 0 and scores it
//! against evolved ground truth: the decay curve is the empirical
//! justification for the desired cadences.

use crate::substrate::Substrate;
use itm_obs::exec::ParallelExecutor;
use itm_topology::{
    AsClass, Link, LinkClass, OffnetDeployment, PrefixKind, Slash24Allocator, Topology,
};
use itm_traffic::UserModel;

use itm_types::Asn;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// New off-net deployments per hypergiant per day (fractional rates
/// accumulate across days).
const OFFNETS_PER_HG_DAY: f64 = 0.5;
/// New content↔access peering links per content AS per day.
const PEERINGS_PER_CONTENT_DAY: f64 = 0.3;
/// σ of the per-prefix daily log-population drift.
const USER_DRIFT_SIGMA: f64 = 0.02;

/// Advance a substrate by `days` of drift. Returns a fully rebuilt
/// substrate (traffic, DNS, TLS layers all re-derived from the evolved
/// topology by the same assembly as [`Substrate::build_with`], on
/// `exec`), deterministic in `(s.seed, days)`.
pub fn evolve(s: &Substrate, days: u64, exec: &ParallelExecutor) -> Substrate {
    let seeds = s.seeds.child("evolution");
    let mut rng = seeds.rng_indexed("day", days);

    let mut links = s.topo.links.clone();
    let mut prefixes = s.topo.prefixes.clone();
    let mut offnets = s.topo.offnets.clone();

    // Continue the address plan where the generator stopped.
    let mut alloc = Slash24Allocator::new();
    let highest = prefixes
        .iter()
        .map(|r| r.net.network().0)
        .max()
        .unwrap_or(0);
    while alloc.alloc().network().0 <= highest {}

    // --- Off-net growth: next-largest unhosted eyeballs first. ---
    let mut eyeballs: Vec<&itm_topology::AsInfo> = s.topo.ases_of_class(AsClass::Eyeball).collect();
    eyeballs.sort_by(|a, b| {
        b.size_factor
            .total_cmp(&a.size_factor)
            .then(a.asn.cmp(&b.asn))
    });
    for hg in s.topo.hypergiants() {
        let n_new = (OFFNETS_PER_HG_DAY * days as f64).floor() as usize;
        let mut added = 0;
        for host in &eyeballs {
            if added >= n_new {
                break;
            }
            if offnets.find(hg, host.asn).is_some() {
                continue;
            }
            let city = host.cities[rng.gen_range(0..host.cities.len())];
            let pfx = prefixes.push(alloc.alloc(), host.asn, city, PrefixKind::OffnetCache);
            offnets.push(OffnetDeployment {
                hypergiant: hg,
                host: host.asn,
                prefix: pfx,
                city,
            });
            added += 1;
        }
    }

    // --- Peering growth: content ASes link to more co-located networks. ---
    let mut link_keys: std::collections::HashSet<(Asn, Asn)> =
        links.iter().map(|l| l.key()).collect();
    let content: Vec<Asn> = s
        .topo
        .ases
        .iter()
        .filter(|a| a.class.is_content())
        .map(|a| a.asn)
        .collect();
    for c in content {
        let n_new = (PEERINGS_PER_CONTENT_DAY * days as f64).floor() as usize;
        let c_cities: std::collections::HashSet<u32> =
            s.topo.as_info(c).cities.iter().copied().collect();
        let mut added = 0;
        // Deterministic candidate order: largest first.
        for cand in &eyeballs {
            if added >= n_new {
                break;
            }
            if cand.asn == c
                || link_keys.contains(&Link::peering(c, cand.asn, LinkClass::Transit).key())
            {
                continue;
            }
            if !cand.cities.iter().any(|ci| c_cities.contains(ci)) {
                continue;
            }
            let fac = s
                .topo
                .facilities
                .iter()
                .find(|f| f.has_tenant(c) && f.has_tenant(cand.asn))
                .map(|f| f.id);
            let class = match fac {
                Some(f) => LinkClass::PrivatePeering(f),
                None => continue,
            };
            let l = Link::peering(c, cand.asn, class);
            link_keys.insert(l.key());
            links.push(l);
            added += 1;
        }
    }

    // AS records themselves are stable across this horizon.
    let topo = Topology::from_parts(
        s.topo.config.clone(),
        s.topo.seed,
        s.topo.world.clone(),
        s.topo.ases.clone(),
        links,
        s.topo.facilities.clone(),
        s.topo.ixps.clone(),
        prefixes,
        offnets,
    );

    // Rebuild downstream layers. The user model drifts: same base draw,
    // scaled by a per-prefix day-keyed log-normal walk.
    let mut users = UserModel::generate(&topo, &s.seeds);
    users.apply_drift(&topo, days, USER_DRIFT_SIGMA, &seeds.child("users"));
    Substrate {
        vm_down: s.vm_down.clone(),
        ..Substrate::assemble(s.config.clone(), s.seed, topo, users, exec)
    }
}

/// Staleness of a day-0 user→host mapping against day-N ground truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StalenessReport {
    /// Days elapsed.
    pub days: u64,
    /// Fraction of day-0 mapping cells whose ground-truth front-end
    /// changed (off-net growth redirects clients inward).
    pub mapping_stale_fraction: f64,
    /// New off-net deployments the day-0 map does not know about.
    pub new_offnets: usize,
    /// New peering links missing from the day-0 route view.
    pub new_links: usize,
}

/// Score a day-0 map's mapping component against evolved ground truth.
pub fn staleness(
    day0: &Substrate,
    evolved: &Substrate,
    day0_mapping: &crate::user_mapping::UserMapping,
    days: u64,
) -> StalenessReport {
    let mut stale = 0usize;
    let mut total = 0usize;
    for c in day0_mapping.mapping.iter() {
        // The prefix table only grew; day-0 ids are stable.
        let rec = evolved.topo.prefixes.get(c.prefix);
        if c.service.index() >= evolved.catalog.len() {
            continue;
        }
        let now = evolved
            .frontends
            .select(&evolved.topo, c.service, rec.owner, rec.city);
        total += 1;
        if now.addr != c.addr {
            stale += 1;
        }
    }
    StalenessReport {
        days,
        mapping_stale_fraction: if total > 0 {
            stale as f64 / total as f64
        } else {
            0.0
        },
        new_offnets: evolved.topo.offnets.len() - day0.topo.offnets.len(),
        new_links: evolved.topo.links.len() - day0.topo.links.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::SubstrateConfig;
    use crate::user_mapping::UserMapping;

    fn setup() -> Substrate {
        Substrate::build(SubstrateConfig::small(), 191).unwrap()
    }

    #[test]
    fn evolution_grows_monotonically_and_keeps_invariants() {
        let s = setup();
        let e7 = evolve(&s, 7, &ParallelExecutor::sequential());
        let e30 = evolve(&s, 30, &ParallelExecutor::sequential());
        assert_eq!(e7.topo.check_invariants(), Ok(()));
        assert_eq!(e30.topo.check_invariants(), Ok(()));
        assert!(e7.topo.offnets.len() >= s.topo.offnets.len());
        assert!(e30.topo.offnets.len() >= e7.topo.offnets.len());
        assert!(e30.topo.links.len() >= e7.topo.links.len());
        // Prefix table only grows; existing ids keep their nets.
        assert!(e30.topo.prefixes.len() >= s.topo.prefixes.len());
        for r in s.topo.prefixes.iter().take(50) {
            assert_eq!(e30.topo.prefixes.get(r.id).net, r.net);
        }
    }

    #[test]
    fn evolution_is_deterministic() {
        let s = setup();
        let a = evolve(&s, 14, &ParallelExecutor::sequential());
        let b = evolve(&s, 14, &ParallelExecutor::sequential());
        assert_eq!(a.topo.links.len(), b.topo.links.len());
        assert_eq!(a.topo.offnets.len(), b.topo.offnets.len());
        assert_eq!(a.users.total(), b.users.total());
    }

    #[test]
    fn maps_go_stale_over_time() {
        let s = setup();
        let resolver = s.open_resolver().expect("open resolver");
        let mapping = UserMapping::measure(&s, &resolver);

        let e7 = evolve(&s, 7, &ParallelExecutor::sequential());
        let e60 = evolve(&s, 60, &ParallelExecutor::sequential());
        let r7 = staleness(&s, &e7, &mapping, 7);
        let r60 = staleness(&s, &e60, &mapping, 60);
        assert!(r60.new_offnets >= r7.new_offnets);
        assert!(
            r60.mapping_stale_fraction >= r7.mapping_stale_fraction,
            "staleness must not shrink: {:.4} vs {:.4}",
            r60.mapping_stale_fraction,
            r7.mapping_stale_fraction
        );
        // Two months of off-net growth must invalidate a visible share of
        // the mapping.
        assert!(
            r60.mapping_stale_fraction > 0.0,
            "evolution had no effect on the mapping"
        );
    }

    #[test]
    fn user_drift_changes_populations() {
        let s = setup();
        let e = evolve(&s, 30, &ParallelExecutor::sequential());
        assert_ne!(s.users.total(), e.users.total());
        // Drift is bounded: total should stay within a factor of 2.
        let ratio = e.users.total() / s.users.total();
        assert!(ratio > 0.5 && ratio < 2.0, "ratio {ratio}");
    }
}
