//! The assembled topology: entities plus derived indices and invariants.

use crate::asinfo::{AsClass, AsInfo};
use crate::cone::CustomerCones;
use crate::config::TopologyConfig;
use crate::facility::{Facility, Ixp};
use crate::link::{AsRel, Link, LinkClass, LinkId};
use crate::offnet::OffnetTable;
use crate::prefix::{PrefixKind, PrefixTable};
use itm_types::geo::World;
use itm_types::{Asn, GeoPoint};
use std::collections::BTreeSet;

/// A neighbor relationship seen from one AS's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NeighborKind {
    /// The neighbor pays us (we are its provider).
    Customer,
    /// We pay the neighbor (it is our provider).
    Provider,
    /// Settlement-free peer.
    Peer,
}

/// One entry in an AS's adjacency list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Neighbor {
    /// The adjacent AS.
    pub asn: Asn,
    /// Our relationship to it.
    pub kind: NeighborKind,
    /// Index of the underlying link.
    pub link: LinkId,
}

/// A complete synthetic Internet.
///
/// Built by [`crate::generate`]; immutable afterwards. All downstream
/// systems (routing, traffic, DNS, TLS, measurement) borrow it.
#[derive(Debug, Clone)]
pub struct Topology {
    /// The configuration that produced this Internet.
    pub config: TopologyConfig,
    /// The seed that produced this Internet (for provenance in reports).
    pub seed: u64,
    /// Geography.
    pub world: World,
    /// All ASes, indexed by dense ASN.
    pub ases: Vec<AsInfo>,
    /// Ground-truth link set.
    pub links: Vec<Link>,
    /// Colocation facilities.
    pub facilities: Vec<Facility>,
    /// Internet exchange points.
    pub ixps: Vec<Ixp>,
    /// Routed /24 table.
    pub prefixes: PrefixTable,
    /// Hypergiant off-net deployments.
    pub offnets: OffnetTable,
    /// Customer cones (computed at build time).
    pub cones: CustomerCones,
    /// adjacency[asn] — neighbors with perspective-relative relationship.
    adjacency: Vec<Vec<Neighbor>>,
    /// Great-circle distance between every pair of cities, row-major by
    /// the `from` city (see [`Topology::city_km`]). Filled once from
    /// `world` when the topology is built.
    city_km: Vec<f64>,
    /// Links currently flapped down (canonical endpoint pairs). Empty on
    /// every generated topology; the epoch engine toggles entries between
    /// map builds. Downed links stay in [`Topology::links`] (they still
    /// exist contractually) but are excluded from routing views.
    links_down: BTreeSet<(Asn, Asn)>,
}

impl Topology {
    /// Assemble a topology from parts, rebuilding all derived indices
    /// (adjacency, customer cones). Used by the generator and by the
    /// evolution machinery that mutates an existing Internet.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        config: TopologyConfig,
        seed: u64,
        world: World,
        ases: Vec<AsInfo>,
        links: Vec<Link>,
        facilities: Vec<Facility>,
        ixps: Vec<Ixp>,
        prefixes: PrefixTable,
        offnets: OffnetTable,
    ) -> Topology {
        let n = ases.len();
        let mut adjacency: Vec<Vec<Neighbor>> = vec![Vec::new(); n];
        for (i, l) in links.iter().enumerate() {
            let id = LinkId(i as u32);
            match l.rel {
                AsRel::CustomerToProvider => {
                    adjacency[l.a.index()].push(Neighbor {
                        asn: l.b,
                        kind: NeighborKind::Provider,
                        link: id,
                    });
                    adjacency[l.b.index()].push(Neighbor {
                        asn: l.a,
                        kind: NeighborKind::Customer,
                        link: id,
                    });
                }
                AsRel::PeerToPeer => {
                    adjacency[l.a.index()].push(Neighbor {
                        asn: l.b,
                        kind: NeighborKind::Peer,
                        link: id,
                    });
                    adjacency[l.b.index()].push(Neighbor {
                        asn: l.a,
                        kind: NeighborKind::Peer,
                        link: id,
                    });
                }
            }
        }
        // Deterministic neighbor order (by ASN) so route tiebreaks are stable.
        for adj in &mut adjacency {
            adj.sort_by_key(|n| n.asn);
        }
        let cones = CustomerCones::compute(n, &links);
        let locs: Vec<GeoPoint> = world.cities.iter().map(|c| c.location).collect();
        let city_km = locs
            .iter()
            .flat_map(|from| locs.iter().map(|&to| from.distance_km(to)))
            .collect();
        Topology {
            config,
            seed,
            world,
            ases,
            links,
            facilities,
            ixps,
            prefixes,
            offnets,
            cones,
            adjacency,
            city_km,
            links_down: BTreeSet::new(),
        }
    }

    /// Toggle a link's flap state; returns true when the link is now down.
    /// `key` must be in canonical (low ASN first) order, as produced by
    /// [`Link::key`].
    pub fn toggle_link_down(&mut self, key: (Asn, Asn)) -> bool {
        if self.links_down.remove(&key) {
            false
        } else {
            self.links_down.insert(key);
            true
        }
    }

    /// The currently downed links (canonical endpoint pairs).
    pub fn links_down(&self) -> &BTreeSet<(Asn, Asn)> {
        &self.links_down
    }

    /// Number of ASes.
    pub fn n_ases(&self) -> usize {
        self.ases.len()
    }

    /// Info for one AS.
    pub fn as_info(&self, asn: Asn) -> &AsInfo {
        &self.ases[asn.index()]
    }

    /// Neighbors of `asn`, sorted by neighbor ASN.
    pub fn neighbors(&self, asn: Asn) -> &[Neighbor] {
        &self.adjacency[asn.index()]
    }

    /// All ASes of a class, in ASN order.
    pub fn ases_of_class(&self, class: AsClass) -> impl Iterator<Item = &AsInfo> {
        self.ases.iter().filter(move |a| a.class == class)
    }

    /// The hypergiant ASes.
    pub fn hypergiants(&self) -> Vec<Asn> {
        self.ases_of_class(AsClass::Hypergiant)
            .map(|a| a.asn)
            .collect()
    }

    /// The cloud ASes.
    pub fn clouds(&self) -> Vec<Asn> {
        self.ases_of_class(AsClass::Cloud).map(|a| a.asn).collect()
    }

    /// Geographic location of a city id.
    pub fn city_location(&self, city: u32) -> GeoPoint {
        self.world.cities[city as usize].location
    }

    /// Great-circle distance in km from city `from` to city `to`, read from
    /// a table built with the topology. Each value is
    /// `city_location(from).distance_km(city_location(to))`, bit for bit,
    /// in that argument order.
    #[inline]
    pub fn city_km(&self, from: u32, to: u32) -> f64 {
        self.city_km[from as usize * self.world.cities.len() + to as usize]
    }

    /// Representative location for an AS: its first (primary) city.
    pub fn as_location(&self, asn: Asn) -> GeoPoint {
        let a = self.as_info(asn);
        // itm-lint: allow(P001): check_invariants rejects city-less ASes at generation time
        self.city_location(*a.cities.first().expect("AS has at least one city"))
    }

    /// Whether a ground-truth link exists between `x` and `y`.
    pub fn has_link(&self, x: Asn, y: Asn) -> bool {
        self.adjacency[x.index()].iter().any(|n| n.asn == y)
    }

    /// Count links by class predicate.
    pub fn count_links(&self, pred: impl Fn(&Link) -> bool) -> usize {
        self.links.iter().filter(|l| pred(l)).count()
    }

    /// Structural invariants every generated Internet must satisfy.
    /// Called by the generator in debug builds and by integration tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.n_ases();
        // 1. Dense ASNs.
        for (i, a) in self.ases.iter().enumerate() {
            if a.asn.index() != i {
                return Err(format!("AS at index {i} has asn {}", a.asn));
            }
            if a.cities.is_empty() {
                return Err(format!("{} has no cities", a.asn));
            }
        }
        // 2. Tier-1 clique, and tier-1s have no providers.
        let tier1: Vec<Asn> = self.ases_of_class(AsClass::Tier1).map(|a| a.asn).collect();
        for &t in &tier1 {
            for &u in &tier1 {
                if t < u && !self.has_link(t, u) {
                    return Err(format!("tier-1s {t} and {u} not connected"));
                }
            }
            if self
                .neighbors(t)
                .iter()
                .any(|nb| nb.kind == NeighborKind::Provider)
            {
                return Err(format!("tier-1 {t} has a provider"));
            }
        }
        // 3. Everyone else has at least one provider (no partitions at the
        //    BGP level) unless they are tier-1.
        for a in &self.ases {
            if a.class != AsClass::Tier1 {
                let has_provider = self
                    .neighbors(a.asn)
                    .iter()
                    .any(|nb| nb.kind == NeighborKind::Provider);
                if !has_provider {
                    return Err(format!("{} ({}) has no provider", a.asn, a.class.label()));
                }
            }
        }
        // 4. Links reference valid ASes and peer links are canonical.
        for l in &self.links {
            if l.a.index() >= n || l.b.index() >= n {
                return Err(format!("link {l:?} references unknown AS"));
            }
            if l.a == l.b {
                return Err(format!("self-link at {}", l.a));
            }
            if l.rel == AsRel::PeerToPeer && l.a > l.b {
                return Err(format!("non-canonical peer link {l:?}"));
            }
            match l.class {
                LinkClass::PublicPeering(ix) => {
                    if ix.index() >= self.ixps.len() {
                        return Err(format!("link references unknown IXP {ix}"));
                    }
                }
                LinkClass::PrivatePeering(f) => {
                    if f.index() >= self.facilities.len() {
                        return Err(format!("link references unknown facility {f}"));
                    }
                }
                LinkClass::Transit => {}
            }
        }
        // 5. No duplicate adjacencies.
        let mut keys: Vec<(Asn, Asn)> = self.links.iter().map(|l| l.key()).collect();
        keys.sort_unstable();
        let before = keys.len();
        keys.dedup();
        if keys.len() != before {
            return Err("duplicate links present".into());
        }
        // 6. Prefix owners valid; off-net prefixes are OffnetCache kind.
        for r in self.prefixes.iter() {
            if r.owner.index() >= n {
                return Err(format!("prefix {} owned by unknown AS", r.net));
            }
        }
        for d in self.offnets.iter() {
            let r = self.prefixes.get(d.prefix);
            if r.kind != PrefixKind::OffnetCache {
                return Err(format!(
                    "offnet deployment {:?} points at non-offnet prefix {}",
                    d, r.net
                ));
            }
            if r.owner != d.host {
                return Err(format!(
                    "offnet prefix {} owned by {} but deployment says host {}",
                    r.net, r.owner, d.host
                ));
            }
            if self.as_info(d.hypergiant).class != AsClass::Hypergiant {
                return Err(format!("{} is not a hypergiant", d.hypergiant));
            }
        }
        // 7. Every user-access prefix belongs to an eyeball or stub.
        for r in self.prefixes.of_kind(PrefixKind::UserAccess) {
            let class = self.as_info(r.owner).class;
            if !matches!(class, AsClass::Eyeball | AsClass::Stub) {
                return Err(format!(
                    "user prefix {} owned by {} ({})",
                    r.net,
                    r.owner,
                    class.label()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{generate, TopologyConfig};

    #[test]
    fn city_km_is_bit_identical_to_the_haversine_in_place() {
        let t = generate(&TopologyConfig::small(), 3).unwrap();
        let n = t.world.cities.len() as u32;
        assert!(n > 1);
        for from in 0..n {
            for to in 0..n {
                let want = t.city_location(from).distance_km(t.city_location(to));
                assert_eq!(t.city_km(from, to).to_bits(), want.to_bits(), "{from}→{to}");
            }
        }
    }
}
