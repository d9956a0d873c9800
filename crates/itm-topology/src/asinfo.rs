//! Autonomous-system descriptions.

use itm_types::{Asn, Country};
use serde::{Deserialize, Serialize};

/// The role an AS plays in the synthetic Internet.
///
/// Classes drive every structural decision: how many cities an AS reaches,
/// whom it buys transit from, how eagerly it peers, how many prefixes and
/// users it has, and whether it operates serving infrastructure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AsClass {
    /// Transit-free backbone; full mesh with other tier-1s, sells transit.
    Tier1,
    /// Regional/national transit provider; buys from tier-1s, sells below.
    Transit,
    /// Access/eyeball ISP: hosts users, buys transit, peers at IXPs.
    Eyeball,
    /// Small multihomed stub (enterprise, university, small hoster).
    Stub,
    /// Hypergiant content provider (the "handful of large providers" of
    /// §1): operates its own services, on-net PoPs, and off-net caches.
    Hypergiant,
    /// Public cloud provider hosting third-party services (§1: "most other
    /// large services are hosted by one of a few large cloud providers").
    Cloud,
}

impl AsClass {
    /// All classes, in a stable order.
    pub const ALL: [AsClass; 6] = [
        AsClass::Tier1,
        AsClass::Transit,
        AsClass::Eyeball,
        AsClass::Stub,
        AsClass::Hypergiant,
        AsClass::Cloud,
    ];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            AsClass::Tier1 => "tier1",
            AsClass::Transit => "transit",
            AsClass::Eyeball => "eyeball",
            AsClass::Stub => "stub",
            AsClass::Hypergiant => "hypergiant",
            AsClass::Cloud => "cloud",
        }
    }

    /// Whether this class operates serving infrastructure for popular
    /// services (its own, or customers' in the cloud case).
    pub fn is_content(self) -> bool {
        matches!(self, AsClass::Hypergiant | AsClass::Cloud)
    }

    /// Whether this class terminates end users.
    pub fn is_eyeball(self) -> bool {
        matches!(self, AsClass::Eyeball)
    }
}

/// The openness of an AS's peering policy, as networks advertise in
/// PeeringDB. §3.3.3 proposes exactly these attributes as features for
/// predicting which co-located networks interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PeeringPolicy {
    /// Peers with anyone present at a shared facility/IXP.
    Open,
    /// Peers when there is mutual benefit (traffic volume, ratio).
    Selective,
    /// Peers only in exceptional cases (typical of large transit sellers).
    Restrictive,
}

impl PeeringPolicy {
    /// Baseline probability of agreeing to peer with a co-located network.
    pub fn base_propensity(self) -> f64 {
        match self {
            PeeringPolicy::Open => 0.9,
            PeeringPolicy::Selective => 0.35,
            PeeringPolicy::Restrictive => 0.04,
        }
    }
}

/// Everything the substrate knows about one AS.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsInfo {
    /// The AS number (dense, usable as an index).
    pub asn: Asn,
    /// Structural class.
    pub class: AsClass,
    /// Country where the AS is registered / headquartered.
    pub home_country: Country,
    /// City ids (into the world's city table) where the AS has a PoP.
    pub cities: Vec<u32>,
    /// Advertised peering policy.
    pub policy: PeeringPolicy,
    /// Relative size within its class (1.0 = median); scales prefix and
    /// user allocations and peering attractiveness.
    pub size_factor: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_labels_are_unique() {
        let labels: std::collections::HashSet<_> = AsClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), AsClass::ALL.len());
    }

    #[test]
    fn content_and_eyeball_partition() {
        assert!(AsClass::Hypergiant.is_content());
        assert!(AsClass::Cloud.is_content());
        assert!(!AsClass::Eyeball.is_content());
        assert!(AsClass::Eyeball.is_eyeball());
        assert!(!AsClass::Cloud.is_eyeball());
    }

    #[test]
    fn policy_propensities_are_ordered() {
        assert!(PeeringPolicy::Open.base_propensity() > PeeringPolicy::Selective.base_propensity());
        assert!(
            PeeringPolicy::Selective.base_propensity()
                > PeeringPolicy::Restrictive.base_propensity()
        );
    }
}
