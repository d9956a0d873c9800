//! Deterministic epoch plans: substrate churn between map rebuilds.
//!
//! The paper's goal is a *continuously updated* traffic map, so the
//! workspace needs a model of how the world changes between two builds.
//! An [`EpochPlan`] describes per-epoch churn rates (resolver adoption
//! re-draws, routing flaps, cloud-VM churn, diurnal phase drift, service
//! re-homing); [`EpochPlan::actions`] turns the plan into a *deterministic*
//! mutation sequence — a pure function of `(plan, seeds, epoch, bounds)`,
//! never of iteration order — mirroring the [`crate::fault`] regime, so an
//! epoch trajectory is byte-reproducible at any thread count.
//!
//! Each action also declares which measurement campaigns it invalidates;
//! [`DirtySet::from_actions`] unions those declarations and
//! closes them over the inter-campaign data-flow rules (cache/root feed
//! activity fusion, cloud probing feeds route assembly), so an incremental
//! rebuild that recomputes exactly the dirty campaigns is byte-identical
//! to a from-scratch build of the mutated substrate.

use crate::error::{ItmError, Result};
use crate::ids::ServiceId;
use crate::rng::SeedDomain;
use rand::Rng;
use std::collections::BTreeSet;

/// Hard ceiling on per-epoch discrete mutation counts; bounds action-list
/// size and keeps plan JSON typos (e.g. a pasted timestamp) from turning
/// into hour-long epochs.
pub const MAX_EPOCH_MUTATIONS: u32 = 100_000;

/// Per-epoch churn rates and counts.
///
/// Fractions are probabilities in `[0, 1]` applied independently per
/// entity; counts are discrete mutations per epoch. The all-zero plan
/// mutates nothing and performs zero draws, leaving every epoch's map
/// byte-identical to the previous one.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochPlan {
    /// Per-epoch probability that an eyeball/stub AS's prefixes re-draw
    /// their open-resolver adoption share.
    pub resolver_churn: f64,
    /// Peering links toggled (down↔up) per epoch.
    pub link_flaps: u32,
    /// Per-epoch probability that a cloud vantage AS toggles availability.
    pub vm_churn: f64,
    /// ECS DNS-redirection services whose nearest-PoP tables rotate per
    /// epoch (the operator "re-homes" cities onto different front-ends).
    pub rehome_services: u32,
    /// Hours the diurnal activity peak drifts per epoch (applied mod 24).
    pub diurnal_shift_hours: f64,
}

impl Default for EpochPlan {
    fn default() -> Self {
        EpochPlan::off()
    }
}

impl EpochPlan {
    /// The all-zero plan: no churn, zero draws, every epoch identical.
    pub fn off() -> EpochPlan {
        EpochPlan {
            resolver_churn: 0.0,
            link_flaps: 0,
            vm_churn: 0.0,
            rehome_services: 0,
            diurnal_shift_hours: 0.0,
        }
    }

    /// Light churn: a quiet day on the Internet. Leaves the DNS-cache and
    /// root-log campaigns clean so the incremental path can retain the
    /// expensive user-mapping grid for all but a couple of services.
    pub fn light() -> EpochPlan {
        EpochPlan {
            resolver_churn: 0.0,
            link_flaps: 4,
            vm_churn: 0.25,
            rehome_services: 2,
            diurnal_shift_hours: 0.0,
        }
    }

    /// Heavy churn: everything moves — resolver adoption, routing,
    /// vantage points, service placement, and the diurnal phase.
    pub fn heavy() -> EpochPlan {
        EpochPlan {
            resolver_churn: 0.2,
            link_flaps: 12,
            vm_churn: 0.5,
            rehome_services: 8,
            diurnal_shift_hours: 3.5,
        }
    }

    /// Look up a named profile (`off`, `light`, `heavy`).
    pub fn profile(name: &str) -> Option<EpochPlan> {
        match name {
            "off" => Some(EpochPlan::off()),
            "light" => Some(EpochPlan::light()),
            "heavy" => Some(EpochPlan::heavy()),
            _ => None,
        }
    }

    /// The diurnal shift quantized to integer millihours — the unit
    /// [`EpochAction::DiurnalShift`] actually carries. Shifts below half
    /// a millihour quantize to zero and are true no-ops.
    fn diurnal_millihours(&self) -> i32 {
        (self.diurnal_shift_hours * 1000.0).round() as i32
    }

    /// True when the plan can never mutate anything.
    pub fn is_off(&self) -> bool {
        self.resolver_churn <= 0.0
            && self.link_flaps == 0
            && self.vm_churn <= 0.0
            && self.rehome_services == 0
            && self.diurnal_millihours() == 0
    }

    /// Check every documented constraint, returning the first violation.
    pub fn validate(&self) -> Result<()> {
        for (name, v) in [
            ("resolver_churn", self.resolver_churn),
            ("vm_churn", self.vm_churn),
        ] {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(ItmError::config(
                    "epochs",
                    format!("rate {name} must be in [0, 1], got {v}"),
                ));
            }
        }
        for (name, v) in [
            ("link_flaps", self.link_flaps),
            ("rehome_services", self.rehome_services),
        ] {
            if v > MAX_EPOCH_MUTATIONS {
                return Err(ItmError::config(
                    "epochs",
                    format!("{name} must be <= {MAX_EPOCH_MUTATIONS}, got {v}"),
                ));
            }
        }
        let d = self.diurnal_shift_hours;
        if !d.is_finite() || !(-24.0..=24.0).contains(&d) {
            return Err(ItmError::config(
                "epochs",
                format!("diurnal_shift_hours must be in [-24, 24], got {d}"),
            ));
        }
        Ok(())
    }

    /// The deterministic mutation sequence for one epoch.
    ///
    /// A pure function of `(plan, seeds, epoch, bounds)`: each epoch draws
    /// from its own indexed stream under the `"epoch"` child domain, so
    /// epoch `k`'s actions are independent of whether epochs `0..k` were
    /// ever generated, and disjoint from every campaign's measurement
    /// streams. Actions carry entity *indices* into the eligibility lists
    /// described by [`EpochBounds`]; the applier resolves them against the
    /// substrate's deterministic eligibility ordering.
    pub fn actions(
        &self,
        seeds: &SeedDomain,
        epoch: u32,
        bounds: &EpochBounds,
    ) -> Vec<EpochAction> {
        let mut out = Vec::new();
        if self.is_off() {
            return out;
        }
        let domain = seeds.child("epoch");
        let mut rng = domain.rng_indexed("actions", epoch as u64);

        if self.resolver_churn > 0.0 {
            for site in 0..bounds.n_resolver_sites {
                if rng.gen_bool(self.resolver_churn) {
                    out.push(EpochAction::ResolverChurn { site });
                }
            }
        }
        if self.link_flaps > 0 {
            for link in distinct_indices(&mut rng, self.link_flaps, bounds.n_flappable_links) {
                out.push(EpochAction::LinkFlap { link });
            }
        }
        if self.vm_churn > 0.0 {
            for vm in 0..bounds.n_cloud_vms {
                if rng.gen_bool(self.vm_churn) {
                    out.push(EpochAction::VmChurn { vm });
                }
            }
        }
        if self.rehome_services > 0 {
            for service in distinct_indices(&mut rng, self.rehome_services, bounds.n_ecs_services) {
                let shift = rng.gen_range(1..=8u32);
                out.push(EpochAction::Rehome { service, shift });
            }
        }
        let millihours = self.diurnal_millihours();
        if millihours != 0 {
            out.push(EpochAction::DiurnalShift { millihours });
        }
        out
    }
}

/// Draw up to `want` distinct indices from `0..n`, in ascending order.
/// A deterministic partial Fisher–Yates over the index range.
fn distinct_indices<R: Rng>(rng: &mut R, want: u32, n: u32) -> Vec<u32> {
    let take = (want as usize).min(n as usize);
    let mut pool: Vec<u32> = (0..n).collect();
    for i in 0..take {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    let mut picked: Vec<u32> = pool[..take].to_vec();
    picked.sort_unstable();
    picked
}

/// Sizes of the per-action eligibility lists an [`EpochPlan`] draws over.
///
/// Computed from the substrate by the epoch driver; kept here (plain
/// counts, no substrate types) so action generation is testable in
/// isolation and the draw layout is independent of entity details.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochBounds {
    /// Eligible resolver-churn sites (eyeball/stub ASes, ascending ASN).
    pub n_resolver_sites: u32,
    /// Flappable links (peering links, topology link-table order).
    pub n_flappable_links: u32,
    /// Cloud vantage ASes (ascending ASN).
    pub n_cloud_vms: u32,
    /// Re-homeable services (ECS DNS-redirection, catalogue order).
    pub n_ecs_services: u32,
}

/// One substrate mutation, with entity indices into the eligibility
/// lists sized by [`EpochBounds`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EpochAction {
    /// Prefixes of eligible AS `site` re-draw open-resolver adoption.
    ResolverChurn {
        /// Index into the resolver-site eligibility list.
        site: u32,
    },
    /// Peering link `link` toggles down↔up.
    LinkFlap {
        /// Index into the flappable-link eligibility list.
        link: u32,
    },
    /// Cloud vantage AS `vm` toggles available↔down.
    VmChurn {
        /// Index into the cloud-VM eligibility list.
        vm: u32,
    },
    /// Service `service` rotates its nearest-PoP table by `shift`.
    Rehome {
        /// Index into the re-homeable-service eligibility list.
        service: u32,
        /// Rotation applied to the per-city nearest-endpoint table.
        shift: u32,
    },
    /// The diurnal activity peak drifts by `millihours / 1000` hours.
    DiurnalShift {
        /// Signed drift in thousandths of an hour (kept integral so
        /// action sequences are `Eq`-comparable in tests).
        millihours: i32,
    },
}

impl EpochAction {
    /// The campaigns this single mutation invalidates (before closure).
    pub fn dirties(&self) -> &'static [Campaign] {
        match self {
            // Adoption shares steer cache hit rates and root-log volume,
            // but never the ECS answer path (the open resolver forwards
            // the client prefix regardless of who adopted it).
            EpochAction::ResolverChurn { .. } => &[Campaign::CacheProbe, Campaign::RootCrawl],
            // A flapped link changes the ground-truth view: anycast
            // catchments, collector visibility, and cloud traceroutes
            // all walk it.
            EpochAction::LinkFlap { .. } => {
                &[Campaign::Routes, Campaign::CloudProbe, Campaign::Anycast]
            }
            EpochAction::VmChurn { .. } => &[Campaign::CloudProbe],
            EpochAction::Rehome { .. } => &[Campaign::UserMapping],
            // The diurnal phase modulates cache hit probability; root-log
            // collection is volume-integrated and phase-free.
            EpochAction::DiurnalShift { .. } => &[Campaign::CacheProbe],
        }
    }
}

/// A measurement campaign (or derived product) the incremental rebuild
/// can retain or recompute independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Campaign {
    /// Open-resolver cache probing (§3.1.1).
    CacheProbe,
    /// Root-log crawl (§3.1.2).
    RootCrawl,
    /// The fused activity estimate (derived from cache + root).
    Activity,
    /// Address-space TLS scan.
    TlsScan,
    /// SNI-directed certificate scan.
    SniScan,
    /// ECS user→host mapping (§3.2) — the dominant build phase.
    UserMapping,
    /// Anycast catchment computation.
    Anycast,
    /// Cloud-vantage traceroute probing.
    CloudProbe,
    /// Public-collector view + route assembly.
    Routes,
}

impl Campaign {
    /// Every campaign, in build order.
    pub const ALL: [Campaign; 9] = [
        Campaign::CacheProbe,
        Campaign::RootCrawl,
        Campaign::Activity,
        Campaign::TlsScan,
        Campaign::SniScan,
        Campaign::UserMapping,
        Campaign::Anycast,
        Campaign::CloudProbe,
        Campaign::Routes,
    ];

    /// Stable lower-case name for reports and bench rows.
    pub fn as_str(&self) -> &'static str {
        match self {
            Campaign::CacheProbe => "cache_probe",
            Campaign::RootCrawl => "root_crawl",
            Campaign::Activity => "activity",
            Campaign::TlsScan => "tls_scan",
            Campaign::SniScan => "sni_scan",
            Campaign::UserMapping => "user_mapping",
            Campaign::Anycast => "anycast",
            Campaign::CloudProbe => "cloud_probe",
            Campaign::Routes => "routes",
        }
    }
}

/// The set of campaigns (and, for user mapping, individual services) an
/// epoch's mutations invalidate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtySet {
    /// Campaigns that must be recomputed.
    pub campaigns: BTreeSet<Campaign>,
    /// Services whose user-mapping cells must be re-measured (indices
    /// resolved to [`ServiceId`]s by the driver). Meaningful only when
    /// [`Campaign::UserMapping`] is dirty.
    pub services: BTreeSet<ServiceId>,
}

impl DirtySet {
    /// An empty set: retain everything.
    pub fn clean() -> DirtySet {
        DirtySet::default()
    }

    /// Every campaign dirty and no named services (the ECS grid is
    /// invalidated wholesale): a from-scratch build.
    pub fn all() -> DirtySet {
        DirtySet {
            campaigns: Campaign::ALL.into(),
            services: BTreeSet::new(),
        }
    }

    /// Union the per-action invalidations of a mutation sequence, then
    /// close over the inter-campaign data flow. `resolve_service` maps a
    /// re-home action's eligibility index to its catalogue [`ServiceId`].
    pub fn from_actions(
        actions: &[EpochAction],
        mut resolve_service: impl FnMut(u32) -> ServiceId,
    ) -> DirtySet {
        let mut out = DirtySet::default();
        for a in actions {
            out.campaigns.extend(a.dirties().iter().copied());
            if let EpochAction::Rehome { service, .. } = a {
                out.services.insert(resolve_service(*service));
            }
        }
        out.normalize();
        out
    }

    /// Apply the closure rules the build pipeline's data flow imposes:
    /// activity fuses cache + root; route assembly consumes the cloud
    /// probe and cloud probing walks the flapped view, so the two
    /// recompute together; and the SNI scan resolves against the TLS
    /// scan's host table, which the map does not keep, so those two
    /// recompute together as well. These are the only closure rules: the
    /// build pipeline applies them to whatever set it is given.
    pub fn normalize(&mut self) {
        let c = &mut self.campaigns;
        if c.contains(&Campaign::CacheProbe) || c.contains(&Campaign::RootCrawl) {
            c.insert(Campaign::Activity);
        }
        for pair in [
            [Campaign::CloudProbe, Campaign::Routes],
            [Campaign::TlsScan, Campaign::SniScan],
        ] {
            if pair.iter().any(|x| c.contains(x)) {
                c.extend(pair);
            }
        }
    }

    /// Whether `c` must be recomputed this epoch.
    pub fn is_dirty(&self, c: Campaign) -> bool {
        self.campaigns.contains(&c)
    }

    /// True when nothing needs recomputation.
    pub fn is_clean(&self) -> bool {
        self.campaigns.is_empty()
    }

    /// Stable names of the dirty campaigns, for metrics rows.
    pub fn names(&self) -> Vec<&'static str> {
        self.campaigns.iter().map(Campaign::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> EpochBounds {
        EpochBounds {
            n_resolver_sites: 40,
            n_flappable_links: 60,
            n_cloud_vms: 10,
            n_ecs_services: 12,
        }
    }

    #[test]
    fn off_plan_generates_nothing() {
        let p = EpochPlan::off();
        assert!(p.is_off());
        assert!(p.actions(&SeedDomain::new(1), 0, &bounds()).is_empty());
    }

    #[test]
    fn profiles_validate_and_are_distinct() {
        for name in ["off", "light", "heavy"] {
            let p = EpochPlan::profile(name).expect("known profile");
            p.validate().expect("profile is valid");
        }
        assert!(EpochPlan::profile("medium").is_none());
        assert!(!EpochPlan::light().is_off());
        assert!(EpochPlan::heavy().link_flaps > EpochPlan::light().link_flaps);
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let mut p = EpochPlan::heavy();
        p.resolver_churn = 1.5;
        assert!(p.validate().is_err());
        let mut p = EpochPlan::heavy();
        p.vm_churn = f64::NAN;
        assert!(p.validate().is_err());
        let mut p = EpochPlan::heavy();
        p.link_flaps = MAX_EPOCH_MUTATIONS + 1;
        assert!(p.validate().is_err());
        let mut p = EpochPlan::heavy();
        p.diurnal_shift_hours = 25.0;
        assert!(p.validate().is_err());
    }

    /// `validate` refuses `p` with an `InvalidConfig` whose reason names
    /// `field`.
    fn assert_rejects(p: &EpochPlan, field: &str) {
        match p.validate() {
            Err(ItmError::InvalidConfig {
                field: "epochs",
                reason,
            }) => assert!(reason.contains(field), "{reason:?} does not name {field}"),
            other => panic!("{p:?}: expected InvalidConfig naming {field}, got {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_every_hostile_input_naming_the_field() {
        for plan in [EpochPlan::off(), EpochPlan::heavy()] {
            for field in ["resolver_churn", "vm_churn"] {
                for v in [
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    -0.1,
                    -f64::MIN_POSITIVE,
                    1.0 + f64::EPSILON,
                    2.0,
                ] {
                    let mut p = plan.clone();
                    *match field {
                        "resolver_churn" => &mut p.resolver_churn,
                        _ => &mut p.vm_churn,
                    } = v;
                    assert_rejects(&p, field);
                }
            }
            for v in [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                24.001,
                -24.001,
                f64::MAX,
            ] {
                let mut p = plan.clone();
                p.diurnal_shift_hours = v;
                assert_rejects(&p, "diurnal_shift_hours");
            }
            for v in [MAX_EPOCH_MUTATIONS + 1, u32::MAX] {
                let mut p = plan.clone();
                p.link_flaps = v;
                assert_rejects(&p, "link_flaps");
                let mut p = plan.clone();
                p.rehome_services = v;
                assert_rejects(&p, "rehome_services");
            }
        }
        // The boundaries themselves are valid.
        for d in [-24.0, 24.0] {
            let p = EpochPlan {
                resolver_churn: 1.0,
                link_flaps: MAX_EPOCH_MUTATIONS,
                vm_churn: 0.0,
                rehome_services: MAX_EPOCH_MUTATIONS,
                diurnal_shift_hours: d,
            };
            p.validate().expect("boundary values are valid");
        }
    }

    #[test]
    fn actions_are_deterministic_per_epoch() {
        let p = EpochPlan::heavy();
        let d = SeedDomain::new(7);
        let a = p.actions(&d, 3, &bounds());
        let b = p.actions(&d, 3, &bounds());
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // Different epochs draw from different indexed streams.
        let c = p.actions(&d, 4, &bounds());
        assert_ne!(a, c);
    }

    #[test]
    fn action_indices_stay_in_bounds() {
        let p = EpochPlan::heavy();
        let b = bounds();
        for epoch in 0..20 {
            for a in p.actions(&SeedDomain::new(11), epoch, &b) {
                match a {
                    EpochAction::ResolverChurn { site } => assert!(site < b.n_resolver_sites),
                    EpochAction::LinkFlap { link } => assert!(link < b.n_flappable_links),
                    EpochAction::VmChurn { vm } => assert!(vm < b.n_cloud_vms),
                    EpochAction::Rehome { service, shift } => {
                        assert!(service < b.n_ecs_services);
                        assert!((1..=8).contains(&shift));
                    }
                    EpochAction::DiurnalShift { millihours } => assert_eq!(millihours, 3500),
                }
            }
        }
    }

    #[test]
    fn distinct_indices_are_distinct_sorted_and_clamped() {
        let mut rng = SeedDomain::new(5).rng("t");
        let v = distinct_indices(&mut rng, 10, 6);
        assert_eq!(v.len(), 6);
        for w in v.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(distinct_indices(&mut rng, 3, 0).is_empty());
    }

    #[test]
    fn dirty_closure_rules_hold() {
        let actions = [EpochAction::DiurnalShift { millihours: 500 }];
        let d = DirtySet::from_actions(&actions, ServiceId);
        assert!(d.is_dirty(Campaign::CacheProbe));
        assert!(d.is_dirty(Campaign::Activity), "cache feeds activity");
        assert!(!d.is_dirty(Campaign::UserMapping));

        let actions = [EpochAction::VmChurn { vm: 1 }];
        let d = DirtySet::from_actions(&actions, ServiceId);
        assert!(d.is_dirty(Campaign::Routes), "cloud links feed routes");

        let actions = [EpochAction::Rehome {
            service: 3,
            shift: 1,
        }];
        let d = DirtySet::from_actions(&actions, |i| ServiceId(i * 2));
        assert!(d.is_dirty(Campaign::UserMapping));
        assert_eq!(
            d.services.iter().copied().collect::<Vec<_>>(),
            [ServiceId(6)]
        );
        assert!(!d.is_dirty(Campaign::CacheProbe));
    }

    #[test]
    fn clean_set_is_clean() {
        let d = DirtySet::clean();
        assert!(d.is_clean());
        assert!(d.names().is_empty());
        let d = DirtySet::from_actions(&[], ServiceId);
        assert!(d.is_clean());
    }
}
