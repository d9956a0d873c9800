//! The Chromium intercept-probe workload.
//!
//! §3.1.2, approach 2: "Chromium browsers use DNS probes to detect DNS
//! interception. Because these queries often have no valid TLD, they
//! should not result in cache hits at recursive resolvers, so the queries
//! go to a DNS root server. … the number of Chromium queries seen at the
//! DNS roots is likely roughly proportional to the number of Chromium
//! clients behind a recursive resolver."
//!
//! Model: each prefix's users start browsers some number of times per day;
//! a country-specific fraction of browsers are Chromium-based; each start
//! emits 3 random-label probes that always miss caches and land at a root
//! server via whatever recursive resolver the client uses.

use itm_topology::{PrefixKind, Topology};
use itm_traffic::UserModel;
use itm_types::rng::SeedDomain;
use itm_types::{PrefixId, SimDuration};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Number of random-label probes per browser startup (Chromium's actual
/// behaviour \[59\]).
pub const PROBES_PER_STARTUP: f64 = 3.0;

/// Mean browser startups per user per day.
const STARTUPS_PER_USER_DAY: f64 = 2.5;

/// Chromium adoption and probe-rate model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChromiumModel {
    /// Chromium share per country (Chromium-family browsers dominate but
    /// adoption "may be skewed", §3.1.3).
    country_share: Vec<f64>,
    /// Cached per-prefix probe rates (probes/day, daily mean).
    prefix_probes_per_day: Vec<f64>,
}

impl ChromiumModel {
    /// Build the model for a topology.
    pub fn build(topo: &Topology, users: &UserModel, seeds: &SeedDomain) -> ChromiumModel {
        let seeds = seeds.child("chromium");
        let mut rng = seeds.rng("country-share");
        let country_share: Vec<f64> = topo
            .world
            .countries
            .iter()
            .map(|_| rng.gen_range(0.55..0.85))
            .collect();

        let mut prefix_probes_per_day = vec![0.0; topo.prefixes.len()];
        for r in topo.prefixes.iter() {
            if r.kind != PrefixKind::UserAccess {
                continue;
            }
            let country = topo.as_info(r.owner).home_country;
            let share = country_share[country.0 as usize];
            prefix_probes_per_day[r.id.index()] =
                users.users_of(r.id) * share * STARTUPS_PER_USER_DAY * PROBES_PER_STARTUP;
        }

        ChromiumModel {
            country_share,
            prefix_probes_per_day,
        }
    }

    /// Chromium share for a country index.
    pub fn country_share(&self, country: u16) -> f64 {
        self.country_share[country as usize]
    }

    /// Expected probes from a prefix over a duration (daily mean rate; the
    /// roots aggregate over long windows, so diurnal detail washes out).
    pub fn probes_over(&self, p: PrefixId, d: SimDuration) -> f64 {
        self.prefix_probes_per_day[p.index()] * d.as_secs() as f64 / 86_400.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itm_topology::{generate, TopologyConfig};
    use itm_types::SeedDomain;

    fn setup() -> (Topology, UserModel, ChromiumModel) {
        let seeds = SeedDomain::new(47);
        let t = generate(&TopologyConfig::small(), 47).unwrap();
        let u = UserModel::generate(&t, &seeds);
        let c = ChromiumModel::build(&t, &u, &seeds);
        (t, u, c)
    }

    #[test]
    fn probes_proportional_to_users() {
        let (t, u, c) = setup();
        for r in t.prefixes.iter() {
            let probes = c.probes_over(r.id, SimDuration::days(1));
            if r.kind == PrefixKind::UserAccess {
                let country = t.as_info(r.owner).home_country;
                let expect = u.users_of(r.id)
                    * c.country_share(country.0)
                    * STARTUPS_PER_USER_DAY
                    * PROBES_PER_STARTUP;
                assert!((probes - expect).abs() < 1e-9);
                assert!(probes > 0.0);
            } else {
                assert_eq!(probes, 0.0);
            }
        }
    }

    #[test]
    fn country_shares_in_documented_band() {
        let (t, _, c) = setup();
        for i in 0..t.world.countries.len() {
            let s = c.country_share(i as u16);
            assert!((0.55..0.85).contains(&s));
        }
    }

    #[test]
    fn probes_over_scales_linearly() {
        let (t, _, c) = setup();
        let p = t
            .prefixes
            .iter()
            .find(|r| r.kind == PrefixKind::UserAccess)
            .unwrap()
            .id;
        let day = c.probes_over(p, SimDuration::days(1));
        let halfday = c.probes_over(p, SimDuration::hours(12));
        assert!((day - 2.0 * halfday).abs() < 1e-9);
    }
}
