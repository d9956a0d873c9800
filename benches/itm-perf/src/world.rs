//! The worlds the workloads run on.
//!
//! A world is the synthetic Internet of one size, generated — with its
//! measurement randomness — from [`WORLD_SEED`]: the data set the system
//! is measured on. Every run of a workload therefore does the same work,
//! and the map a build produces is the one `repro --seed 42` builds at
//! that size, whose digest `expected.json` records. Generating the world
//! from the run seed instead would move the cost of a build by ±20% from
//! seed to seed (the number of prefixes per network is heavy-tailed), and
//! drawing only the measurement randomness from it still by several
//! percent. The run
//! seed draws what the map's users vary: the epochs of churn applied and
//! the request keys.

use itm_measure::{Substrate, SubstrateConfig};
use itm_types::Result;

/// The seed every world is generated from.
pub const WORLD_SEED: u64 = 42;

/// World sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// `SubstrateConfig::small()`: ~120 networks, for the smoke test.
    Small,
    /// The default topology with 15 instead of 40 prefixes per eyeball
    /// network on average: 5.5 M mapping cells and a 72 MB snapshot, so
    /// the build and epoch workloads fit several operations in one run.
    Medium,
    /// `SubstrateConfig::default()`: 15 M mapping cells, a 198 MB snapshot.
    Default,
}

impl Size {
    /// Parse a `--size` value.
    pub fn parse(name: &str) -> Option<Size> {
        match name {
            "small" => Some(Size::Small),
            "medium" => Some(Size::Medium),
            "default" => Some(Size::Default),
            _ => None,
        }
    }

    /// The name `--size` takes.
    pub fn name(self) -> &'static str {
        match self {
            Size::Small => "small",
            Size::Medium => "medium",
            Size::Default => "default",
        }
    }

    fn config(self) -> SubstrateConfig {
        match self {
            Size::Small => SubstrateConfig::small(),
            Size::Medium => {
                let mut c = SubstrateConfig::default();
                c.topology.eyeball_mean_prefixes = 15.0;
                c
            }
            Size::Default => SubstrateConfig::default(),
        }
    }
}

/// Build the world of `size`.
pub fn world(size: Size) -> Result<Substrate> {
    Substrate::build(size.config(), WORLD_SEED)
}
