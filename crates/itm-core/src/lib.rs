//! # itm-core — the Internet Traffic Map
//!
//! The paper's primary contribution is the *map* itself: "identify the
//! locations of users and major services, the paths between them, and the
//! relative activity levels routed along these paths" (abstract). This
//! crate assembles the measurement outputs of `itm-measure` into that map
//! and implements every analysis the paper runs on it:
//!
//! * [`map`] — [`TrafficMap`]: the three components of Table 1 (users +
//!   activity, services + user→host mapping, routes), built end-to-end
//!   from measurements, plus map queries.
//! * [`coverage`] — scoring each component against ground truth: the
//!   §3.1.2 coverage claims (E7), Figure 1a/1b rollups (E2, E3), and the
//!   full Table 1 grid (E1).
//! * [`weighted`] — weighted-vs-unweighted CDF machinery: the §2.1 path
//!   length swing (E5) and anycast optimality (E6).
//! * [`predict`] — the §3.3 path-prediction experiments over public,
//!   cloud-augmented, and recommender-completed views (E9).
//! * [`recommend`] — the §3.3.3 peering recommender: score co-located
//!   non-adjacent AS pairs by peering-profile similarity, evaluate against
//!   held-out ground truth (E10).
//! * [`epoch`] — the continuous-map loop: deterministic substrate churn
//!   between builds plus incremental rebuilds that recompute only the
//!   campaigns the churn invalidated (`repro --epochs` backend).
//! * [`audit`](mod@audit) — the map-quality observatory: score every measurement
//!   technique's view against substrate ground truth (per-technique
//!   precision/recall/coverage, per-cell disagreement, pairwise
//!   agreement — the `repro --audit` backend).
//! * [`outage`] — the §2.1 use case: "to assess the impact of an outage in
//!   a ⟨region, AS⟩, the map can tell us which popular services are
//!   affected, which prefixes are affected, what fraction of traffic or
//!   users are affected, and where the prefixes may be routed instead".

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod audit;
pub mod coverage;
pub mod epoch;
pub mod map;
pub mod outage;
pub mod predict;
pub mod recommend;
pub mod snapshot;
pub mod summary;
pub mod weighted;

pub use audit::{audit, MapClaims};
pub use coverage::{CoverageReport, Table1Row};
pub use epoch::{apply_epoch, build_incremental, map_fingerprint};
pub use itm_obs::exec::ParallelExecutor;
pub use map::{MapConfig, TrafficMap};
pub use outage::{OutageImpact, OutageScenario};
pub use predict::{PredictionExperiment, PredictionReport};
pub use recommend::{PeeringRecommender, RecommendationEval};
pub use snapshot::{snapshot_bytes, write_snapshot};
pub use summary::MapSummary;
pub use weighted::{AnycastAnalysis, PathLengthAnalysis};
