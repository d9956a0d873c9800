//! # itm-traffic — ground-truth users, services, and traffic
//!
//! The substrate's answer to "what would a CDN's server logs say?". The
//! paper scores every technique against proprietary ground truth (Microsoft
//! CDN flow logs, ISP subscriber counts); this crate plays that role with a
//! generative model that has the skew the paper's Internet has:
//!
//! * [`services`]: a catalogue of popular services with Zipf popularity,
//!   ownership (hypergiant-operated or cloud-hosted — §1: "Most user-facing
//!   traffic flows from a handful of large providers. Most other large
//!   services are hosted by one of a few large cloud providers"), delivery
//!   mode (DNS redirection / anycast / custom URLs, §3.2.3), and ECS
//!   support flags (the §3.2.3 adoption statistics).
//! * [`users`]: heavy-tailed per-prefix user populations and per-AS
//!   subscriber counts (the ground truth Figure 2 plots on its y-axis).
//! * [`model`]: the traffic matrix — demand between every user prefix and
//!   every service, with diurnal modulation, factored so that multi-million
//!   cell matrices need no storage.
//! * [`apnic`]: a noisy AS-granularity population estimator reproducing
//!   the documented properties of APNIC's per-network user data \[33\]:
//!   unvalidated, coarse, incomplete, but rank-correlated with truth.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod apnic;
pub mod model;
pub mod objects;
pub mod services;
pub mod users;

pub use apnic::ApnicEstimates;
pub use model::TrafficModel;
pub use objects::ObjectModel;
pub use services::{DeliveryMode, Service, ServiceCatalog, ServiceCatalogConfig, ServiceOwner};
pub use users::UserModel;
