//! # itm-routing — interdomain routing over the synthetic Internet
//!
//! Implements the routing machinery the paper's §3.3 ("What are routes
//! between users/servers?") needs:
//!
//! * **Valley-free BGP** ([`bgp`]): per-destination route computation under
//!   the Gao–Rexford policy model (prefer customer routes over peer routes
//!   over provider routes; shortest AS path; deterministic tiebreak). This
//!   is the "measured topologies and AS relationships, coupled with common
//!   routing policies" approach of §3.3.1 \[35, 42\] — run here both on the
//!   complete ground-truth graph (to produce *actual* routes) and on
//!   incomplete public views (to reproduce its failures).
//! * **Graph views** ([`view`]): the same algorithm over any subset of the
//!   link set, so prediction over collector-visible topologies (E9) and
//!   recommender-completed topologies (E10) is literally the same code.
//! * **Route collectors** ([`collectors`]): BGP feeds from a configurable
//!   set of feeder ASes; computes the publicly visible link set and hence
//!   the invisible-peering fraction of E12.
//! * **Anycast catchments** ([`anycast`]): which site of a replicated
//!   service each client AS reaches, for the §2.1/§3.2.3 optimality
//!   experiments (E6).
//! * **Routers, traceroute, IP ID** ([`routers`], [`ipid`]): an IP-level
//!   veneer — per-(AS, city) routers with interface addresses, hop-by-hop
//!   traceroute expansion, and 16-bit IP ID counters whose velocity tracks
//!   forwarded traffic (§3.1.3's proposed side channel, E11).
//! * **Vantage points** ([`vantage`]): Atlas-like probe sets and cloud VMs,
//!   the limited viewpoints measurement campaigns actually have.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod anycast;
pub mod bgp;
pub mod collectors;
pub mod ipid;
pub mod relationships;
pub mod routers;
pub mod vantage;
pub mod view;

pub use anycast::{AnycastDeployment, AnycastSite, Catchments};
pub use bgp::{RouteEntry, RouteKind, RoutingTree, ScopedTree, UpwardClosure};
pub use collectors::{flapped_cones, CollectorSet, VisibilityReport};
pub use ipid::IpidCounter;
pub use relationships::{InferredRel, InferredRelationships};
pub use routers::{Hop, RouterMap, Traceroute};
pub use vantage::VantagePoints;
pub use view::GraphView;
