//! # itm-dns — the DNS ecosystem of the synthetic Internet
//!
//! Both §3.1.2 measurement approaches are DNS-based, so the substrate needs
//! a faithful DNS model:
//!
//! * [`frontends`]: the serving endpoints of every service (on-net PoPs,
//!   off-net caches, anycast VIPs) and the redirection policy authoritative
//!   servers apply — the ground truth for "what is the mapping from users
//!   to these hosts?" (§3.2).
//! * [`authoritative`]: per-service authoritative DNS with EDNS0 Client
//!   Subnet support flags; ECS-scoped answers for supporting services,
//!   resolver-location-based answers otherwise.
//! * [`resolvers`]: who resolves for whom — per-AS ISP resolvers plus an
//!   open-resolver share per prefix (Google Public DNS adoption "varies by
//!   country", §3.1.3), with a knob for clients whose resolver sits in a
//!   *different* AS (the assumption §3.1.3 must make, ablated in D2).
//! * [`opendns`]: the Google-Public-DNS analogue — anycast PoPs, per-PoP
//!   caches keyed by (domain, ECS scope), TTL expiry, and the
//!   non-recursive probe interface cache probing exploits. Cache state is
//!   computed analytically from the traffic model (occupancy within a TTL
//!   window is a deterministic Bernoulli draw with the Poisson-arrival
//!   probability), which makes Internet-wide probe sweeps cheap without
//!   changing the semantics a probing campaign observes.
//! * [`chromium`]: the Chromium intercept-probe workload — random
//!   no-valid-TLD queries emitted at browser startup, which bypass every
//!   cache and land at the roots \[59\].
//! * [`root`]: root DNS servers and their query logs, with per-operator
//!   anonymization policies ("more and more root operators anonymize the
//!   data in ways that limit coverage", §3.1.3).
//! * [`tally`]: caller-held counts of the DNS counters, so the id-keyed
//!   probe kernels of sharded campaigns add to the registry once per
//!   campaign instead of once per probe.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod authoritative;
pub mod chromium;
pub mod frontends;
pub mod opendns;
pub mod resolvers;
pub mod root;
pub mod tally;

pub use authoritative::AuthoritativeDns;
pub use chromium::ChromiumModel;
pub use frontends::{Endpoint, FrontendDirectory};
pub use opendns::{
    ClientRun, ClientRuns, DomainKey, HoistedAnswer, HoistedDomain, HoistedPrefix, HoistedWindow,
    OpenResolver, OpenResolverConfig, ProbeResult,
};
pub use resolvers::{ResolverAssignment, ResolverConfig, ResolverId};
pub use root::{AnonymizationPolicy, RootLogEntry, RootLogs, RootServerSet};
pub use tally::DnsTally;
