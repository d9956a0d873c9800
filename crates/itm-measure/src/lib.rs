//! # itm-measure — the paper's measurement techniques
//!
//! Every technique §3 sketches, implemented as it would run against the
//! real Internet, probing the substrate through the same narrow interfaces
//! a real campaign has (DNS probes, root-log crawls, pings, TLS
//! handshakes, traceroutes). None of them read ground truth; ground truth
//! is only used afterwards, for scoring.
//!
//! | Module | Paper section | Technique |
//! |---|---|---|
//! | [`substrate`] | — | one-stop construction of a full synthetic Internet |
//! | [`cache_probe`] | §3.1.2 approach 1 | ECS cache probing of the open resolver |
//! | [`cache_host`] | §3.2.3 | instrumented edge cache: hit rates normal vs flash |
//! | [`root_crawl`] | §3.1.2 approach 2 | crawling root DNS logs for Chromium probes |
//! | [`resolver_assoc`] | §3.1.3 | resolver↔client association via instrumented pages \[43\] |
//! | [`activity`] | §3.1.3 | relative activity from cache hit rates (Fig. 2) |
//! | [`ipid_probe`] | §3.1.3 | IP ID velocity probing of routers |
//! | [`user_mapping`] | §3.2 | ECS-based user→host mapping + client-centric geolocation |
//! | [`cloud_probe`] | §3.3.2 | topology discovery from cloud vantage points |
//! | [`evolution`] | Table 1 (temporal) | Internet drift + map staleness |

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod activity;
pub mod cache_host;
pub mod cache_probe;
pub mod cloud_probe;
pub mod evolution;
pub mod ipid_probe;
pub mod resolver_assoc;
pub mod root_crawl;
pub mod substrate;
pub mod user_mapping;

pub use activity::{ActivityEstimate, ActivityEstimator};
pub use cache_host::{CacheHostExperiment, CacheHostResult, LruCache};
pub use cache_probe::{CacheProbeCampaign, CacheProbeResult};
pub use cloud_probe::CloudProbeResult;
pub use evolution::{evolve, staleness, StalenessReport};
pub use ipid_probe::{IpidCampaign, IpidObservation, IpidResult};
pub use resolver_assoc::ResolverAssociation;
pub use root_crawl::{RootCrawlResult, RootCrawler};
pub use substrate::{Substrate, SubstrateConfig};
pub use user_mapping::UserMapping;
