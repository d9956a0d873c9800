//! Criterion benchmarks for the computational kernels every experiment
//! leans on: topology generation, BGP route computation, the collector
//! public view (full and after four link flaps), anycast catchments,
//! the front-end directory, open-resolver deployment, root-log collection, cache probing (through
//! the string API and the id-keyed kernel), one shard each of the cache-
//! probing campaign and the ECS grid, redirection selection,
//! traffic-matrix queries, the snapshot writer on the medium world, and
//! the snapshot's whole-file checksum in both format versions.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use itm_core::{MapConfig, ParallelExecutor, TrafficMap};
use itm_measure::{CacheProbeCampaign, Substrate, SubstrateConfig, UserMapping};
use itm_routing::{
    flapped_cones, AnycastDeployment, Catchments, CollectorSet, GraphView, RoutingTree,
};
use itm_topology::{generate, TopologyConfig};
use itm_traffic::DeliveryMode;
use itm_types::rng::SeedDomain;
use itm_types::{Asn, FaultInjector, FaultPlan, SimDuration, SimTime};

// Install the tracking wrapper so the obs/ group can price its overhead;
// tracking starts disabled, so every other benchmark sees the system
// allocator plus one relaxed load.
#[global_allocator]
static ALLOC: itm_obs::alloc::TrackingAlloc = itm_obs::alloc::TrackingAlloc::new();

fn bench_topology_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("topology");
    g.sample_size(10);
    g.bench_function("generate_small", |b| {
        b.iter(|| generate(&TopologyConfig::small(), 42).unwrap())
    });
    g.bench_function("generate_default", |b| {
        b.iter(|| generate(&TopologyConfig::default(), 42).unwrap())
    });
    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    let topo = generate(&TopologyConfig::default(), 42).unwrap();
    let view = GraphView::full(&topo);
    let hg = topo.hypergiants()[0];
    let mut g = c.benchmark_group("routing");
    g.bench_function("tree_default_topology", |b| {
        b.iter(|| RoutingTree::compute(&view, hg))
    });
    let tree = RoutingTree::compute(&view, hg);
    g.bench_function("path_extraction_1k", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for i in 0..1000u32 {
                if let Some(p) = tree.path(Asn(i % topo.n_ases() as u32)) {
                    total += p.len();
                }
            }
            total
        })
    });

    // The public view from scratch, and rebuilt after four peering links
    // flap (the light epoch's link churn) from the unflapped view. These
    // four reach 598 of the 2,002 destinations: a heavy flap, where a
    // median light epoch reaches a few dozen.
    let collectors = CollectorSet::typical(&topo, &SeedDomain::new(42));
    g.sample_size(10);
    g.bench_function("public_view_full", |b| {
        b.iter(|| collectors.public_view(&topo))
    });
    let (_, prev) = collectors.public_view(&topo);
    let peering: Vec<(Asn, Asn)> = topo
        .links
        .iter()
        .filter(|l| l.is_peering())
        .map(|l| l.key())
        .collect();
    let mut flapped = topo.clone();
    for i in 0..4 {
        flapped.toggle_link_down(peering[(i * 7919 + 13) % peering.len()]);
    }
    g.bench_function("public_view_flap4", |b| {
        b.iter(|| {
            let full = GraphView::full(&flapped);
            let before = prev.links_down().expect("a computed report");
            let reach = flapped_cones(&flapped, &full, before).expect("peering flaps");
            collectors.public_view_with(&flapped, &full, Some((&prev, &reach)), |n, job| {
                (0..n).map(job).collect()
            })
        })
    });

    // Catchments of every anycast service of the default substrate, the
    // map's anycast stage on one thread.
    let s = Substrate::build(SubstrateConfig::default(), 42).unwrap();
    let full = s.full_view();
    let deployments: Vec<AnycastDeployment> = s
        .catalog
        .services
        .iter()
        .filter(|svc| svc.mode == DeliveryMode::Anycast)
        .map(|svc| {
            let sites: Vec<(Asn, u32)> = s
                .frontends
                .endpoints(svc.id)
                .iter()
                .map(|e| (e.offnet_host.unwrap_or(e.asn), e.city))
                .collect();
            AnycastDeployment::new(&s.topo, &sites, 0.15)
        })
        .collect();
    let seeds = s.seeds.child("map-anycast");
    g.bench_function("catchments_all", |b| {
        b.iter(|| {
            deployments
                .iter()
                .map(|d| Catchments::compute(&s.topo, &full, d, &seeds).covered())
                .sum::<usize>()
        })
    });
    g.finish();
}

fn bench_substrate(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate");
    g.sample_size(10);
    g.bench_function("build_small", |b| {
        b.iter(|| Substrate::build(SubstrateConfig::small(), 42).unwrap())
    });
    g.finish();
}

fn bench_dns_probing(c: &mut Criterion) {
    let s = Substrate::build(SubstrateConfig::small(), 42).unwrap();
    let resolver = s.open_resolver().expect("open resolver");
    let nets: Vec<_> = s.topo.prefixes.iter().map(|r| r.net).collect();
    let mut g = c.benchmark_group("dns");
    g.bench_function("open_resolver_deploy", |b| {
        b.iter(|| s.open_resolver().expect("open resolver"))
    });
    g.bench_function("root_logs_collect", |b| {
        let roots = itm_dns::RootServerSet::typical();
        b.iter(|| {
            itm_dns::RootLogs::collect(
                &s.topo,
                &s.resolvers,
                &s.chromium,
                &resolver,
                &roots,
                SimDuration::days(2),
                &s.seeds,
            )
        })
    });
    g.bench_function("cache_probe_1k", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let mut hits = 0;
            for _ in 0..1000 {
                let net = nets[i % nets.len()];
                i += 1;
                if matches!(
                    resolver.probe(net, "svc0.example", SimTime(3600)),
                    itm_dns::ProbeResult::Hit(_)
                ) {
                    hits += 1;
                }
            }
            hits
        })
    });
    g.bench_function("frontend_select_1k", |b| {
        let svc = s.catalog.services[0].id;
        b.iter_batched(
            || (),
            |_| {
                let mut acc = 0u32;
                for i in 0..1000usize {
                    let a = &s.topo.ases[i % s.topo.n_ases()];
                    let e = s.frontends.select(&s.topo, svc, a.asn, a.cities[0]);
                    acc = acc.wrapping_add(e.addr.0);
                }
                acc
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Instrumentation overhead on the hottest instrumented kernel: the
/// open-resolver cache lookup (`dns.cache.*` counters fire per probe).
/// The two functions run the identical workload; the only difference is
/// the global registry's enabled flag. Budget: <2% delta.
fn bench_obs_overhead(c: &mut Criterion) {
    let s = Substrate::build(SubstrateConfig::small(), 42).unwrap();
    let resolver = s.open_resolver().expect("open resolver");
    let nets: Vec<_> = s.topo.prefixes.iter().map(|r| r.net).collect();
    let probe_1k = |start: &mut usize| {
        let mut hits = 0usize;
        for _ in 0..1000 {
            let net = nets[*start % nets.len()];
            *start += 1;
            if matches!(
                resolver.probe(net, "svc0.example", SimTime(3600)),
                itm_dns::ProbeResult::Hit(_)
            ) {
                hits += 1;
            }
        }
        hits
    };
    let mut g = c.benchmark_group("obs");
    g.bench_function("cache_lookup_1k_metrics_off", |b| {
        itm_obs::set_enabled(false);
        let mut i = 0usize;
        b.iter(|| probe_1k(&mut i))
    });
    g.bench_function("cache_lookup_1k_metrics_on", |b| {
        itm_obs::set_enabled(true);
        itm_obs::reset();
        let mut i = 0usize;
        b.iter(|| probe_1k(&mut i))
    });
    itm_obs::set_enabled(false);
    // Same workload against the trace ring: disabled must cost one
    // relaxed load per probe; enabled pays the sharded ring append
    // (steady-state: the ring is full and evicting).
    g.bench_function("cache_lookup_1k_trace_off", |b| {
        itm_obs::trace::set_enabled(false);
        let mut i = 0usize;
        b.iter(|| probe_1k(&mut i))
    });
    g.bench_function("cache_lookup_1k_trace_on", |b| {
        itm_obs::trace::set_seed(42);
        itm_obs::trace::reset();
        itm_obs::trace::set_enabled(true);
        let mut i = 0usize;
        b.iter(|| probe_1k(&mut i))
    });
    itm_obs::trace::set_enabled(false);
    itm_obs::trace::reset();
    // Same workload against the tracking allocator (installed above as
    // the global allocator): disabled is one relaxed load per heap call;
    // enabled adds the atomic byte/count accounting on every allocation
    // the probes make. Budget, like the registry's: <2% delta.
    g.bench_function("cache_lookup_1k_alloc_off", |b| {
        itm_obs::alloc::set_enabled(false);
        let mut i = 0usize;
        b.iter(|| probe_1k(&mut i))
    });
    g.bench_function("cache_lookup_1k_alloc_on", |b| {
        itm_obs::alloc::set_enabled(true);
        itm_obs::alloc::reset();
        let mut i = 0usize;
        b.iter(|| probe_1k(&mut i))
    });
    itm_obs::alloc::set_enabled(false);
    g.finish();
}

/// The campaigns' probe kernels on the default substrate, whose
/// 200-service catalogue is the one the map is built from: first the
/// front-end directory every substrate build lays out (endpoints and the
/// nearest on-net endpoint of every service for every city). The string
/// cache probe of a mid-catalogue ECS domain pays a linear domain scan,
/// a prefix lookup and the diurnal curve per probe; the hoisted kernel
/// the campaigns call pays none of them, reading each prefix's and the
/// domain's draw terms and each pair's rate from hoisted values (one
/// mix, one `exp` and a compare per probe). Then one shard (0 of
/// 32) of the cache-probing campaign, its diurnal table included: every
/// prefix of the slice probed for the 10 default domains in 8 rounds.
/// Then one shard of the ECS user-to-front-end grid (shard 0 of 32):
/// every user prefix of the slice resolved for every DNS-redirected ECS
/// service, one redirection lookup per run of prefixes that share an AS
/// and a city.
fn bench_probe_kernels(c: &mut Criterion) {
    let s = Substrate::build(SubstrateConfig::default(), 42).unwrap();
    let resolver = s.open_resolver().expect("open resolver");
    let records: Vec<_> = s.topo.prefixes.iter().collect();
    let ecs: Vec<_> = s
        .catalog
        .services
        .iter()
        .filter(|svc| svc.ecs_support)
        .collect();
    let mid = ecs[ecs.len() / 2];
    let mut g = c.benchmark_group("dns");
    g.bench_function("frontend_directory", |b| {
        b.iter(|| itm_dns::FrontendDirectory::build(&s.topo, &s.catalog))
    });
    g.bench_function("cache_probe_1k_mid_catalog", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let mut hits = 0;
            for _ in 0..1000 {
                let net = records[i % records.len()].net;
                i += 1;
                if matches!(
                    resolver.probe(net, &mid.domain, SimTime(3600)),
                    itm_dns::ProbeResult::Hit(_)
                ) {
                    hits += 1;
                }
            }
            hits
        })
    });
    g.bench_function("cache_probe_1k_id", |b| {
        let d = resolver.hoist_domain(itm_dns::DomainKey::of(mid));
        let t = SimTime(3600);
        let w = d.window(t);
        let hoisted: Vec<_> = records
            .iter()
            .map(|rec| {
                let p = resolver.hoist_prefix(rec);
                let daily = resolver.daily_demand(rec.id, mid.id);
                let rate =
                    resolver.ecs_rate(&p, daily, resolver.window_diurnal(rec.city, d.key, t));
                (p, rate)
            })
            .collect();
        let mut i = 0usize;
        b.iter(|| {
            let mut tally = itm_dns::DnsTally::default();
            let mut hits = 0;
            for _ in 0..1000 {
                let (p, rate) = &hoisted[i % records.len()];
                i += 1;
                if matches!(
                    resolver.probe_hoisted(p, &d, w, *rate, &mut tally),
                    itm_dns::ProbeResult::Hit(_)
                ) {
                    hits += 1;
                }
            }
            tally.flush();
            hits
        })
    });
    g.finish();
    let off = |campaign: &str| FaultInjector::new(FaultPlan::off(), &s.seeds, campaign);
    let mut g = c.benchmark_group("measure");
    g.sample_size(10);
    g.bench_function("cache_probe_shard", |b| {
        let campaign = CacheProbeCampaign::default();
        b.iter(|| {
            campaign
                .run_with_faults(&s, &resolver, &off("cache_probe"), |_, job| vec![job(0)])
                .discovered
                .len()
        })
    });
    g.bench_function("ecs_grid_shard", |b| {
        b.iter(|| {
            UserMapping::measure_with_faults(&s, &resolver, &off("user_mapping"), |_, job| {
                vec![job(0)]
            })
            .mapping
            .len()
        })
    });
    g.finish();
}

fn bench_traffic(c: &mut Criterion) {
    let s = Substrate::build(SubstrateConfig::small(), 42).unwrap();
    let prefixes: Vec<_> = s.users.user_prefixes(&s.topo).collect();
    let mut g = c.benchmark_group("traffic");
    g.bench_function("demand_cells_10k", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..10_000usize {
                let p = prefixes[i % prefixes.len()];
                let svc = s.catalog.services[i % s.catalog.len()].id;
                acc += s
                    .traffic
                    .demand(&s.topo, &s.users, &s.catalog, p, svc)
                    .raw();
            }
            acc
        })
    });
    g.finish();
}

/// The snapshot writer on the medium world (the default topology with 15
/// instead of 40 prefixes per eyeball network: 5.5 M cells, a 72 MB
/// file), the world the benchmark's build workload publishes.
fn bench_snapshot_bytes(c: &mut Criterion) {
    let mut cfg = SubstrateConfig::default();
    cfg.topology.eyeball_mean_prefixes = 15.0;
    let s = Substrate::build(cfg, 42).unwrap();
    let m = TrafficMap::build_with(&s, &MapConfig::default(), &ParallelExecutor::new(2)).unwrap();
    let mut g = c.benchmark_group("core");
    g.sample_size(10);
    g.bench_function("snapshot_bytes", |b| {
        b.iter(|| itm_core::snapshot_bytes(&s, &m).len())
    });
    g.finish();
}

fn bench_snapshot_checksum(c: &mut Criterion) {
    // One buffer the size of the medium world's snapshot (72.5 MB), filled
    // from an LCG so neither hash sees a degenerate input.
    let mut x = 42u64;
    let buf: Vec<u8> = (0..72_500_000)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (x >> 56) as u8
        })
        .collect();
    let mut g = c.benchmark_group("snap");
    g.sample_size(10);
    g.bench_function("checksum_fnv_v1", |b| {
        b.iter(|| itm_types::snap::checksum_v1(&buf))
    });
    g.bench_function("checksum_xxh64_v2", |b| {
        b.iter(|| itm_types::snap::checksum(&buf))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_topology_generation,
    bench_routing,
    bench_substrate,
    bench_dns_probing,
    bench_obs_overhead,
    bench_probe_kernels,
    bench_traffic,
    bench_snapshot_bytes,
    bench_snapshot_checksum
);
criterion_main!(benches);
