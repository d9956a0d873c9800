//! The open resolver builds its PoP-wide rate table on the first
//! PoP-scope read. When that first read comes from parallel shards, the
//! table — and every probe answered from it — must be the one a
//! sequential sweep sees: the build runs once, whichever worker wins.

use itm_core::ParallelExecutor;
use itm_measure::{Substrate, SubstrateConfig};
use itm_types::SimTime;

const SHARDS: usize = 8;
const TIMES: [SimTime; 3] = [SimTime(0), SimTime(6 * 3600), SimTime(13 * 3600 + 900)];

#[test]
fn first_pop_scope_read_from_parallel_shards_matches_sequential() {
    let s = Substrate::build(SubstrateConfig::small(), 42).unwrap();
    let svc = s
        .catalog
        .services
        .iter()
        .find(|svc| !svc.ecs_support)
        .expect("a PoP-scope service");
    let prefixes: Vec<_> = s.topo.prefixes.iter().map(|r| (r.id, r.net)).collect();
    let slices: Vec<_> = prefixes.chunks(prefixes.len().div_ceil(SHARDS)).collect();

    // Fresh resolvers each time: the table is built inside the sweep.
    let sweep = |exec: &ParallelExecutor| {
        let resolver = s.open_resolver().expect("open resolver");
        exec.map(slices.len(), &|k: usize| {
            let mut out = Vec::new();
            for &(id, net) in slices[k] {
                for t in TIMES {
                    out.push((
                        resolver.probe(net, &svc.domain, t),
                        resolver.hit_probability(id, svc.id, t).to_bits(),
                    ));
                }
            }
            out
        })
    };

    let sequential = sweep(&ParallelExecutor::sequential());
    let parallel = sweep(&ParallelExecutor::new(4));
    assert_eq!(
        sequential.iter().map(Vec::len).sum::<usize>(),
        prefixes.len() * TIMES.len()
    );
    assert_eq!(parallel, sequential);
}
