//! Simulator-loop benchmark: raw scheduling-core throughput (events/s) at
//! 100 / 271 / 1000 / 5000 nodes, for the flat core in both dispatch modes
//! (batched bucket drain and single pop) and the sharded core — the
//! Criterion-tracked companion of the `bench-json` simulator-loop numbers.
//!
//! The workload ([`heap_bench::simloop`]) mirrors a congested dissemination
//! run: ~64 in-flight messages per node walking the network plus a standing
//! population of far-horizon timers per node.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use heap_bench::simloop;

/// Events per measured iteration (the workload TTL is derived from it).
const TARGET_EVENTS: u64 = 300_000;

fn bench_simloop(c: &mut Criterion) {
    let mut group = c.benchmark_group("simloop");
    group.sample_size(10);
    for &n in &[100usize, 271, 1000, 5000] {
        let ttl = simloop::ttl_for(n, TARGET_EVENTS);
        // The event count is identical across dispatch modes; measure it
        // once for the throughput denominator — and pin the PR 8 batched
        // bucket-drain dispatch against single-pop dispatch on the full
        // run, so a batch-path divergence fails the smoke run itself on
        // fingerprint mismatch.
        let batched = simloop::fingerprint(&mut simloop::build_sim(n, 7, ttl));
        let single = simloop::fingerprint(&mut simloop::build_sim_single_pop(n, 7, ttl));
        assert_eq!(
            batched, single,
            "batched dispatch diverged from single-pop at {n} nodes"
        );
        let events = batched.0;
        group.throughput(Throughput::Elements(events));
        // Construction is untimed (batched setup), matching bench-json's
        // `simloop::measure`, so both report the same events/s quantity.
        group.bench_function(&format!("pr4_flat_{n}_nodes"), |b| {
            b.iter_batched_ref(
                || simloop::build_sim(n, 7, ttl),
                |sim| sim.run_to_completion().expect("contract holds"),
                BatchSize::LargeInput,
            );
        });
        // The flat core with batching off: the PR 8 measurement baseline.
        group.bench_function(&format!("pr4_flat_single_pop_{n}_nodes"), |b| {
            b.iter_batched_ref(
                || simloop::build_sim_single_pop(n, 7, ttl),
                |sim| sim.run_to_completion().expect("contract holds"),
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// Shard counts for the sharded sweep: `HEAP_SIMLOOP_SHARDS=1,2,4` (the CI
/// shard-matrix smoke step sets it explicitly; the default is the same
/// matrix).
fn shard_counts() -> Vec<usize> {
    std::env::var("HEAP_SIMLOOP_SHARDS")
        .ok()
        .map(|spec| {
            spec.split(',')
                .filter_map(|v| v.trim().parse().ok())
                .filter(|&s| s >= 1)
                .collect::<Vec<_>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4])
}

/// The PR 5 sharded core across the shard-count matrix, sequential
/// stepping (the deterministic wall-clock mode on 1-core hosts), plus the
/// scoped-thread mode at the largest size. Event counts are asserted
/// identical to the flat core so a silent divergence fails the bench.
fn bench_simloop_sharded(c: &mut Criterion) {
    let mut group = c.benchmark_group("simloop_sharded");
    group.sample_size(10);
    for &n in &[1000usize, 5000] {
        let ttl = simloop::ttl_for(n, TARGET_EVENTS);
        let mut probe = simloop::build_sim(n, 7, ttl);
        let events = probe.run_to_completion().expect("contract holds");
        group.throughput(Throughput::Elements(events));
        for &shards in &shard_counts() {
            let mut probe = simloop::build_sim_sharded(n, 7, ttl, shards);
            assert_eq!(
                probe.run_to_completion().expect("contract holds"),
                events,
                "sharded core must process the identical event stream"
            );
            group.bench_function(&format!("sharded_{shards}_seq_{n}_nodes"), |b| {
                b.iter_batched_ref(
                    || simloop::build_sim_sharded(n, 7, ttl, shards),
                    |sim| sim.run_to_completion().expect("contract holds"),
                    BatchSize::LargeInput,
                );
            });
        }
        if n == 5000 {
            for &shards in &shard_counts() {
                if shards == 1 {
                    continue;
                }
                group.bench_function(&format!("sharded_{shards}_threaded_{n}_nodes"), |b| {
                    b.iter_batched_ref(
                        || simloop::build_sim_sharded(n, 7, ttl, shards),
                        |sim| sim.run_to_completion_threaded().expect("contract holds"),
                        BatchSize::LargeInput,
                    );
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_simloop, bench_simloop_sharded);
criterion_main!(benches);
