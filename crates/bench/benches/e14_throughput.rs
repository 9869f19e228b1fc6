//! E14: parallel negotiation throughput — negotiations/sec of the batch
//! scheduler at 1/2/4/8 workers on the scenario-generator grid, cold vs
//! warm shared remote-answer cache.
//!
//! Scaling caveat: wall-clock speedup at >1 workers requires real cores;
//! on a single-core host the worker counts measure scheduling overhead
//! only. The per-worker utilization series exported by the batch driver
//! (`negotiation.throughput.*`) tells the two situations apart.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use peertrust_negotiation::{negotiate_batch, BatchConfig, SharedRemoteAnswerCache};
use peertrust_scenarios::throughput_grid;
use peertrust_telemetry::Telemetry;

const CLIENTS: usize = 8;
const REPEATS: usize = 4;
const DEPTH: usize = 3;

fn batch_config(workers: usize, cache: Option<SharedRemoteAnswerCache>) -> BatchConfig {
    BatchConfig {
        workers,
        shared_cache: cache,
        ..BatchConfig::default()
    }
}

/// Negotiations/sec at each worker count, no shared cache (the fully
/// deterministic regime).
fn bench_batch_workers(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_batch");
    group.sample_size(10);
    let w = throughput_grid(CLIENTS, REPEATS, DEPTH);
    group.throughput(Throughput::Elements(w.jobs.len() as u64));
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("uncached", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let report = negotiate_batch(
                        &w.peers,
                        &w.jobs,
                        &batch_config(workers, None),
                        &Telemetry::disabled(),
                    );
                    assert_eq!(report.stats.successes, w.jobs.len());
                    report.stats.negotiations_per_sec
                })
            },
        );
    }
    group.finish();
}

/// Cold vs warm shared cache at a fixed worker count: cold rebuilds the
/// cache every run, warm reuses one cache pre-populated by a full pass.
fn bench_batch_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_cache");
    group.sample_size(10);
    let w = throughput_grid(CLIENTS, REPEATS, DEPTH);
    group.throughput(Throughput::Elements(w.jobs.len() as u64));
    for workers in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("cold_cache", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let cache = SharedRemoteAnswerCache::new();
                    let report = negotiate_batch(
                        &w.peers,
                        &w.jobs,
                        &batch_config(workers, Some(cache)),
                        &Telemetry::disabled(),
                    );
                    assert_eq!(report.stats.successes, w.jobs.len());
                    report.stats.negotiations_per_sec
                })
            },
        );
        let warm = SharedRemoteAnswerCache::new();
        negotiate_batch(
            &w.peers,
            &w.jobs,
            &batch_config(workers, Some(warm.clone())),
            &Telemetry::disabled(),
        );
        group.bench_with_input(
            BenchmarkId::new("warm_cache", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let report = negotiate_batch(
                        &w.peers,
                        &w.jobs,
                        &batch_config(workers, Some(warm.clone())),
                        &Telemetry::disabled(),
                    );
                    assert_eq!(report.stats.successes, w.jobs.len());
                    report.stats.negotiations_per_sec
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_batch_workers, bench_batch_cache);
criterion_main!(benches);
