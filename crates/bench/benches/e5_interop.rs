//! E5: completeness/decision cost — how long each strategy takes to
//! *decide* random (possibly unsatisfiable) instances. The eager strategy
//! is complete, so its outcome doubles as ground truth; the bench sweeps
//! mixed satisfiable/unsatisfiable populations.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use peertrust_negotiation::Strategy;
use peertrust_net::{NegotiationId, SimNetwork};
use peertrust_scenarios::{random_policies, RandomPolicyConfig};
use peertrust_telemetry::Telemetry;

fn bench_interop(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_interop");
    group.sample_size(10);

    for n in [8usize, 16, 32] {
        for strategy in Strategy::ALL {
            group.bench_with_input(
                BenchmarkId::new(format!("decide/{}", strategy.name()), n),
                &n,
                |b, &n| {
                    b.iter_batched(
                        || {
                            // Cyclic graphs: a mix of sat and unsat.
                            (0..4u64)
                                .map(|seed| {
                                    random_policies(RandomPolicyConfig {
                                        creds_per_side: n,
                                        max_deps: 2,
                                        public_prob: 0.2,
                                        allow_cycles: true,
                                        seed,
                                        ..RandomPolicyConfig::default()
                                    })
                                })
                                .collect::<Vec<_>>()
                        },
                        |mut ws| {
                            let mut decided = 0u32;
                            for w in &mut ws {
                                let mut net = SimNetwork::new(1);
                                let out = strategy.run_traced(
                                    &mut w.peers,
                                    &mut net,
                                    NegotiationId(1),
                                    w.requester,
                                    w.responder,
                                    w.goal.clone(),
                                    &Telemetry::disabled(),
                                );
                                // Eager must match ground truth exactly.
                                if strategy == Strategy::Eager {
                                    assert_eq!(out.success, w.satisfiable);
                                }
                                decided += 1;
                            }
                            decided
                        },
                        BatchSize::SmallInput,
                    )
                },
            );
        }
    }

    group.finish();
}

criterion_group!(benches, bench_interop);
criterion_main!(benches);
