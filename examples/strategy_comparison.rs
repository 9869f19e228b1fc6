//! Eager vs parsimonious on synthetic policy graphs: the trade-off table
//! behind experiments E3/E4 (messages and rounds vs disclosures).
//!
//! Run with: `cargo run --release --example strategy_comparison`

use peertrust::negotiation::Strategy;
use peertrust::net::{NegotiationId, SimNetwork};
use peertrust::scenarios::{chain, random_policies, RandomPolicyConfig};
use peertrust::telemetry::Telemetry;

fn main() {
    println!("=== Release-dependency chains (experiment E3) ===");
    println!(
        "{:>6} | {:>12} {:>9} {:>7} | {:>12} {:>9} {:>7}",
        "depth", "pars msgs", "creds", "ticks", "eager msgs", "creds", "rounds"
    );
    for depth in [1, 2, 4, 8, 12, 16] {
        let mut row = Vec::new();
        for strategy in Strategy::ALL {
            let mut w = chain(depth);
            let mut net = SimNetwork::new(depth as u64);
            let out = strategy.run_traced(
                &mut w.peers,
                &mut net,
                NegotiationId(1),
                w.requester,
                w.responder,
                w.goal.clone(),
                &Telemetry::disabled(),
            );
            assert!(out.success, "depth {depth} {strategy}");
            row.push(out);
        }
        println!(
            "{:>6} | {:>12} {:>9} {:>7} | {:>12} {:>9} {:>7}",
            depth,
            row[0].messages,
            row[0].credential_count(),
            row[0].elapsed_ticks,
            row[1].messages,
            row[1].credential_count(),
            row[1].rounds
        );
    }

    println!("\n=== Random bipartite policy graphs (experiment E4) ===");
    println!(
        "{:>5} {:>5} | {:>10} {:>10} | {:>10} {:>10} | {:>9}",
        "n", "seed", "pars msgs", "pars creds", "eager msgs", "eager creds", "outcome"
    );
    let mut eager_total = 0u64;
    let mut pars_total = 0u64;
    for n in [4usize, 8, 16] {
        for seed in 0..4u64 {
            let cfg = RandomPolicyConfig {
                creds_per_side: n,
                max_deps: 2,
                public_prob: 0.3,
                allow_cycles: true,
                seed,
                ..RandomPolicyConfig::default()
            };
            let mut outs = Vec::new();
            for strategy in Strategy::ALL {
                let mut w = random_policies(cfg);
                let mut net = SimNetwork::new(seed);
                let out = strategy.run_traced(
                    &mut w.peers,
                    &mut net,
                    NegotiationId(1),
                    w.requester,
                    w.responder,
                    w.goal.clone(),
                    &Telemetry::disabled(),
                );
                outs.push((out, w.satisfiable));
            }
            let (pars, sat) = (&outs[0].0, outs[0].1);
            let eager = &outs[1].0;
            // Eager is complete: success == satisfiable.
            assert_eq!(eager.success, sat);
            pars_total += pars.credential_count() as u64;
            eager_total += eager.credential_count() as u64;
            println!(
                "{:>5} {:>5} | {:>10} {:>10} | {:>10} {:>10} | {:>9}",
                n,
                seed,
                pars.messages,
                pars.credential_count(),
                eager.messages,
                eager.credential_count(),
                if sat { "sat" } else { "unsat" }
            );
        }
    }
    println!(
        "\ntotal credentials disclosed: parsimonious={pars_total}, eager={eager_total} \
         (parsimonious discloses less; eager always decides satisfiability)"
    );
    assert!(pars_total <= eager_total);
}
