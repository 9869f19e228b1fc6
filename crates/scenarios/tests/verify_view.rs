//! Requester-side answer verification runs against each peer's live
//! signed-credential view: the view is built at most once per verifying
//! peer per negotiation, never when no answer needs checking, and the
//! `negotiation.verify.*` counters pin exactly how much work that is on a
//! delegation chain and on a seeded random-policy instance.

use peertrust_negotiation::{negotiate, negotiate_traced, NegotiationOutcome, SessionConfig};
use peertrust_net::{NegotiationId, SimNetwork};
use peertrust_scenarios::{delegation_chain, random_policies, RandomPolicyConfig, Workload};
use peertrust_telemetry::Telemetry;

/// Run `w` once traced; returns the outcome with the two verify counters
/// (`checks`, `view_builds`).
fn run_counted(mut w: Workload) -> (NegotiationOutcome, u64, u64) {
    let (t, _ring) = Telemetry::ring(1 << 16);
    let mut net = SimNetwork::new(7);
    let out = negotiate_traced(
        &mut w.peers,
        &mut net,
        SessionConfig::default(),
        NegotiationId(1),
        w.requester,
        w.responder,
        w.goal.clone(),
        &t,
    );
    let m = t.metrics().expect("telemetry enabled");
    (
        out,
        m.counter("negotiation.verify.checks"),
        m.counter("negotiation.verify.view_builds"),
    )
}

fn deny_mix_instance() -> Workload {
    random_policies(RandomPolicyConfig {
        creds_per_side: 12,
        allow_cycles: true,
        seed: 901,
        ..RandomPolicyConfig::default()
    })
}

#[test]
fn delegation_chain_verify_counters_are_exact() {
    let (out, checks, builds) = run_counted(delegation_chain(16));
    assert!(out.success, "refusals: {:?}", out.refusals);
    // The server re-derives the subject's one chained answer from the 16
    // pushed delegations plus the leaf credential: one check, one build.
    assert_eq!((checks, builds), (1, 1));
}

#[test]
fn random_policies_verify_counters_are_exact() {
    let w = deny_mix_instance();
    assert!(!w.satisfiable);
    let (out, checks, builds) = run_counted(w);
    assert!(!out.success);
    // Both sides verify the other's credential answers; each builds its
    // view once.
    assert_eq!((checks, builds), (4, 2));
}

#[test]
fn views_are_built_at_most_once_per_verifying_peer() {
    for seed in 1..=40 {
        let w = random_policies(RandomPolicyConfig {
            creds_per_side: 8 + (seed % 9) as usize,
            allow_cycles: true,
            seed,
            ..RandomPolicyConfig::default()
        });
        let (out, checks, builds) = run_counted(w);
        assert!(builds <= 2, "seed {seed}: {builds} builds for two peers");
        assert_eq!(checks == 0, builds == 0, "seed {seed}: {checks} checks");
        assert!(
            out.refusals
                .iter()
                .all(|r| r.reason != peertrust_negotiation::RefusalReason::VerificationFailed),
            "seed {seed}: honest peers never fail verification"
        );
    }
}

#[test]
fn untraced_outcome_matches_traced() {
    for w in [delegation_chain(16), deny_mix_instance()] {
        let (traced, _, _) = run_counted(Workload {
            peers: w.peers.clone(),
            registry: w.registry.clone(),
            goal: w.goal.clone(),
            ..w
        });
        let mut peers = w.peers;
        let mut net = SimNetwork::new(7);
        let plain = negotiate(
            &mut peers,
            &mut net,
            SessionConfig::default(),
            NegotiationId(1),
            w.requester,
            w.responder,
            w.goal,
        );
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&traced).unwrap()
        );
    }
}
