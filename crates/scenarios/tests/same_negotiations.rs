//! Sharing signed rules by `Arc`, memoizing signature checks and hashing
//! the push ledger change no negotiation. A depth-16 delegation chain and
//! 40 seeded random-policy instances, each run on a frozen map with and
//! without GEM, must reproduce the outcome, grant count, disclosure
//! count, message count and byte count pinned below, and the JSON of
//! every grant list and disclosure sequence must hash to the pinned
//! digest. The values were recorded from the implementation that copied
//! each pushed rule and checked every signature with HMACs.

use peertrust_crypto::sha256::to_hex;
use peertrust_crypto::sha256_digest;
use peertrust_negotiation::{negotiate, verify_safe_sequence, NegotiationOutcome, SessionConfig};
use peertrust_net::{NegotiationId, SimNetwork};
use peertrust_scenarios::{delegation_chain, random_policies, RandomPolicyConfig, Workload};
use std::collections::HashSet;

/// (success, granted, disclosures, messages, bytes) per instance:
/// `delegation_chain(16)` first, then `random_policies` seeds 1..=40.
const PINNED: [Pinned; 41] = [
    (true, 1, 190, 56, 15269),
    (true, 1, 10, 14, 975),
    (true, 1, 16, 23, 1641),
    (true, 1, 6, 8, 531),
    (false, 0, 0, 14, 614),
    (true, 1, 12, 17, 1201),
    (true, 1, 30, 44, 3211),
    (false, 0, 0, 14, 610),
    (false, 0, 0, 10, 430),
    (true, 1, 4, 5, 309),
    (false, 0, 0, 8, 338),
    (false, 0, 14, 31, 1982),
    (true, 1, 14, 20, 1423),
    (true, 1, 18, 26, 1867),
    (true, 1, 6, 8, 531),
    (false, 0, 4, 14, 786),
    (true, 1, 6, 8, 531),
    (false, 0, 8, 32, 1778),
    (true, 1, 6, 8, 531),
    (true, 1, 4, 5, 309),
    (true, 1, 4, 5, 309),
    (false, 0, 4, 24, 1232),
    (true, 1, 22, 32, 2311),
    (false, 0, 2, 9, 470),
    (false, 0, 4, 18, 970),
    (false, 0, 0, 12, 520),
    (false, 0, 4, 12, 696),
    (false, 0, 0, 8, 338),
    (true, 1, 4, 5, 309),
    (false, 0, 8, 30, 1676),
    (false, 0, 4, 18, 964),
    (false, 0, 0, 10, 430),
    (false, 0, 4, 20, 1054),
    (false, 0, 2, 9, 470),
    (true, 1, 24, 35, 2545),
    (true, 1, 4, 5, 309),
    (true, 1, 18, 26, 1863),
    (false, 0, 0, 8, 338),
    (true, 1, 8, 11, 753),
    (true, 1, 22, 32, 2307),
    (false, 0, 0, 12, 518),
];

/// The same with GEM on: cyclic instances exchange more messages.
const PINNED_GEM: [Pinned; 41] = [
    (true, 1, 190, 56, 15269),
    (true, 1, 10, 14, 975),
    (true, 1, 16, 23, 1641),
    (true, 1, 6, 8, 531),
    (false, 0, 0, 30, 2376),
    (true, 1, 12, 17, 1201),
    (true, 1, 30, 44, 3211),
    (false, 0, 0, 54, 3434),
    (false, 0, 0, 38, 2418),
    (true, 1, 4, 5, 309),
    (false, 0, 0, 24, 1628),
    (false, 0, 14, 59, 3960),
    (true, 1, 14, 20, 1423),
    (true, 1, 18, 26, 1867),
    (true, 1, 6, 8, 531),
    (false, 0, 4, 30, 2076),
    (true, 1, 6, 8, 531),
    (false, 0, 8, 72, 5068),
    (true, 1, 6, 8, 531),
    (true, 1, 4, 5, 309),
    (true, 1, 4, 5, 309),
    (false, 0, 4, 76, 4882),
    (true, 1, 22, 32, 2311),
    (false, 0, 2, 25, 1612),
    (false, 0, 4, 46, 3096),
    (false, 0, 0, 40, 2656),
    (false, 0, 4, 28, 1838),
    (false, 0, 0, 24, 1628),
    (true, 1, 4, 5, 309),
    (false, 0, 8, 82, 5326),
    (false, 0, 4, 34, 2560),
    (false, 0, 0, 38, 2418),
    (false, 0, 4, 36, 2802),
    (false, 0, 2, 25, 1612),
    (true, 1, 24, 35, 2545),
    (true, 1, 4, 5, 309),
    (true, 1, 18, 26, 1863),
    (false, 0, 0, 24, 1628),
    (true, 1, 8, 11, 753),
    (true, 1, 22, 32, 2307),
    (false, 0, 0, 28, 2104),
];

type Pinned = (bool, usize, usize, u64, u64);

/// SHA-256 of the concatenated JSON of every instance's grant list and
/// disclosure sequence, in instance order (equal with and without GEM).
const PINNED_DIGEST: &str = "4409cdcf6b8bb1361fc1c7ecc7f0397b0a919c3468ba4edde433ce0fc0ea2b98";

fn instances() -> Vec<Workload> {
    let mut out = vec![delegation_chain(16)];
    for seed in 1..=40u64 {
        out.push(random_policies(RandomPolicyConfig {
            creds_per_side: 8 + (seed % 9) as usize,
            allow_cycles: true,
            seed,
            ..RandomPolicyConfig::default()
        }));
    }
    for w in &mut out {
        w.peers.freeze();
    }
    out
}

/// One negotiation on a copy-on-write snapshot of `w`'s frozen map.
fn run(w: &Workload, gem: bool) -> NegotiationOutcome {
    let mut peers = w.peers.clone();
    let mut net = SimNetwork::new(7);
    let cfg = SessionConfig {
        gem,
        ..SessionConfig::default()
    };
    negotiate(
        &mut peers,
        &mut net,
        cfg,
        NegotiationId(1),
        w.requester,
        w.responder,
        w.goal.clone(),
    )
}

#[test]
fn negotiations_match_the_pinned_values() {
    let instances = instances();
    for (gem, table) in [(false, PINNED), (true, PINNED_GEM)] {
        let mut transcript = String::new();
        for (i, (w, pinned)) in instances.iter().zip(table).enumerate() {
            let out = run(w, gem);
            let got = (
                out.success,
                out.granted.len(),
                out.disclosures.len(),
                out.messages,
                out.bytes,
            );
            assert_eq!(got, pinned, "instance {i}, gem {gem}");
            if out.success {
                assert!(
                    verify_safe_sequence(&out).is_ok(),
                    "instance {i}, gem {gem}: unsafe grant"
                );
            }
            transcript.push_str(&serde_json::to_string(&out.granted).unwrap());
            transcript.push_str(&serde_json::to_string(&out.disclosures).unwrap());
        }
        assert_eq!(
            to_hex(&sha256_digest(transcript.as_bytes())),
            PINNED_DIGEST,
            "gem {gem}: a grant list or disclosure sequence changed"
        );
    }
}

/// Every rule a delegation chain pushes is checked by HMAC once: the
/// registry's verified-signature memo answers every later check, in this
/// job and in every later job on a snapshot of the same frozen map.
#[test]
fn a_chain_pays_each_signature_check_once() {
    let w = &instances()[0];
    let distinct: HashSet<String> = w
        .peers
        .ids()
        .into_iter()
        .flat_map(|id| {
            let peer = w.peers.get(id).unwrap();
            peer.disclosable_signed_rules()
                .map(|(_, sr)| sr.rule.strip_contexts().to_string())
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(w.registry.verify_hmacs(), 0);
    assert!(run(w, false).success);
    let after_one = w.registry.verify_hmacs();
    assert!(
        after_one <= distinct.len() as u64,
        "{after_one} HMACs for {} distinct signed rules",
        distinct.len()
    );
    for _ in 1..64 {
        assert!(run(w, false).success);
    }
    assert_eq!(
        w.registry.verify_hmacs(),
        after_one,
        "later jobs compute no HMAC"
    );
}

/// `negotiation.crypto.verifies` counts every signature check a push
/// causes, memo hit or not, so it repeats exactly across re-runs, while
/// the registry's HMAC count does not grow after the first run.
#[test]
fn the_crypto_counter_counts_every_check() {
    let w = &instances()[0];
    let mut counts = Vec::new();
    for _ in 0..2 {
        let (t, _ring) = peertrust_telemetry::Telemetry::ring(1 << 16);
        let mut peers = w.peers.clone();
        let mut net = SimNetwork::new(7);
        let out = peertrust_negotiation::negotiate_traced(
            &mut peers,
            &mut net,
            SessionConfig::default(),
            NegotiationId(1),
            w.requester,
            w.responder,
            w.goal.clone(),
            &t,
        );
        assert!(out.success);
        let m = t.metrics().expect("telemetry enabled");
        counts.push((
            m.counter("negotiation.crypto.verifies"),
            w.registry.verify_hmacs(),
        ));
    }
    // 170 checks per negotiation, but only 17 HMACs in all, paid by the
    // first run: one per rule that crosses the wire (16 delegations and
    // the leaf credential).
    assert_eq!(counts, vec![(170, 17), (170, 17)]);
}
