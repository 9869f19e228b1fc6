//! Property tests for the negotiation protocol's core guarantees, driven
//! by the random policy-graph generator in `peertrust-scenarios`-style
//! construction (re-built here to keep the dependency graph acyclic).
//!
//! Invariants checked on every sampled instance:
//!
//! 1. **Safety** — every run's disclosure sequence satisfies the paper's
//!    safe-sequence definition ([`verify_safe_sequence`]).
//! 2. **Eager completeness** — the eager strategy succeeds iff the unlock
//!    fixpoint says a safe sequence exists.
//! 3. **Parsimonious soundness** — parsimonious success implies
//!    satisfiability (it never grants on an unsatisfiable instance).
//! 4. **Acyclic agreement** — on acyclic instances both strategies agree
//!    (both succeed).
//! 5. **Termination** — all runs finish within the session guards.

use peertrust_core::{Literal, PeerId, Term};
use peertrust_crypto::KeyRegistry;
use peertrust_negotiation::{
    verify_safe_sequence, NegotiationPeer, PeerMap, Strategy as NegStrategy,
};
use peertrust_net::{NegotiationId, SimNetwork};
use peertrust_telemetry::Telemetry;
use proptest::prelude::*;

const CA: &str = "PropCA";

#[derive(Clone, Debug)]
struct Instance {
    /// deps[side][i] = other-side credential indices required to release
    /// credential i of `side` (side 0 = client).
    deps: [Vec<Vec<usize>>; 2],
}

impl Instance {
    fn n(&self) -> usize {
        self.deps[0].len()
    }

    /// Ground truth satisfiability by unlock fixpoint.
    fn satisfiable(&self) -> bool {
        let n = self.n();
        let mut unlocked = [vec![false; n], vec![false; n]];
        loop {
            let mut changed = false;
            for side in 0..2 {
                for i in 0..n {
                    if !unlocked[side][i]
                        && self.deps[side][i].iter().all(|&j| unlocked[1 - side][j])
                    {
                        unlocked[side][i] = true;
                        changed = true;
                    }
                }
            }
            if !changed {
                return unlocked[0][0];
            }
        }
    }

    fn acyclic(&self) -> bool {
        // Dependencies only on strictly larger indices => acyclic.
        self.deps.iter().all(|side| {
            side.iter()
                .enumerate()
                .all(|(i, d)| d.iter().all(|&j| j > i))
        })
    }

    fn build(&self) -> (PeerMap, Literal) {
        let registry = KeyRegistry::new();
        registry.register_derived(PeerId::new(CA), 7);
        let mut client = NegotiationPeer::new("Client", registry.clone());
        let mut server = NegotiationPeer::new("Server", registry.clone());
        let n = self.n();
        for side in 0..2 {
            let (peer, owner) = if side == 0 {
                (&mut client, "Client")
            } else {
                (&mut server, "Server")
            };
            for i in 0..n {
                let pred = format!("c{side}_{i}");
                peer.load_program(&format!(r#"{pred}("{owner}") @ "{CA}" signedBy ["{CA}"]."#))
                    .unwrap();
                let ctx = if self.deps[side][i].is_empty() {
                    "true".to_string()
                } else {
                    self.deps[side][i]
                        .iter()
                        .map(|j| format!(r#"c{}_{j}(Requester) @ "{CA}" @ Requester"#, 1 - side))
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                peer.load_program(&format!(r#"{pred}(X) @ Y $ {ctx} <-_true {pred}(X) @ Y."#))
                    .unwrap();
            }
        }
        server
            .load_program(&format!(r#"resource(X) $ true <- c0_0(X) @ "{CA}" @ X."#))
            .unwrap();
        let mut peers = PeerMap::new();
        peers.insert(client);
        peers.insert(server);
        (peers, Literal::new("resource", vec![Term::str("Client")]))
    }
}

fn arb_instance(allow_cycles: bool) -> impl Strategy<Value = Instance> {
    (2usize..6).prop_flat_map(move |n| {
        let side = prop::collection::vec(prop::collection::vec(0usize..n, 0..3), n);
        (side.clone(), side).prop_map(move |(mut s0, mut s1)| {
            for side in [&mut s0, &mut s1] {
                for (i, d) in side.iter_mut().enumerate() {
                    d.sort_unstable();
                    d.dedup();
                    if !allow_cycles {
                        d.retain(|&j| j > i);
                    }
                }
            }
            Instance { deps: [s0, s1] }
        })
    })
}

fn run(
    peers: &mut PeerMap,
    goal: &Literal,
    strategy: NegStrategy,
    seed: u64,
) -> peertrust_negotiation::NegotiationOutcome {
    let mut net = SimNetwork::new(seed);
    strategy.run_traced(
        peers,
        &mut net,
        NegotiationId(1),
        PeerId::new("Client"),
        PeerId::new("Server"),
        goal.clone(),
        &Telemetry::disabled(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn eager_matches_ground_truth_and_is_safe(inst in arb_instance(true)) {
        let sat = inst.satisfiable();
        let (mut peers, goal) = inst.build();
        let out = run(&mut peers, &goal, NegStrategy::Eager, 1);
        prop_assert_eq!(out.success, sat, "instance: {:?}", inst);
        if let Err(v) = verify_safe_sequence(&out) {
            prop_assert!(false, "safety violations: {v:?}");
        }
    }

    #[test]
    fn parsimonious_is_sound_and_safe(inst in arb_instance(true)) {
        let sat = inst.satisfiable();
        let (mut peers, goal) = inst.build();
        let out = run(&mut peers, &goal, NegStrategy::Parsimonious, 2);
        // Soundness: no success on unsatisfiable instances.
        if out.success {
            prop_assert!(sat, "parsimonious granted an unsatisfiable instance: {:?}", inst);
        }
        if let Err(v) = verify_safe_sequence(&out) {
            prop_assert!(false, "safety violations: {v:?}");
        }
    }

    #[test]
    fn strategies_agree_on_acyclic(inst in arb_instance(false)) {
        prop_assert!(inst.acyclic());
        prop_assert!(inst.satisfiable(), "acyclic instances are always satisfiable");
        let (mut p1, goal) = inst.build();
        let eager = run(&mut p1, &goal, NegStrategy::Eager, 3);
        let (mut p2, _) = inst.build();
        let pars = run(&mut p2, &goal, NegStrategy::Parsimonious, 4);
        prop_assert!(eager.success, "eager failed on {:?}", inst);
        prop_assert!(pars.success, "parsimonious failed on {:?}", inst);
        // Parsimonious never disclosed more credentials than eager.
        prop_assert!(pars.credential_count() <= eager.credential_count());
    }

    /// Runs never blow the guards: message counts are finite and bounded
    /// by a generous polynomial in the instance size (termination proxy).
    #[test]
    fn negotiations_terminate_quickly(inst in arb_instance(true)) {
        let (mut peers, goal) = inst.build();
        let out = run(&mut peers, &goal, NegStrategy::Parsimonious, 5);
        let n = inst.n() as u64;
        prop_assert!(out.messages <= 2000 * (n + 1) * (n + 1), "messages: {}", out.messages);
    }
}
