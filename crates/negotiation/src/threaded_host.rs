//! Running an eager negotiation over the *threaded* transport.
//!
//! The deterministic simulated network is what the experiments measure;
//! this module demonstrates that the protocol itself is not an artifact of
//! deterministic scheduling: each principal runs on its own OS thread and
//! all traffic flows through `peertrust-net`'s crossbeam router, exactly
//! like the 2004 prototype's socket peers.
//!
//! The wire protocol is turn-based eager disclosure:
//!
//! 1. the requester sends `Query{goal}`;
//! 2. the parties alternate `CredentialPush` messages (possibly with zero
//!    rules — an explicit "my turn, nothing new" marker);
//! 3. after each inbound push the responder checks whether it can derive
//!    *and license* the goal locally; if so it replies `Answers{granted}`;
//! 4. two consecutive empty pushes mean the disclosure fixpoint was
//!    reached without success: the responder replies `Answers{[]}`.

use crate::eager::grantable_locally_for_host;
use crate::outcome::{DisclosedItem, Disclosure};
use crate::peer::NegotiationPeer;
use peertrust_core::{Context, FxHashSet, Literal, PeerId, Rule};
use peertrust_crypto::SignedRule;
use peertrust_net::{
    channel_network, Endpoint, Message, MessageId, NegotiationId, Payload, QueryId, TraceContext,
};
use std::sync::Arc;
use std::time::Duration;

/// Causal coordinates for threaded-host message `n`: every frame belongs
/// to trace 1 (the single negotiation), gets a span id derived from its
/// message number (requester numbers from 0, responder from 1000, so ids
/// never collide across the two threads), and parents on the notional
/// root span 1. Deterministic by construction — no shared counter.
fn wire_trace(n: u64) -> TraceContext {
    TraceContext {
        trace_id: 1,
        span_id: n + 2,
        parent_span_id: 1,
    }
}

/// Why a threaded negotiation did not grant the resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadedFailure {
    /// The disclosure fixpoint was reached without deriving the goal —
    /// the protocol's negative answer (`Answers{[]}`).
    Fixpoint,
    /// The requester's receive timer expired before any answer arrived
    /// (peer hung, died, or the derivation outlived
    /// [`ThreadedConfig::timeout`]).
    Timeout,
}

/// Result of a threaded negotiation.
#[derive(Debug)]
pub struct ThreadedOutcome {
    pub success: bool,
    pub granted: Vec<Literal>,
    /// Messages routed by the router thread.
    pub messages_routed: u64,
    /// Credentials each side disclosed.
    pub disclosures: Vec<Disclosure>,
    /// `None` on success; on failure, which way it failed.
    pub failure: Option<ThreadedFailure>,
}

/// Tuning for the threaded transport.
#[derive(Clone, Copy, Debug)]
pub struct ThreadedConfig {
    /// How long either loop waits on its inbox before giving up. The
    /// requester reports expiry as [`ThreadedFailure::Timeout`].
    pub timeout: Duration,
}

impl Default for ThreadedConfig {
    fn default() -> ThreadedConfig {
        ThreadedConfig {
            timeout: Duration::from_secs(10),
        }
    }
}

/// Run one eager negotiation with each peer on its own thread, tuned by
/// `cfg` (notably the receive timeout).
///
/// Consumes the two peers (they move into their threads) and returns the
/// outcome observed by the requester plus router statistics.
pub fn negotiate_threaded(
    requester: NegotiationPeer,
    responder: NegotiationPeer,
    goal: Literal,
    cfg: ThreadedConfig,
) -> ThreadedOutcome {
    let req_id = requester.id;
    let resp_id = responder.id;
    let (mut endpoints, router) = channel_network(&[req_id, resp_id]);
    let req_ep = endpoints.remove(&req_id).expect("requester endpoint");
    let resp_ep = endpoints.remove(&resp_id).expect("responder endpoint");

    let goal_clone = goal.clone();
    let responder_thread = std::thread::Builder::new()
        .name(format!("peer-{resp_id}"))
        .stack_size(8 << 20)
        .spawn(move || responder_loop(responder, resp_ep, req_id, cfg))
        .expect("spawn responder");

    let requester_thread = std::thread::Builder::new()
        .name(format!("peer-{req_id}"))
        .stack_size(8 << 20)
        .spawn(move || requester_loop(requester, req_ep, resp_id, goal_clone, cfg))
        .expect("spawn requester");

    let (granted, req_disclosures, timed_out) = requester_thread.join().expect("requester thread");
    let resp_disclosures = responder_thread.join().expect("responder thread");

    let mut disclosures = req_disclosures;
    disclosures.extend(resp_disclosures);
    for (i, d) in disclosures.iter_mut().enumerate() {
        d.seq = i;
    }

    let messages_routed = router.join();
    let success = !granted.is_empty();
    let failure = match (success, timed_out) {
        (true, _) => None,
        (false, true) => Some(ThreadedFailure::Timeout),
        (false, false) => Some(ThreadedFailure::Fixpoint),
    };
    ThreadedOutcome {
        success,
        granted,
        messages_routed,
        disclosures,
        failure,
    }
}

fn push_message(from: PeerId, to: PeerId, n: u64, rules: Vec<SignedRule>) -> Message {
    Message {
        id: MessageId(n),
        negotiation: NegotiationId(1),
        from,
        to,
        payload: Payload::CredentialPush { rules },
        hops: 0,
        trace: wire_trace(n),
    }
}

/// Compute the releasable-and-unsent credentials of `peer` for `other`,
/// in their wire form (contexts stripped, paper §3.1).
fn new_disclosures(
    peer: &NegotiationPeer,
    other: PeerId,
    sent: &mut FxHashSet<Arc<Rule>>,
) -> Vec<SignedRule> {
    let mut out = Vec::new();
    let mut rename = 0u32;
    for (_, sr) in peer.disclosable_signed_rules() {
        if sent.contains(&sr.rule) {
            continue;
        }
        if crate::eager::license_locally_for_host(peer, other, &sr.rule.head, &mut rename).is_some()
        {
            sent.insert(Arc::clone(&sr.rule));
            out.push(sr.wire_form());
        }
    }
    out
}

fn requester_loop(
    mut peer: NegotiationPeer,
    ep: Endpoint,
    responder: PeerId,
    goal: Literal,
    cfg: ThreadedConfig,
) -> (Vec<Literal>, Vec<Disclosure>, bool) {
    let me = peer.id;
    let mut sent = FxHashSet::default();
    let mut disclosures = Vec::new();
    let mut msg_n = 0u64;

    // Kick off with the resource query plus the first disclosure turn.
    let _ = ep.send(Message {
        id: MessageId(msg_n),
        negotiation: NegotiationId(1),
        from: me,
        to: responder,
        payload: Payload::Query {
            id: QueryId(0),
            goal: goal.clone(),
        },
        hops: 0,
        trace: wire_trace(msg_n),
    });
    msg_n += 1;
    let pushes = new_disclosures(&peer, responder, &mut sent);
    record_pushes(&mut disclosures, me, responder, &pushes);
    let _ = ep.send(push_message(me, responder, msg_n, pushes));
    msg_n += 1;

    // Then alternate until the responder answers.
    loop {
        let Some(msg) = ep.recv_timeout(cfg.timeout) else {
            // Responder gone or still grinding: distinct from a protocol
            // fixpoint, which always arrives as an explicit `Answers{[]}`.
            return (Vec::new(), disclosures, true);
        };
        match msg.payload {
            Payload::Answers { answers, .. } => {
                return (answers, disclosures, false);
            }
            Payload::CredentialPush { rules } => {
                for sr in rules {
                    let _ = peer.receive_signed(sr, responder);
                }
                let pushes = new_disclosures(&peer, responder, &mut sent);
                record_pushes(&mut disclosures, me, responder, &pushes);
                let _ = ep.send(push_message(me, responder, msg_n, pushes));
                msg_n += 1;
            }
            _ => {}
        }
    }
}

fn responder_loop(
    mut peer: NegotiationPeer,
    ep: Endpoint,
    requester: PeerId,
    cfg: ThreadedConfig,
) -> Vec<Disclosure> {
    let me = peer.id;
    let mut sent = FxHashSet::default();
    let mut disclosures = Vec::new();
    let mut msg_n = 1000u64;
    let mut goal: Option<Literal> = None;
    let mut quiet_turns = 0u32;

    loop {
        let Some(msg) = ep.recv_timeout(cfg.timeout) else {
            return disclosures;
        };
        match msg.payload {
            Payload::Query { goal: g, .. } => {
                goal = Some(g);
            }
            Payload::CredentialPush { rules } => {
                let inbound = rules.len();
                for sr in rules {
                    let _ = peer.receive_signed(sr, requester);
                }
                // Success check after absorbing the requester's turn.
                if let Some(g) = &goal {
                    if let Some(granted) = grantable_locally_for_host(&peer, requester, g) {
                        let _ = ep.send(Message {
                            id: MessageId(msg_n),
                            negotiation: NegotiationId(1),
                            from: me,
                            to: requester,
                            payload: Payload::Answers {
                                id: QueryId(0),
                                goal: g.clone(),
                                answers: granted,
                            },
                            hops: 0,
                            trace: wire_trace(msg_n),
                        });
                        return disclosures;
                    }
                }
                // Our disclosure turn.
                let pushes = new_disclosures(&peer, requester, &mut sent);
                if inbound == 0 && pushes.is_empty() {
                    quiet_turns += 1;
                } else {
                    quiet_turns = 0;
                }
                if quiet_turns >= 1 {
                    // Fixpoint without success: negotiation fails.
                    if let Some(g) = &goal {
                        let _ = ep.send(Message {
                            id: MessageId(msg_n),
                            negotiation: NegotiationId(1),
                            from: me,
                            to: requester,
                            payload: Payload::Answers {
                                id: QueryId(0),
                                goal: g.clone(),
                                answers: Vec::new(),
                            },
                            hops: 0,
                            trace: wire_trace(msg_n),
                        });
                    }
                    return disclosures;
                }
                record_pushes(&mut disclosures, me, requester, &pushes);
                let _ = ep.send(push_message(me, requester, msg_n, pushes));
                msg_n += 1;
            }
            _ => {}
        }
    }
}

fn record_pushes(
    disclosures: &mut Vec<Disclosure>,
    from: PeerId,
    to: PeerId,
    pushes: &[SignedRule],
) {
    for sr in pushes {
        disclosures.push(Disclosure {
            seq: 0, // renumbered after the join
            from,
            to,
            item: DisclosedItem::SignedRule(sr.clone()),
            context: Context::public(),
            evidence: Vec::new(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peertrust_crypto::KeyRegistry;
    use peertrust_parser::parse_literal;

    fn registry() -> KeyRegistry {
        let r = KeyRegistry::new();
        r.register_derived(PeerId::new("UIUC"), 1);
        r.register_derived(PeerId::new("BBB"), 2);
        r
    }

    #[test]
    fn threaded_bilateral_negotiation_succeeds() {
        let reg = registry();
        let mut server = NegotiationPeer::new("T-Server", reg.clone());
        server
            .load_program(
                r#"
                resource(X) $ true <- student(X) @ "UIUC" @ X.
                member("T-Server") @ "BBB" $ true signedBy ["BBB"].
                "#,
            )
            .unwrap();
        let mut alice = NegotiationPeer::new("T-Alice", reg);
        alice
            .load_program(
                r#"
                student("T-Alice") @ "UIUC" signedBy ["UIUC"].
                student(X) @ Y $ member(Requester) @ "BBB" @ Requester <-_true student(X) @ Y.
                "#,
            )
            .unwrap();

        let out = negotiate_threaded(
            alice,
            server,
            parse_literal(r#"resource("T-Alice")"#).unwrap(),
            ThreadedConfig::default(),
        );
        assert!(out.success, "disclosures: {:#?}", out.disclosures);
        assert!(out.messages_routed >= 4);
        assert_eq!(
            out.disclosures.len(),
            2,
            "disclosures: {:#?}",
            out.disclosures
                .iter()
                .map(|d| format!("{} -> {}: {:?}", d.from, d.to, d.item.kind()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn threaded_negotiation_fails_finitely() {
        let reg = registry();
        let mut server = NegotiationPeer::new("F-Server", reg.clone());
        server
            .load_program(r#"resource(X) $ true <- impossible(X)."#)
            .unwrap();
        let client = NegotiationPeer::new("F-Client", reg);

        let out = negotiate_threaded(
            client,
            server,
            parse_literal(r#"resource("F-Client")"#).unwrap(),
            ThreadedConfig::default(),
        );
        assert!(!out.success);
        assert_eq!(
            out.failure,
            Some(ThreadedFailure::Fixpoint),
            "an explicit empty answer is a fixpoint, not a timeout"
        );
    }

    #[test]
    fn expiry_is_reported_as_timeout() {
        // The responder's derivation is combinatorial (20^4 bindings all
        // failing on `never(A)`), taking far longer than the 5ms timeout,
        // so the requester's timer deterministically expires first —
        // distinguishable from the fixpoint failure above.
        let reg = registry();
        let mut server = NegotiationPeer::new("S-Server", reg.clone());
        let mut program = String::from("resource(X) $ true <- n(A), n(B), n(C), n(D), never(A).\n");
        for i in 0..20 {
            program.push_str(&format!("n(\"v{i}\").\n"));
        }
        server.load_program(&program).unwrap();
        let client = NegotiationPeer::new("S-Client", reg);

        let out = negotiate_threaded(
            client,
            server,
            parse_literal(r#"resource("S-Client")"#).unwrap(),
            ThreadedConfig {
                timeout: Duration::from_millis(5),
            },
        );
        assert!(!out.success);
        assert_eq!(out.failure, Some(ThreadedFailure::Timeout));
    }
}
