//! Quickstart: a complete bilateral trust negotiation in ~60 lines.
//!
//! A learning server grants `resource(X)` to UIUC students; Alice holds a
//! UIUC-signed student credential but releases it only to requesters that
//! prove Better-Business-Bureau membership. The negotiation therefore
//! takes two counter-disclosures before access is granted.
//!
//! Run with: `cargo run --example quickstart`

use peertrust::core::PeerId;
use peertrust::crypto::KeyRegistry;
use peertrust::negotiation::{verify_safe_sequence, NegotiationPeer, PeerMap, Strategy};
use peertrust::net::{NegotiationId, SimNetwork};
use peertrust::parser::parse_literal;
use peertrust::telemetry::Telemetry;

fn main() {
    // 1. A shared key registry plays the role of the CA infrastructure.
    let registry = KeyRegistry::new();
    registry.register_derived(PeerId::new("UIUC"), 1);
    registry.register_derived(PeerId::new("BBB"), 2);

    // 2. Each peer loads its policies and credentials in the PeerTrust
    //    language (paper §3.1 syntax).
    let mut peers = PeerMap::new();

    let mut server = NegotiationPeer::new("E-Learn", registry.clone());
    server
        .load_program(
            r#"
            % The resource policy: open to UIUC students, who prove their
            % status themselves (note the nested authority @ X).
            resource(X) $ true <- student(X) @ "UIUC" @ X.

            % E-Learn's BBB membership credential, publicly releasable.
            member("E-Learn") @ "BBB" $ true signedBy ["BBB"].
            "#,
        )
        .expect("server policies parse");
    peers.insert(server);

    let mut alice = NegotiationPeer::new("Alice", registry);
    alice
        .load_program(
            r#"
            % Alice's student ID, issued (signed) by UIUC.
            student("Alice") @ "UIUC" signedBy ["UIUC"].

            % Her release policy: student credentials go only to BBB
            % members, and the requester must prove membership itself.
            student(X) @ Y $ member(Requester) @ "BBB" @ Requester <-_true
                student(X) @ Y.
            "#,
        )
        .expect("alice policies parse");
    peers.insert(alice);

    // 3. Run the negotiation over a simulated network.
    let mut net = SimNetwork::new(42).with_trace();
    let outcome = Strategy::Parsimonious.run_traced(
        &mut peers,
        &mut net,
        NegotiationId(1),
        PeerId::new("Alice"),
        PeerId::new("E-Learn"),
        parse_literal(r#"resource("Alice")"#).unwrap(),
        &Telemetry::disabled(),
    );

    // 4. Inspect the result.
    println!("success:   {}", outcome.success);
    println!(
        "granted:   {:?}",
        outcome
            .granted
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    );
    println!("messages:  {}", outcome.messages);
    println!("bytes:     {}", outcome.bytes);
    println!();
    println!("disclosure sequence (C1, ..., Ck, R):");
    for d in &outcome.disclosures {
        println!(
            "  #{:<2} {:>8} -> {:<8} {}",
            d.seq,
            d.from,
            d.to,
            d.item.kind()
        );
    }
    println!();
    println!("network trace:");
    for ev in net.trace() {
        println!("  t{:<3} {}", ev.at, ev.message);
    }

    // 5. The safety invariant holds: every disclosure's policy was
    //    satisfied by earlier disclosures.
    verify_safe_sequence(&outcome).expect("disclosure sequence is safe");
    println!("\nsafe-sequence invariant verified.");
    assert!(outcome.success);
}
