//! Deterministic telemetry assertions for the two paper scenarios.
//!
//! The simulated network is seeded, so every counter in the metrics
//! registry is exact and stable run-to-run: these tests pin the expected
//! query/disclosure/round counts for scenario 1 (Alice & E-Learn, §4.1)
//! and scenario 2 (Bob & the paid course, §4.2), and check that the
//! event stream agrees with the outcome and reconstructs into exactly one
//! causal trace per negotiation under either strategy.

use peertrust_negotiation::{DisclosedItem, Strategy};
use peertrust_scenarios::{Scenario1, Scenario2, Variant2};
use peertrust_telemetry::{Telemetry, Trace, TraceEvent};

/// The one trace the stream rebuilds to: it validates, has exactly one
/// root span, and that root covers the outcome's whole simulated run.
fn single_root_trace(events: &[TraceEvent], elapsed_ticks: u64) -> Trace {
    let traces = Trace::from_events(events);
    assert_eq!(traces.len(), 1, "one trace per negotiation");
    let trace = traces.into_iter().next().unwrap();
    assert_eq!(trace.id, 1);
    trace.validate().unwrap_or_else(|e| panic!("{e}"));
    let roots: Vec<_> = trace.spans.iter().filter(|s| s.parent == 0).collect();
    assert_eq!(roots.len(), 1, "exactly one root span");
    assert_eq!(roots[0].name, "negotiation");
    assert_eq!(roots[0].duration(), elapsed_ticks);
    trace
}

#[test]
fn scenario1_metrics_are_exact() {
    let (t, _ring) = Telemetry::ring(65536);
    let mut s = Scenario1::build();
    let out = s.run_traced(Strategy::Parsimonious, &t);
    assert!(out.success, "refusals: {:#?}", out.refusals);

    let m = t.metrics().expect("telemetry enabled");

    // Query traffic: Alice asks E-Learn for the resource and (to check the
    // release context of her student ID) its BBB membership; E-Learn
    // queries Alice's student credential.
    assert_eq!(m.counter("negotiation.queries_issued.Alice"), 2);
    assert_eq!(m.counter("negotiation.queries_issued.E-Learn"), 1);
    assert_eq!(m.counter("negotiation.queries_received.Alice"), 1);
    assert_eq!(m.counter("negotiation.queries_received.E-Learn"), 2);
    assert_eq!(m.counter("negotiation.queries_answered.Alice"), 1);
    assert_eq!(m.counter("negotiation.queries_answered.E-Learn"), 2);

    // Disclosure sequence: 4 signed rules, 3 query answers, and the final
    // resource grant — 8 steps total.
    assert_eq!(m.counter("negotiation.disclosures"), 8);
    assert_eq!(m.counter("negotiation.disclosures.rule"), 4);
    assert_eq!(m.counter("negotiation.disclosures.answer"), 3);
    assert_eq!(m.counter("negotiation.disclosures.resource"), 1);

    // Outcome-level counters.
    assert_eq!(m.counter("negotiation.completed"), 1);
    assert_eq!(m.counter("negotiation.success"), 1);
    assert_eq!(m.counter("negotiation.failure"), 0);
    assert_eq!(m.histogram("negotiation.rounds").unwrap().max, 3);

    // Transport counters agree with the outcome's own accounting.
    assert_eq!(m.counter("net.messages"), out.messages);
    assert_eq!(m.counter("net.bytes"), out.bytes);
    assert_eq!(m.counter("net.payload.query"), out.queries);
    assert_eq!(m.counter("net.messages"), 9);

    // The registry's per-kind disclosure counters match the recorded
    // sequence item by item.
    let rules = out
        .disclosures
        .iter()
        .filter(|d| matches!(d.item, DisclosedItem::SignedRule(_)))
        .count() as u64;
    let answers = out
        .disclosures
        .iter()
        .filter(|d| matches!(d.item, DisclosedItem::Answer(_)))
        .count() as u64;
    assert_eq!(m.counter("negotiation.disclosures.rule"), rules);
    assert_eq!(m.counter("negotiation.disclosures.answer"), answers);
    assert_eq!(
        m.counter("negotiation.disclosures"),
        out.disclosures.len() as u64
    );

    // Engine-level effort counters are populated.
    assert_eq!(m.counter("engine.steps"), 11);
    assert_eq!(m.counter("engine.remote_hops"), 2);
    assert!(m.counter("engine.rule_tries") >= m.counter("engine.steps"));
    assert_eq!(m.histogram("engine.proof_depth").unwrap().max, 5);
}

#[test]
fn scenario1_timeline_covers_the_negotiation() {
    let (t, ring) = Telemetry::ring(65536);
    let mut s = Scenario1::build();
    let out = s.run_traced(Strategy::Parsimonious, &t);
    assert!(out.success);

    let events = ring.events();
    assert!(!events.is_empty());
    assert_eq!(ring.dropped(), 0, "ring must not have evicted events");

    // Every event belongs to negotiation 1: nothing is recorded outside
    // a negotiation.
    assert!(events.iter().all(|e| e.negotiation == 1));
    let trace = single_root_trace(&events, out.elapsed_ticks);
    // Beyond the root, the trace holds the three remote requests and one
    // transit span per message.
    assert_eq!(trace.spans.len(), 1 + 3 + out.messages as usize);

    // Event counts match the metrics/outcome exactly.
    let of_kind =
        |kind: &str| -> Vec<&TraceEvent> { events.iter().filter(|e| e.kind == kind).collect() };
    assert_eq!(of_kind("negotiation.query").len(), 3);
    assert_eq!(
        of_kind("negotiation.disclosure").len(),
        out.disclosures.len()
    );
    assert_eq!(of_kind("net.send").len(), out.messages as usize);
    assert_eq!(of_kind("negotiation.refusal").len(), 0);

    // The chronological order is coherent: the resource grant is the final
    // disclosure event, as in the paper's sequence `(C1, ..., Ck, R)`.
    let disclosures = of_kind("negotiation.disclosure");
    assert_eq!(
        disclosures.last().unwrap().str_field("kind"),
        Some("resource")
    );

    // Every event round-trips through one JSON line.
    for e in &events {
        let line = serde_json::to_string(e).expect("events serialize");
        let back: TraceEvent = serde_json::from_str(&line).expect("valid JSON line");
        assert_eq!(&back, e);
    }
}

#[test]
fn scenario2_metrics_are_exact() {
    let (t, _ring) = Telemetry::ring(65536);
    let mut s = Scenario2::build(Variant2::Base);
    let out = s.run_traced(Strategy::Parsimonious, Scenario2::paid_goal(1000), &t);
    assert!(out.success, "refusals: {:#?}", out.refusals);

    let m = t.metrics().expect("telemetry enabled");

    // Bob asks for the course, then (for his card's release policy)
    // E-Learn's credentials; E-Learn queries Bob's authorization and card.
    assert_eq!(m.counter("negotiation.queries_issued.Bob"), 3);
    assert_eq!(m.counter("negotiation.queries_issued.E-Learn"), 2);
    assert_eq!(m.counter("negotiation.queries_received.Bob"), 2);
    assert_eq!(m.counter("negotiation.queries_received.E-Learn"), 3);
    assert_eq!(m.counter("negotiation.queries_answered.Bob"), 2);
    assert_eq!(m.counter("negotiation.queries_answered.E-Learn"), 3);

    // Disclosures: 4 signed rules, 5 answers, 1 resource grant.
    assert_eq!(m.counter("negotiation.disclosures"), 10);
    assert_eq!(m.counter("negotiation.disclosures.rule"), 4);
    assert_eq!(m.counter("negotiation.disclosures.answer"), 5);
    assert_eq!(m.counter("negotiation.disclosures.resource"), 1);
    assert_eq!(
        m.counter("negotiation.disclosures"),
        out.disclosures.len() as u64
    );

    assert_eq!(m.counter("negotiation.success"), 1);
    assert_eq!(m.histogram("negotiation.rounds").unwrap().max, 3);
    assert_eq!(m.counter("net.messages"), out.messages);
    assert_eq!(m.counter("net.messages"), 14);
    assert_eq!(m.counter("net.payload.query"), out.queries);
    assert_eq!(m.counter("engine.steps"), 16);
    assert_eq!(m.counter("engine.remote_hops"), 4);
}

#[test]
fn disabled_telemetry_changes_nothing() {
    // The traced run with a disabled handle must equal the plain run.
    let mut a = Scenario1::build();
    let plain = a.run(Strategy::Parsimonious);
    let mut b = Scenario1::build();
    let traced = b.run_traced(Strategy::Parsimonious, &Telemetry::disabled());
    assert_eq!(plain.success, traced.success);
    assert_eq!(plain.messages, traced.messages);
    assert_eq!(plain.bytes, traced.bytes);
    assert_eq!(plain.disclosures.len(), traced.disclosures.len());
    assert_eq!(plain.elapsed_ticks, traced.elapsed_ticks);
}

#[test]
fn eager_strategy_is_traced_at_outcome_level() {
    let (t, ring) = Telemetry::ring(65536);
    let mut s = Scenario1::build();
    let out = s.run_traced(Strategy::Eager, &t);
    assert!(out.success);

    let m = t.metrics().expect("telemetry enabled");
    assert_eq!(m.counter("negotiation.completed"), 1);
    assert_eq!(m.counter("negotiation.success"), 1);
    // Eager pushes credentials without counter-querying.
    assert_eq!(m.counter("net.payload.query"), 0);
    assert!(m.counter("net.messages") > 0);

    // The eager round loop records a root-only trace.
    let trace = single_root_trace(&ring.events(), out.elapsed_ticks);
    assert_eq!(trace.spans.len(), 1);
}
