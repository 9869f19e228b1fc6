//! # peertrust-bench
//!
//! Shared helpers for the experiment harness. Each experiment from
//! EXPERIMENTS.md has a Criterion bench (`benches/e*.rs`) measuring wall
//! time, plus deterministic counters (messages, bytes, disclosures,
//! rounds) produced by the `experiments` binary, which prints the tables
//! recorded in EXPERIMENTS.md.

use peertrust_core::{Literal, PeerId};
use peertrust_negotiation::{NegotiationOutcome, PeerMap, Strategy};
use peertrust_net::{NegotiationId, SimNetwork};
use peertrust_scenarios::Workload;
use peertrust_telemetry::Telemetry;

/// Run one negotiation on a fresh seeded network; panics on unexpected
/// failure when `expect_success` is set (benchmarks should not silently
/// measure failing runs).
pub fn run_negotiation(
    peers: &mut PeerMap,
    requester: PeerId,
    responder: PeerId,
    goal: Literal,
    strategy: Strategy,
    expect_success: bool,
) -> NegotiationOutcome {
    let mut net = SimNetwork::new(7);
    let out = strategy.run_traced(
        peers,
        &mut net,
        NegotiationId(1),
        requester,
        responder,
        goal,
        &Telemetry::disabled(),
    );
    if expect_success {
        assert!(out.success, "negotiation failed: {:#?}", out.refusals);
    }
    out
}

/// Run a generated workload once.
pub fn run_workload(w: &mut Workload, strategy: Strategy) -> NegotiationOutcome {
    let requester = w.requester;
    let responder = w.responder;
    let goal = w.goal.clone();
    let expect = w.satisfiable;
    run_negotiation(&mut w.peers, requester, responder, goal, strategy, expect)
}

/// Run `f` on a thread with a large stack (deep-chain workloads recurse
/// proportionally to chain depth).
pub fn with_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(f)
        .expect("spawn big-stack thread")
        .join()
        .expect("big-stack thread panicked")
}

/// One row of an experiment table (serialized into EXPERIMENTS.md).
#[derive(Debug, Clone, serde::Serialize)]
pub struct Row {
    pub experiment: &'static str,
    pub config: String,
    pub strategy: String,
    pub success: bool,
    pub messages: u64,
    pub bytes: u64,
    pub queries: u64,
    pub credentials: usize,
    pub rounds: u64,
    pub ticks: u64,
}

impl Row {
    pub fn from_outcome(
        experiment: &'static str,
        config: impl Into<String>,
        strategy: &str,
        out: &NegotiationOutcome,
    ) -> Row {
        Row {
            experiment,
            config: config.into(),
            strategy: strategy.to_string(),
            success: out.success,
            messages: out.messages,
            bytes: out.bytes,
            queries: out.queries,
            credentials: out.credential_count(),
            rounds: out.rounds,
            ticks: out.elapsed_ticks,
        }
    }

    pub fn header() -> String {
        format!(
            "{:<4} | {:<28} | {:<12} | {:>3} | {:>6} | {:>8} | {:>7} | {:>5} | {:>6} | {:>6}",
            "exp",
            "config",
            "strategy",
            "ok",
            "msgs",
            "bytes",
            "queries",
            "creds",
            "rounds",
            "ticks"
        )
    }
}

impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<4} | {:<28} | {:<12} | {:>3} | {:>6} | {:>8} | {:>7} | {:>5} | {:>6} | {:>6}",
            self.experiment,
            self.config,
            self.strategy,
            if self.success { "yes" } else { "no" },
            self.messages,
            self.bytes,
            self.queries,
            self.credentials,
            self.rounds,
            self.ticks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peertrust_scenarios::chain;

    #[test]
    fn run_workload_executes_chain() {
        let mut w = chain(3);
        let out = run_workload(&mut w, Strategy::Parsimonious);
        assert!(out.success);
        let row = Row::from_outcome("E3", "depth=3", "parsimonious", &out);
        assert!(row.to_string().contains("E3"));
        assert!(Row::header().contains("msgs"));
    }

    #[test]
    fn big_stack_helper_runs_closures() {
        let v = with_big_stack(|| 41 + 1);
        assert_eq!(v, 42);
    }
}
