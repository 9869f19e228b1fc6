//! `peertrust` — command-line front end for the PeerTrust policy language
//! and negotiation runtime.
//!
//! Policy files use the paper's labeled-program layout: each peer's rules
//! under a `"Peer Name":` heading. Issuers appearing in `signedBy` clauses
//! are auto-registered in the simulated CA, and their signed rules are
//! minted for the holding peer.
//!
//! ```text
//! peertrust check <file>
//!     Parse the file, report peers/rules/credentials or a parse error.
//!
//! peertrust lint <file>
//!     Static policy analysis: deadlocked release cycles, unreleasable
//!     credentials, unsafe rules, unknown authorities/issuers.
//!
//! peertrust query <file> <peer> <goal>
//!     Run a local query against one peer's knowledge base and print each
//!     answer with its proof tree.
//!
//! peertrust negotiate <file> <requester> <responder> <goal>
//!            [--strategy parsimonious|eager] [--trace] [--explain-failure]
//!     Run a trust negotiation and print the outcome, the disclosure
//!     sequence, and optionally the message trace or a counterfactual
//!     failure analysis.
//! ```

use peertrust::core::{PeerId, Rule, Sym};
use peertrust::crypto::KeyRegistry;
use peertrust::engine::{explain_with_rules, Solver};
use peertrust::negotiation::{analyze_failure, NegotiationPeer, PeerMap, SessionConfig, Strategy};
use peertrust::net::{NegotiationId, SimNetwork};
use peertrust::parser::{parse_labeled_program, parse_literal};
use peertrust::telemetry::Telemetry;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("negotiate") => cmd_negotiate(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{}", USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
peertrust — PeerTrust policy language & trust negotiation runtime

USAGE:
  peertrust check <file>
  peertrust lint <file>
  peertrust query <file> <peer> <goal>
  peertrust negotiate <file> <requester> <responder> <goal>
            [--strategy parsimonious|eager] [--trace] [--explain-failure] [--json]

Policy files use labeled programs:

  \"E-Learn\":
    resource(X) $ true <- student(X) @ \"UIUC\" @ X.
  Alice:
    student(\"Alice\") @ \"UIUC\" signedBy [\"UIUC\"].
    student(X) @ Y $ true <-_true student(X) @ Y.
";

/// Parse a labeled policy file into peers backed by a shared simulated CA.
fn load_peers(path: &str) -> Result<(PeerMap, KeyRegistry), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let labeled = parse_labeled_program(&src).map_err(|e| format!("{path}: {e}"))?;

    // Auto-register every issuer mentioned anywhere.
    let registry = KeyRegistry::new();
    let mut issuers: Vec<Sym> = Vec::new();
    for (_, rules) in &labeled {
        for rule in rules {
            for issuer in &rule.signed_by {
                if !issuers.contains(issuer) {
                    issuers.push(*issuer);
                }
            }
        }
    }
    for (i, issuer) in issuers.iter().enumerate() {
        registry.register_derived(PeerId(*issuer), 0xC11 + i as u64);
    }

    let mut peers = PeerMap::new();
    for (peer_id, rules) in labeled {
        let mut peer = NegotiationPeer::new(peer_id.name(), registry.clone());
        for rule in rules {
            load_rule(&mut peer, rule)?;
        }
        peers.insert(peer);
    }
    Ok((peers, registry))
}

fn load_rule(peer: &mut NegotiationPeer, rule: Rule) -> Result<(), String> {
    if rule.signed_by.is_empty() {
        peer.add_rule(rule);
        Ok(())
    } else {
        peer.mint(rule.clone())
            .map(|_| ())
            .map_err(|e| format!("minting `{rule}`: {e}"))
    }
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("usage: peertrust check <file>".into());
    };
    let (peers, _registry) = load_peers(path)?;
    println!("{path}: OK");
    for id in peers.ids() {
        let peer = peers.get(id).expect("listed peer exists");
        let rules = peer.kb.len();
        let creds = peer.disclosable_signed_rules().count();
        let preds = peer.kb.predicates().len();
        println!("  {id}: {rules} rules ({creds} signed), {preds} predicates");
    }
    Ok(())
}

fn cmd_lint(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("usage: peertrust lint <file>".into());
    };
    let (peers, _registry) = load_peers(path)?;
    // Every auto-registered issuer is "known" for the lint.
    let src = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let labeled = parse_labeled_program(&src).map_err(|e| format!("{path}: {e}"))?;
    let mut issuers = Vec::new();
    for (_, rules) in &labeled {
        for rule in rules {
            for issuer in rule.issuers() {
                if !issuers.contains(&issuer) {
                    issuers.push(issuer);
                }
            }
        }
    }
    let report = peertrust::negotiation::analyze(&peers, &issuers);
    if report.is_clean() {
        println!("{path}: clean (no findings)");
        return Ok(());
    }
    for f in &report.findings {
        println!("{}: {}", f.severity(), f);
    }
    if !report.errors().is_empty() {
        return Err(format!("{} error(s) found", report.errors().len()));
    }
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let [path, peer_name, goal_src] = args else {
        return Err("usage: peertrust query <file> <peer> <goal>".into());
    };
    let (peers, _registry) = load_peers(path)?;
    let peer_id = PeerId::new(peer_name);
    let peer = peers
        .get(peer_id)
        .ok_or_else(|| format!("no peer named `{peer_name}` in {path}"))?;
    let goal = parse_literal(goal_src).map_err(|e| format!("goal: {e}"))?;

    let mut solver = Solver::new(&peer.kb, peer_id);
    let solutions = solver.solve(std::slice::from_ref(&goal));
    if solutions.is_empty() {
        println!("no (0 answers)");
        return Ok(());
    }
    println!("yes ({} answer(s))", solutions.len());
    for (i, sol) in solutions.iter().enumerate() {
        println!("\nanswer {}: {}", i + 1, sol.proofs[0].goal);
        print!("{}", explain_with_rules(&sol.proofs[0], &peer.kb));
    }
    Ok(())
}

fn cmd_negotiate(args: &[String]) -> Result<(), String> {
    let mut positional: Vec<&String> = Vec::new();
    let mut strategy = Strategy::Parsimonious;
    let mut trace = false;
    let mut explain_fail = false;
    let mut json_out = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--strategy" => {
                let v = it.next().ok_or("--strategy needs a value")?;
                strategy = match v.as_str() {
                    "parsimonious" => Strategy::Parsimonious,
                    "eager" => Strategy::Eager,
                    other => return Err(format!("unknown strategy `{other}`")),
                };
            }
            "--trace" => trace = true,
            "--explain-failure" => explain_fail = true,
            "--json" => json_out = true,
            _ => positional.push(arg),
        }
    }
    let [path, requester, responder, goal_src] = positional[..] else {
        return Err(
            "usage: peertrust negotiate <file> <requester> <responder> <goal> [options]".into(),
        );
    };

    let (mut peers, _registry) = load_peers(path)?;
    let requester_id = PeerId::new(requester);
    let responder_id = PeerId::new(responder);
    for (role, id) in [("requester", requester_id), ("responder", responder_id)] {
        if peers.get(id).is_none() {
            return Err(format!("no peer named `{id}` for {role} in {path}"));
        }
    }
    let goal = parse_literal(goal_src).map_err(|e| format!("goal: {e}"))?;

    let mut net = SimNetwork::new(0xC11);
    if trace {
        net = net.with_trace();
    }
    let outcome = strategy.run_traced(
        &mut peers,
        &mut net,
        NegotiationId(1),
        requester_id,
        responder_id,
        goal.clone(),
        &Telemetry::disabled(),
    );

    if json_out {
        // Machine-readable audit record of the whole negotiation.
        println!(
            "{}",
            serde_json::to_string_pretty(&outcome)
                .map_err(|e| format!("serializing outcome: {e}"))?
        );
        return Ok(());
    }
    println!(
        "negotiation: {}",
        if outcome.success {
            "SUCCESS"
        } else {
            "FAILURE"
        }
    );
    for g in &outcome.granted {
        println!("  granted: {g}");
    }
    println!(
        "  strategy={} messages={} bytes={} queries={} credentials={} rounds={}",
        strategy,
        outcome.messages,
        outcome.bytes,
        outcome.queries,
        outcome.credential_count(),
        outcome.rounds
    );
    if !outcome.disclosures.is_empty() {
        println!("\ndisclosure sequence:");
        for d in &outcome.disclosures {
            println!(
                "  #{:<2} {:>12} -> {:<12} {}",
                d.seq,
                d.from,
                d.to,
                d.item.kind()
            );
        }
    }
    if trace {
        println!("\nmessage trace:");
        for ev in net.trace() {
            println!("  t{:<4} {}", ev.at, ev.message);
        }
    }
    if !outcome.success {
        if !outcome.refusals.is_empty() {
            println!("\nrefusals:");
            for r in &outcome.refusals {
                println!(
                    "  {} refused `{}` to {} ({:?})",
                    r.peer, r.goal, r.requester, r.reason
                );
            }
        }
        if explain_fail {
            println!("\ncounterfactual failure analysis:");
            let path_owned = path.clone();
            let analysis = analyze_failure(
                move || load_peers(&path_owned).expect("file already parsed once").0,
                SessionConfig::default(),
                requester_id,
                responder_id,
                &goal,
                &outcome,
            );
            if analysis.unconditional {
                println!("  no single release override rescues this negotiation");
            }
            for a in &analysis.refusals {
                println!(
                    "  {} `{}`: {}",
                    a.refusal.peer,
                    a.refusal.goal,
                    if a.critical {
                        "CRITICAL — releasing this item alone would succeed"
                    } else {
                        "contributory"
                    }
                );
            }
        }
    }
    Ok(())
}
