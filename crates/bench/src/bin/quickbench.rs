//! Criterion-free smoke benchmark for the solver hot path.
//!
//! Runs a handful of e8/e13/e14 scenarios a fixed number of times with
//! `std::time::Instant`, reports the median wall time per scenario, and
//! writes the result as JSON (default `target/BENCH_PR8.json`). This is
//! what `cargo xtask bench --quick` invokes in CI: fast enough to run on
//! every push, deterministic in workload shape, and comparable against
//! the committed baseline `BENCH_BASELINE.json`.
//!
//! Usage:
//!   quickbench [--quick] [--lane interpreted|compiled|both]
//!              [--out PATH] [--baseline PATH]
//!
//! `--quick` lowers iteration counts for CI smoke runs. `--lane` selects
//! which scenario lane runs (default `both`): the interpreted lane is
//! the historical PR5 scenario set; the compiled lane re-runs the
//! deep-chain and tabled workloads through the WAM-lite compiled KB
//! (compilation happens outside the timed region — the artifact is
//! `Arc`-shared per iteration, which is exactly how negotiation peers
//! consume it).
//!
//! Besides wall time, each cold solver scenario is replayed once to
//! collect its *deterministic* work counters — resolution steps and
//! term-heap cells. Wall-clock medians wobble with machine load; the
//! counters don't, so they are asserted **exactly** against the
//! baseline: any drift in the engine's allocation or search behaviour
//! fails loudly instead of hiding inside a 25% timing budget.
//!
//! Gates, applied after measurement:
//! - Same-run parity (both lanes): `e8_deep_chain_compiled` must not be
//!   slower than `e8_deep_chain_cold`, and `e13_compiled_cold` must not
//!   be slower than `e13_tabled_cold` — the full WAM lowering (PR 8)
//!   made the compiled lane the fast path, and it must stay that way.
//!   The 1.3x stretch target is reported per scenario. Same-run ratios
//!   are immune to machine-wide slowdowns (CI throttling inflates both
//!   lanes equally).
//! - `--baseline`: fail if a *cold* scenario (e8/e13, either lane)
//!   present in both the fresh run and the baseline regressed >25%;
//!   `e17_gem_mesh` and `e18_serving` (the open-loop serving engine) are
//!   gated at a generous 3x; warm/batch deltas are reported
//!   informationally. Work counters present in both must match exactly —
//!   for e18 that pins the admission decisions (admitted/shed counts,
//!   queue peak, makespan, tick-exact wait/latency p99) and
//!   `base_clones == 0`, the clone-free startup guard.

use peertrust_core::{KnowledgeBase, Literal, PeerId, Rule, Term};
use peertrust_engine::{AnswerTable, CompiledKb, EngineConfig, Solver};
use peertrust_negotiation::{
    negotiate_batch, serve_open_loop, BatchConfig, BatchJob, ServeConfig, SessionConfig,
};
use peertrust_scenarios::{delegation_mesh, serving_workload, throughput_grid};
use peertrust_telemetry::Telemetry;
use std::sync::Arc;
use std::time::Instant;

/// Linear `reach`/`edge` closure KB: the e8/e13 deep-chain workload.
fn closure_kb(n: usize) -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    kb.add_local(Rule::horn(
        Literal::new("reach", vec![Term::var("X"), Term::var("Y")]),
        vec![Literal::new("edge", vec![Term::var("X"), Term::var("Y")])],
    ));
    kb.add_local(Rule::horn(
        Literal::new("reach", vec![Term::var("X"), Term::var("Z")]),
        vec![
            Literal::new("edge", vec![Term::var("X"), Term::var("Y")]),
            Literal::new("reach", vec![Term::var("Y"), Term::var("Z")]),
        ],
    ));
    for i in 0..n {
        kb.add_local(Rule::fact(Literal::new(
            "edge",
            vec![Term::int(i as i64), Term::int(i as i64 + 1)],
        )));
    }
    kb
}

fn engine_config(tabling: bool) -> EngineConfig {
    EngineConfig {
        max_solutions: usize::MAX,
        max_depth: 4096,
        tabling,
        ..EngineConfig::default()
    }
}

/// Median wall time in nanoseconds over `iters` runs of `f`. The closure
/// returns a checksum that is asserted against `expect` so the work
/// cannot be optimized away and the scenario stays self-validating.
fn median_ns<F: FnMut() -> usize>(iters: usize, expect: usize, mut f: F) -> u128 {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        let got = f();
        samples.push(t.elapsed().as_nanos());
        assert_eq!(got, expect, "scenario checksum mismatch");
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Paired (interleaved) medians for two closures solving the same
/// workload: each iteration times `a` then `b` back to back, so slow
/// machine-wide drift (thermal throttling, a noisy neighbour ramping up
/// mid-run) lands on both lanes equally. Block measurement — all of `a`,
/// then all of `b` — systematically biases whichever lane runs later;
/// the compiled-vs-interpreted parity gate needs the unbiased pairing.
/// Returns `(median_a, median_b, median_delta)` where `delta` is the
/// per-pair `a - b` in nanoseconds: the paired-difference statistic the
/// parity gate tests (`median_delta >= 0` ⇔ lane `b` is no slower than
/// lane `a` on adjacent identical runs). A noise spike lands on one lane
/// of one pair; the median over all pairs shrugs it off, where a
/// comparison of two independent medians would wobble.
fn paired_median_ns<A: FnMut() -> usize, B: FnMut() -> usize>(
    iters: usize,
    expect: usize,
    mut a: A,
    mut b: B,
) -> (u128, u128, i128) {
    let mut sa = Vec::with_capacity(iters);
    let mut sb = Vec::with_capacity(iters);
    let mut deltas = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        let got = a();
        let ns_a = t.elapsed().as_nanos();
        assert_eq!(got, expect, "scenario checksum mismatch (lane a)");
        let t = Instant::now();
        let got = b();
        let ns_b = t.elapsed().as_nanos();
        assert_eq!(got, expect, "scenario checksum mismatch (lane b)");
        sa.push(ns_a);
        sb.push(ns_b);
        deltas.push(ns_a as i128 - ns_b as i128);
    }
    sa.sort_unstable();
    sb.sort_unstable();
    deltas.sort_unstable();
    (sa[sa.len() / 2], sb[sb.len() / 2], deltas[deltas.len() / 2])
}

struct Report {
    entries: Vec<(&'static str, u128, usize)>,
    /// Deterministic work counters: `"<scenario>.<counter>"` -> value.
    /// Asserted exactly against the committed baseline — see module docs.
    counters: Vec<(String, u64)>,
    /// Interleaved parity pairs: `(interpreted, compiled, median of
    /// per-pair interpreted − compiled deltas in ns)`.
    pairs: Vec<(&'static str, &'static str, i128)>,
}

impl Report {
    fn record(
        &mut self,
        name: &'static str,
        iters: usize,
        expect: usize,
        f: impl FnMut() -> usize,
    ) {
        let ns = median_ns(iters, expect, f);
        println!("{name:<28} median {:>12} ns  ({iters} iters)", ns);
        self.entries.push((name, ns, iters));
    }

    /// Record an interleaved pair — see [`paired_median_ns`]. The
    /// median per-pair delta (`a - b`) feeds the parity gate.
    fn record_paired(
        &mut self,
        name_a: &'static str,
        name_b: &'static str,
        iters: usize,
        expect: usize,
        a: impl FnMut() -> usize,
        b: impl FnMut() -> usize,
    ) {
        let (ns_a, ns_b, delta) = paired_median_ns(iters, expect, a, b);
        println!("{name_a:<28} median {ns_a:>12} ns  ({iters} iters, paired)");
        println!("{name_b:<28} median {ns_b:>12} ns  ({iters} iters, paired)");
        self.entries.push((name_a, ns_a, iters));
        self.entries.push((name_b, ns_b, iters));
        self.pairs.push((name_a, name_b, delta));
    }

    /// Record one scenario's deterministic work counters from a replay's
    /// [`peertrust_engine::Stats`].
    fn count(&mut self, name: &str, stats: &peertrust_engine::Stats) {
        for (counter, value) in [
            ("steps", stats.steps),
            ("heap_cells", stats.heap_cells),
            ("body_instrs", stats.compiled_body_instrs),
        ] {
            self.count_value(name, counter, value);
        }
    }

    /// Record a single deterministic work counter.
    fn count_value(&mut self, name: &str, counter: &str, value: u64) {
        println!("{name:<28} {counter:<16} {value}");
        self.counters.push((format!("{name}.{counter}"), value));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"peertrust-quickbench-v1\",\n");
        out.push_str("  \"scenarios\": {\n");
        for (i, (name, ns, iters)) in self.entries.iter().enumerate() {
            let comma = if i + 1 == self.entries.len() { "" } else { "," };
            out.push_str(&format!(
                "    \"{name}\": {{ \"median_ns\": {ns}, \"iters\": {iters} }}{comma}\n"
            ));
        }
        out.push_str("  },\n  \"counters\": {\n");
        for (i, (key, value)) in self.counters.iter().enumerate() {
            let comma = if i + 1 == self.counters.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!("    \"{key}\": {value}{comma}\n"));
        }
        out.push_str("  }\n}\n");
        out
    }

    fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|(n, _, _)| *n).collect()
    }
}

/// Pull `"<scenario>": { "median_ns": N` out of a quickbench JSON file
/// without a full parser (the format is our own, written above).
fn read_median(json: &str, scenario: &str) -> Option<u128> {
    let key = format!("\"{scenario}\"");
    let at = json.find(&key)?;
    let rest = &json[at..];
    let m = rest.find("\"median_ns\":")?;
    let tail = rest[m + "\"median_ns\":".len()..].trim_start();
    let digits: String = tail.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// Pull a flat `"<key>": N` counter out of a quickbench JSON file. The
/// dotted counter keys never collide with scenario names.
fn read_counter(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)?;
    let tail = json[at + needle.len()..].trim_start();
    let digits: String = tail.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Reject unknown flags so a retired gate flag fails loudly instead
    // of being silently ignored.
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--quick" => {}
            "--out" | "--baseline" | "--lane" => {
                rest.next();
            }
            other => {
                eprintln!("unknown argument {other}: expected --quick, --lane, --out, --baseline");
                std::process::exit(2);
            }
        }
    }
    let quick = args.iter().any(|a| a == "--quick");
    let arg_val = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = arg_val("--out").unwrap_or_else(|| "target/BENCH_PR8.json".to_string());
    let baseline_path = arg_val("--baseline");
    let lane = arg_val("--lane").unwrap_or_else(|| "both".to_string());
    let (run_interp, run_compiled) = match lane.as_str() {
        "interpreted" => (true, false),
        "compiled" => (false, true),
        "both" => (true, true),
        other => {
            eprintln!("unknown --lane {other}: expected interpreted|compiled|both");
            std::process::exit(2);
        }
    };

    // Cold-scenario counts stay high even under `--quick`: a cold solve
    // is ~10ms now, and the paired parity gate needs enough pairs for a
    // stable median-of-deltas. Only the batch scenarios are trimmed.
    let (deep_iters, table_iters, batch_iters) = if quick { (17, 17, 3) } else { (21, 21, 5) };

    let mut report = Report {
        entries: Vec::new(),
        counters: Vec::new(),
        pairs: Vec::new(),
    };

    let deep = closure_kb(128);
    let deep_goal = [Literal::new("reach", vec![Term::int(0), Term::var("W")])];
    let tbl_kb = closure_kb(64);
    let tbl_goal = [Literal::new("reach", vec![Term::int(0), Term::var("W")])];

    // Compiled artifacts are built once, outside every timed region; each
    // iteration pays only an `Arc` clone — the same sharing pattern
    // negotiation peers use via `NegotiationPeer::compile_policies`.
    let deep_c = run_compiled.then(|| Arc::new(CompiledKb::compile(&deep)));
    let tbl_c = run_compiled.then(|| Arc::new(CompiledKb::compile(&tbl_kb)));

    let e8_interp = || {
        let mut solver = Solver::new(&deep, PeerId::new("self")).with_config(engine_config(false));
        solver.solve(&deep_goal).len()
    };
    let e13_interp = || {
        let mut solver = Solver::new(&tbl_kb, PeerId::new("self")).with_config(engine_config(true));
        solver.solve(&tbl_goal).len()
    };
    let e8_compiled = |c: &Arc<CompiledKb>| {
        let mut solver = Solver::new(&deep, PeerId::new("self"))
            .with_config(engine_config(false))
            .with_compiled(c.clone());
        solver.solve(&deep_goal).len()
    };
    let e13_compiled = |c: &Arc<CompiledKb>| {
        let mut solver = Solver::new(&tbl_kb, PeerId::new("self"))
            .with_config(engine_config(true))
            .with_compiled(c.clone());
        solver.solve(&tbl_goal).len()
    };

    // Cold solver scenarios. With both lanes live these are the parity
    // pairs, measured interleaved; a solo lane measures blockwise.
    //
    // e8: deep-chain cold solve, no tabling — the raw clause-resolution
    // hot path. e13: tabled cold solve — the table is built from scratch
    // each iteration.
    match (run_interp, &deep_c) {
        (true, Some(c)) => {
            report.record_paired(
                "e8_deep_chain_cold",
                "e8_deep_chain_compiled",
                deep_iters,
                128,
                e8_interp,
                || e8_compiled(c),
            );
        }
        (true, None) => report.record("e8_deep_chain_cold", deep_iters, 128, e8_interp),
        (false, Some(c)) => {
            report.record("e8_deep_chain_compiled", deep_iters, 128, || e8_compiled(c))
        }
        (false, None) => {}
    }
    match (run_interp, &tbl_c) {
        (true, Some(c)) => {
            report.record_paired(
                "e13_tabled_cold",
                "e13_compiled_cold",
                table_iters,
                64,
                e13_interp,
                || e13_compiled(c),
            );
        }
        (true, None) => report.record("e13_tabled_cold", table_iters, 64, e13_interp),
        (false, Some(c)) => report.record("e13_compiled_cold", table_iters, 64, || e13_compiled(c)),
        (false, None) => {}
    }

    if run_interp {
        // Deterministic work counters for the cold interpreted scenarios.
        let mut replay = Solver::new(&deep, PeerId::new("self")).with_config(engine_config(false));
        assert_eq!(replay.solve(&deep_goal).len(), 128);
        report.count("e8_deep_chain_cold", &replay.stats());
        let mut replay = Solver::new(&tbl_kb, PeerId::new("self")).with_config(engine_config(true));
        assert_eq!(replay.solve(&tbl_goal).len(), 64);
        report.count("e13_tabled_cold", &replay.stats());

        // e13: warm table — answers served from a pre-populated shared table.
        let table = Arc::new(AnswerTable::new());
        {
            let mut warmer = Solver::new(&tbl_kb, PeerId::new("self"))
                .with_config(engine_config(true))
                .with_table(table.clone());
            assert_eq!(warmer.solve(&tbl_goal).len(), 64);
        }
        report.record("e13_tabled_warm", table_iters, 64, || {
            let mut solver = Solver::new(&tbl_kb, PeerId::new("self"))
                .with_config(engine_config(true))
                .with_table(table.clone());
            solver.solve(&tbl_goal).len()
        });

        // e14: small negotiation batch — ensures the end-to-end stack
        // (sessions, transport, scheduler) stays within noise.
        let grid = throughput_grid(4, 2, 4);
        report.record("e14_batch", batch_iters, 8, || {
            let cfg = BatchConfig {
                workers: 2,
                ..BatchConfig::default()
            };
            let rep = negotiate_batch(&grid.peers, &grid.jobs, &cfg, &Telemetry::disabled());
            rep.stats.successes
        });

        // e17: a cyclic delegation mesh batched through the GEM
        // distributed-tabling fixpoint — the classical driver refuses
        // this workload, so the scenario times the loop-resolution lane
        // end to end (loop closure, answer rounds, completion).
        let mesh = delegation_mesh(3, 2, false);
        let mesh_jobs: Vec<BatchJob> = (0..4)
            .map(|_| BatchJob::new(mesh.peer_ids[1], mesh.responder, mesh.goal.clone()))
            .collect();
        report.record("e17_gem_mesh", batch_iters, 4, || {
            let cfg = BatchConfig {
                workers: 2,
                session: SessionConfig {
                    gem: true,
                    gem_max_rounds: 32,
                    ..SessionConfig::default()
                },
                ..BatchConfig::default()
            };
            let rep = negotiate_batch(&mesh.peers, &mesh_jobs, &cfg, &Telemetry::disabled());
            rep.stats.successes
        });

        // e18: the open-loop serving engine over the Zipf workload at an
        // offered rate past saturation — times clone-free session
        // startup, the virtual-time admission controller, and load
        // shedding end to end. The admission decisions are deterministic,
        // so the admitted count doubles as the scenario checksum and the
        // serving counters are asserted exactly against the baseline.
        let serving = serving_workload(4, 2, 64, 1.1, 18);
        let serve_cfg = ServeConfig {
            mean_interarrival_ticks: 4.0,
            servers: 2,
            queue_cap: 4,
            deadline_ticks: 128,
            workers: 2,
            ..ServeConfig::default()
        };
        let serve_once = || {
            let rep = serve_open_loop(
                &serving.peers,
                &serving.jobs,
                &serve_cfg,
                &Telemetry::disabled(),
            );
            assert_eq!(rep.stats.base_clones, 0, "serving must stay clone-free");
            rep.stats.admitted
        };
        let replay = serve_open_loop(
            &serving.peers,
            &serving.jobs,
            &serve_cfg,
            &Telemetry::disabled(),
        );
        let expect_admitted = replay.stats.admitted;
        report.record("e18_serving", batch_iters, expect_admitted, serve_once);
        report.count_value("e18_serving", "admitted", replay.stats.admitted as u64);
        report.count_value(
            "e18_serving",
            "shed",
            (replay.stats.shed_queue_full + replay.stats.shed_deadline) as u64,
        );
        report.count_value("e18_serving", "base_clones", replay.stats.base_clones);
        report.count_value(
            "e18_serving",
            "max_queue_depth",
            replay.stats.max_queue_depth as u64,
        );
        report.count_value("e18_serving", "makespan_ticks", replay.stats.makespan_ticks);
        report.count_value("e18_serving", "wait_p99", replay.stats.wait.p99);
        report.count_value("e18_serving", "latency_p99", replay.stats.latency.p99);
    }

    if let (Some(deep_c), Some(tbl_c)) = (&deep_c, &tbl_c) {
        // Deterministic work counters for the cold compiled scenarios.
        let mut replay = Solver::new(&deep, PeerId::new("self"))
            .with_config(engine_config(false))
            .with_compiled(deep_c.clone());
        assert_eq!(replay.solve(&deep_goal).len(), 128);
        report.count("e8_deep_chain_compiled", &replay.stats());
        let mut replay = Solver::new(&tbl_kb, PeerId::new("self"))
            .with_config(engine_config(true))
            .with_compiled(tbl_c.clone());
        assert_eq!(replay.solve(&tbl_goal).len(), 64);
        report.count("e13_compiled_cold", &replay.stats());

        // e13 warm through the compiled path.
        let table = Arc::new(AnswerTable::new());
        {
            let mut warmer = Solver::new(&tbl_kb, PeerId::new("self"))
                .with_config(engine_config(true))
                .with_table(table.clone())
                .with_compiled(tbl_c.clone());
            assert_eq!(warmer.solve(&tbl_goal).len(), 64);
        }
        report.record("e13_compiled_warm", table_iters, 64, || {
            let mut solver = Solver::new(&tbl_kb, PeerId::new("self"))
                .with_config(engine_config(true))
                .with_table(table.clone())
                .with_compiled(tbl_c.clone());
            solver.solve(&tbl_goal).len()
        });

        // e14 with batch-level precompilation: the scheduler compiles
        // every peer's policies once before fanning jobs out.
        let grid = throughput_grid(4, 2, 4);
        report.record("e14_batch_compiled", batch_iters, 8, || {
            let cfg = BatchConfig {
                workers: 2,
                compile_policies: true,
                ..BatchConfig::default()
            };
            let rep = negotiate_batch(&grid.peers, &grid.jobs, &cfg, &Telemetry::disabled());
            rep.stats.successes
        });
    }

    let json = report.to_json();
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
    }
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");

    if let (Some(compiled), Some(interp)) = (
        read_median(&json, "e8_deep_chain_compiled"),
        read_median(&json, "e8_deep_chain_cold"),
    ) {
        println!(
            "e8 compiled speedup (same run): interpreted {interp} ns / compiled {compiled} ns = {:.2}x",
            interp as f64 / compiled as f64
        );
    }

    let mut failed = false;

    // The PR8 tentpole gate: the full WAM lowering (body bytecode + arena
    // heap + authority dispatch) must make the compiled lane *the fast
    // lane*. Tested on the interleaved pairs via the median per-pair
    // delta — compiled is gated to be no slower than the interpreter on
    // adjacent identical runs. The 1.3x stretch target is reported from
    // the medians but not enforced.
    for (interp_name, compiled_name, delta) in &report.pairs {
        let (Some(compiled_ns), Some(interp_ns)) = (
            read_median(&json, compiled_name),
            read_median(&json, interp_name),
        ) else {
            continue;
        };
        let speedup = interp_ns as f64 / compiled_ns as f64;
        println!(
            "{compiled_name} vs paired {interp_name}: medians {interp_ns} ns / {compiled_ns} ns = {speedup:.2}x, median pair delta {delta} ns"
        );
        // Parity within a 5% noise floor. On e13 the tabling machinery
        // dominates both lanes (Amdahl), so the compiled lane's true edge
        // is a few percent — the same order as within-run drift on a
        // shared box, and even the median of paired deltas crosses zero
        // on ~1 in 5 runs at a 1% floor. 5% is still far below any real
        // regression (an accidental fall-back to interpretation shows up
        // as tens of percent), and the *exact* work-counter assertions
        // below catch behavioural drift that wall clocks can't.
        let tolerance = interp_ns as i128 / 20;
        if *delta < -tolerance {
            eprintln!(
                "FAIL: {compiled_name} is slower than {interp_name} on the median interleaved pair"
            );
            failed = true;
        } else if speedup >= 1.3 {
            println!("OK: clears the 1.3x stretch target");
        } else {
            println!("OK: at parity or better (1.3x stretch target not yet met)");
        }
    }

    if let Some(bp) = baseline_path {
        failed |= baseline_sweep(&report, &json, &bp);
    }

    if failed {
        std::process::exit(1);
    }
}

/// Compare this run against a committed quickbench baseline. Returns
/// `true` if a gate failed.
///
/// The scenarios gated at 25% are the cold e8/e13 runs in each lane —
/// the tracked solver metrics, measured over full iteration counts.
/// Warm/batch medians are reported but not gated: their lower
/// iteration counts make a hard 25% bound flaky. `e17_gem_mesh` shares
/// the low batch iteration counts, so it gets a generous 3x guard
/// instead — loose enough for scheduler-batch noise, tight enough to
/// catch a catastrophic fixpoint regression (e.g. every SCC grinding to
/// the round limit).
fn baseline_sweep(report: &Report, json: &str, path: &str) -> bool {
    const GATED_25PCT: &[&str] = &[
        "e8_deep_chain_cold",
        "e13_tabled_cold",
        "e8_deep_chain_compiled",
        "e13_compiled_cold",
    ];
    const GATED_3X: &[&str] = &["e17_gem_mesh", "e18_serving"];
    let mut failed = false;
    let base =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
    for name in report.names() {
        let Some(base_ns) = read_median(&base, name) else {
            continue;
        };
        let new_ns = read_median(json, name).expect("own median");
        let ratio = new_ns as f64 / base_ns as f64;
        let budget = if GATED_25PCT.contains(&name) {
            Some(1.25)
        } else if GATED_3X.contains(&name) {
            Some(3.0)
        } else {
            None
        };
        println!(
            "{name} vs baseline: {new_ns} ns / {base_ns} ns = {ratio:.3}x{}",
            if budget.is_some() {
                ""
            } else {
                " (informational)"
            }
        );
        if let Some(budget) = budget {
            if ratio > budget {
                eprintln!("FAIL: {name} regressed >{budget:.2}x vs {path}");
                failed = true;
            }
        }
    }
    // Work counters are deterministic — assert them *exactly*.
    // Timing noise can't hide here: one extra resolution step or
    // heap cell against the committed baseline is a failure.
    let mut checked = 0;
    for (key, value) in &report.counters {
        let Some(base_value) = read_counter(&base, key) else {
            continue;
        };
        checked += 1;
        if *value != base_value {
            eprintln!("FAIL: counter {key} = {value}, baseline {path} says {base_value}");
            failed = true;
        }
    }
    println!("baseline sweep complete ({checked} counters matched exactly)");
    failed
}
