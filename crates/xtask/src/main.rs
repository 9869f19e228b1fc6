//! Workspace automation (the cargo-xtask pattern: a plain binary crate,
//! no build dependencies).
//!
//! `cargo xtask verify` runs the exact step sequence of
//! `.github/workflows/ci.yml` — format, clippy, release build, tests,
//! docs, the experiments binary, the `negbench` build, and the
//! `e13_caching`/`e14_throughput` bench smokes — so the local
//! verification recipe and CI cannot drift: editing one means editing
//! [`STEPS`], which is what both consume.
//! `cargo xtask verify --threads` appends [`THREAD_STEPS`], the
//! concurrent-path smoke pass (shared-table stress, batch-scheduler
//! determinism, shared-cache concurrency). `cargo xtask verify --faults`
//! appends [`FAULT_STEPS`], the fault-injection/resilience pass
//! (conservation and byte-identity proptests, resilience differential
//! and convergence proptests, faulty-batch determinism).
//! `cargo xtask verify --compiled` appends [`COMPILED_STEPS`], the
//! compiled-KB differential lane (four-lane differential proptests —
//! body-compiled, heads-only, interpreter, reference — the
//! compile-module unit suite, and the gated two-lane quickbench).
//! `cargo xtask verify --gem` appends [`GEM_STEPS`], the distributed
//! tabling lane (GEM unit + session tests, the acyclic bit-identity and
//! cyclic-mesh differential proptests, and the GEM batch determinism
//! test). `cargo xtask verify --serve` appends [`SERVE_STEPS`], the
//! open-loop serving lane (serve unit suite with the cross-worker
//! determinism and admission-control tests, the sketch-merge algebra
//! proptests, and the gated `e18_serving` quickbench).
//!
//! `cargo xtask bench --quick` runs the quickbench harness's e8/e13
//! smoke scenarios in both the interpreted and compiled lanes, writes
//! `target/BENCH_PR8.json`, and fails on any of: a compiled cold
//! scenario slower than its same-run interpreted counterpart (the PR 8
//! parity gate), any cold scenario >25% over `BENCH_BASELINE.json`
//! (e17/e18 at 3x), or any deterministic work counter
//! (resolution steps, heap cells, body instructions, serving admission
//! decisions) differing from its baseline at all.

use std::process::Command;

/// One CI step: display name, cargo arguments, extra environment.
struct Step {
    name: &'static str,
    cargo_args: &'static [&'static str],
    env: &'static [(&'static str, &'static str)],
}

const fn step(
    name: &'static str,
    cargo_args: &'static [&'static str],
    env: &'static [(&'static str, &'static str)],
) -> Step {
    Step {
        name,
        cargo_args,
        env,
    }
}

/// The CI pipeline, in `.github/workflows/ci.yml` order.
const STEPS: &[Step] = &[
    step("format", &["fmt", "--check"], &[]),
    step(
        "clippy",
        &[
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ],
        &[],
    ),
    step("build (release)", &["build", "--release"], &[]),
    step("test", &["test", "-q"], &[]),
    step(
        "docs",
        &["doc", "--workspace", "--no-deps"],
        &[("RUSTDOCFLAGS", "-D warnings")],
    ),
    step(
        "experiments (writes target/metrics.json + target/timeline.jsonl + target/trace.json)",
        &[
            "run",
            "--release",
            "-p",
            "peertrust-bench",
            "--bin",
            "experiments",
        ],
        &[],
    ),
    step(
        "trace smoke (well-formed, deterministic causal traces)",
        &[
            "test",
            "-q",
            "-p",
            "peertrust-negotiation",
            "--test",
            "prop_trace",
        ],
        &[],
    ),
    step(
        "build negbench (end-to-end benchmark, a workspace of its own)",
        &[
            "build",
            "--release",
            "--offline",
            "--manifest-path",
            "negbench/Cargo.toml",
        ],
        &[],
    ),
    step(
        "quick bench (e8/e13 smoke, both lanes + baseline gates)",
        &[
            "run",
            "--release",
            "-p",
            "peertrust-bench",
            "--bin",
            "quickbench",
            "--",
            "--quick",
            "--out",
            "target/BENCH_PR8.json",
            "--baseline",
            "BENCH_BASELINE.json",
        ],
        &[],
    ),
    step(
        "bench smoke (e13_caching)",
        &[
            "bench",
            "-p",
            "peertrust-bench",
            "--bench",
            "e13_caching",
            "--",
            "--measurement-time",
            "1",
        ],
        &[],
    ),
    step(
        "bench smoke (e14_throughput)",
        &[
            "bench",
            "-p",
            "peertrust-bench",
            "--bench",
            "e14_throughput",
            "--",
            "--measurement-time",
            "1",
        ],
        &[],
    ),
    step(
        "bench smoke (e15_resilience)",
        &[
            "bench",
            "-p",
            "peertrust-bench",
            "--bench",
            "e15_resilience",
            "--",
            "--measurement-time",
            "1",
        ],
        &[],
    ),
    step(
        "bench smoke (e17_gem)",
        &[
            "bench",
            "-p",
            "peertrust-bench",
            "--bench",
            "e17_gem",
            "--",
            "--measurement-time",
            "1",
        ],
        &[],
    ),
    step(
        "bench smoke (e9_crypto)",
        &[
            "bench",
            "-p",
            "peertrust-bench",
            "--bench",
            "e9_crypto",
            "--",
            "--measurement-time",
            "1",
        ],
        &[],
    ),
];

/// Extra steps behind `cargo xtask verify --threads`: the concurrent-path
/// smoke pass — the 8-thread shared-table stress test, the batch
/// scheduler's determinism suite, and the shared-cache concurrency tests.
const THREAD_STEPS: &[Step] = &[
    step(
        "engine concurrent-table stress",
        &[
            "test",
            "-q",
            "-p",
            "peertrust-engine",
            "--test",
            "concurrent_table",
        ],
        &[],
    ),
    step(
        "batch scheduler determinism",
        &[
            "test",
            "-q",
            "-p",
            "peertrust-negotiation",
            "--lib",
            "scheduler::",
        ],
        &[],
    ),
    step(
        "shared remote-answer cache",
        &[
            "test",
            "-q",
            "-p",
            "peertrust-negotiation",
            "--lib",
            "answer_cache::tests::shared_cache",
        ],
        &[],
    ),
];

/// Extra steps behind `cargo xtask verify --faults`: the
/// fault-injection/resilience pass — the net-layer conservation and
/// byte-identity proptests, the resilience differential/convergence
/// proptests, and the faulty-batch determinism tests.
const FAULT_STEPS: &[Step] = &[
    step(
        "net fault-lane proptests (conservation, byte-identity)",
        &["test", "-q", "-p", "peertrust-net", "--test", "prop_faults"],
        &[],
    ),
    step(
        "net fault-lane unit tests",
        &["test", "-q", "-p", "peertrust-net", "--lib", "faults::"],
        &[],
    ),
    step(
        "resilience proptests (differential, convergence, crash-resume)",
        &[
            "test",
            "-q",
            "-p",
            "peertrust-negotiation",
            "--test",
            "prop_resilience",
        ],
        &[],
    ),
    step(
        "resilient session + faulty-batch tests",
        &[
            "test",
            "-q",
            "-p",
            "peertrust-negotiation",
            "--lib",
            "resilience::",
        ],
        &[],
    ),
    step(
        "faulty-batch determinism",
        &[
            "test",
            "-q",
            "-p",
            "peertrust-negotiation",
            "--lib",
            "scheduler::tests::faulty",
        ],
        &[],
    ),
];

/// Extra steps behind `cargo xtask verify --compiled`: the compiled-KB
/// differential lane — compiled-vs-reference/interpreter proptests
/// (solutions, proofs, tables, prefix fits), the compile module's unit
/// suite (indexing, staleness, head-match parity, body lowering,
/// authority dispatch), and the two-lane quickbench with the compiled
/// parity gate and exact work-counter checks. Mirrors the CI
/// `compiled-differential` job.
const COMPILED_STEPS: &[Step] = &[
    step(
        "compiled differential proptests (vs interpreter + reference)",
        &[
            "test",
            "-q",
            "-p",
            "peertrust-engine",
            "--test",
            "prop_compiled",
        ],
        &[],
    ),
    step(
        "compile module unit tests",
        &["test", "-q", "-p", "peertrust-engine", "--lib", "compile::"],
        &[],
    ),
    step(
        "two-lane quickbench (compiled parity gate)",
        &[
            "run",
            "--release",
            "-p",
            "peertrust-bench",
            "--bin",
            "quickbench",
            "--",
            "--quick",
            "--lane",
            "both",
            "--out",
            "target/BENCH_PR8.json",
            "--baseline",
            "BENCH_BASELINE.json",
        ],
        &[],
    ),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("verify") => verify(
            args.iter().any(|a| a == "--threads"),
            args.iter().any(|a| a == "--faults"),
            args.iter().any(|a| a == "--compiled"),
            args.iter().any(|a| a == "--gem"),
            args.iter().any(|a| a == "--serve"),
        ),
        Some("bench") => bench(args.iter().any(|a| a == "--quick")),
        _ => {
            eprintln!(
                "usage: cargo xtask <verify [--threads] [--faults] [--compiled] [--gem] [--serve] | bench [--quick]>"
            );
            std::process::exit(2);
        }
    }
}

/// Extra steps behind `cargo xtask verify --gem`: the distributed
/// tabling lane — the GEM table/SCC unit tests plus the session-level
/// mutual-recursion and cache-suppression tests (anything matching
/// `gem` in the negotiation lib suite), the acyclic bit-identity and
/// cyclic-mesh initiator-independence/fault-convergence proptests, and
/// the GEM batch determinism test across worker counts.
const GEM_STEPS: &[Step] = &[
    step(
        "gem tabling unit + session tests",
        &["test", "-q", "-p", "peertrust-negotiation", "--lib", "gem"],
        &[],
    ),
    step(
        "gem differential + mesh proptests",
        &[
            "test",
            "-q",
            "-p",
            "peertrust-scenarios",
            "--test",
            "prop_gem",
        ],
        &[],
    ),
    step(
        "gem mesh generator tests",
        &[
            "test",
            "-q",
            "-p",
            "peertrust-scenarios",
            "--lib",
            "delegation_mesh",
        ],
        &[],
    ),
];

/// Extra steps behind `cargo xtask verify --serve`: the open-loop
/// serving lane — the serve module's unit suite (overload shedding with
/// typed refusals, bit-identical decisions and metrics across runs and
/// worker counts, clone-free session startup, shared-cache warm-up),
/// the quantile-sketch merge-algebra proptests that the cross-worker
/// metric merge relies on, and the quickbench run whose `e18_serving`
/// scenario is gated at 3x against `BENCH_BASELINE.json` with
/// exact admission-decision counters. Mirrors the CI `serving` job.
const SERVE_STEPS: &[Step] = &[
    step(
        "open-loop serving unit tests",
        &[
            "test",
            "-q",
            "-p",
            "peertrust-negotiation",
            "--lib",
            "serve::",
        ],
        &[],
    ),
    step(
        "quantile-sketch merge proptests",
        &[
            "test",
            "-q",
            "-p",
            "peertrust-telemetry",
            "--test",
            "prop_sketch",
        ],
        &[],
    ),
    step(
        "serving quickbench (e18 gate + admission counters)",
        &[
            "run",
            "--release",
            "-p",
            "peertrust-bench",
            "--bin",
            "quickbench",
            "--",
            "--quick",
            "--out",
            "target/BENCH_PR10.json",
            "--baseline",
            "BENCH_BASELINE.json",
        ],
        &[],
    ),
];

/// Run the quickbench harness: e8 deep-chain + e13 tabling scenarios in
/// both lanes, `target/BENCH_PR8.json` artifact, and hard failures on
/// the same-run compiled parity gate, the per-scenario regression gates
/// against `BENCH_BASELINE.json`, and the exact work-counter check.
fn bench(quick: bool) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut cargo_args: Vec<&str> = vec![
        "run",
        "--release",
        "-p",
        "peertrust-bench",
        "--bin",
        "quickbench",
        "--",
        "--out",
        "target/BENCH_PR8.json",
        "--baseline",
        "BENCH_BASELINE.json",
    ];
    if quick {
        cargo_args.push("--quick");
    }
    println!("== xtask bench{} ==", if quick { " --quick" } else { "" });
    let status = Command::new(&cargo)
        .args(&cargo_args)
        .status()
        .unwrap_or_else(|e| {
            eprintln!("xtask bench: failed to spawn cargo: {e}");
            std::process::exit(1);
        });
    if !status.success() {
        eprintln!("xtask bench: quickbench failed (regression or error)");
        std::process::exit(status.code().unwrap_or(1));
    }
    println!("xtask bench: wrote target/BENCH_PR8.json");
}

fn verify(threads: bool, faults: bool, compiled: bool, gem: bool, serve: bool) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut steps: Vec<&Step> = STEPS.iter().collect();
    if threads {
        steps.extend(THREAD_STEPS.iter());
    }
    if faults {
        steps.extend(FAULT_STEPS.iter());
    }
    if compiled {
        steps.extend(COMPILED_STEPS.iter());
    }
    if gem {
        steps.extend(GEM_STEPS.iter());
    }
    if serve {
        steps.extend(SERVE_STEPS.iter());
    }
    for s in steps {
        println!("== xtask verify: {} ==", s.name);
        let mut cmd = Command::new(&cargo);
        cmd.args(s.cargo_args);
        for (k, v) in s.env {
            cmd.env(k, v);
        }
        let status = cmd.status().unwrap_or_else(|e| {
            eprintln!("xtask verify: failed to spawn cargo for '{}': {e}", s.name);
            std::process::exit(1);
        });
        if !status.success() {
            eprintln!("xtask verify: step '{}' failed", s.name);
            std::process::exit(status.code().unwrap_or(1));
        }
    }
    println!("xtask verify: all steps passed");
}
