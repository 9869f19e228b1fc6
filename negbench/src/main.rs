//! End-to-end negotiation benchmark.
//!
//! ```text
//! negbench --workload <zipf_hot|deep_chain|deny_mix|all> --seed <n>
//!          --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off;
//! with `--trace 1` it makes the traced run that gives per-layer metrics.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is 1 when a verdict
//! differs from ground truth, a nominal-rate request goes unserved, no
//! rung of the rate ladder holds or a self-check fails, and 2 on bad
//! arguments. See README.md.

mod calib;
mod drive;
mod stats;
mod trace;
mod workload;

use calib::Calibrator;
use drive::{
    bisect_ladder, calibrated_window, closed_loop, Ladder, OpenLoop, Runner, Sample, RUNG_WINDOWS,
};
use peertrust_telemetry::Telemetry;
use stats::{median, metric, peak_rss_mb, quantile, result_json, Metric};
use std::time::{Duration, Instant};
use workload::{Kind, SetupCost, Workload};

/// Fixed per-workload load parameters.
pub struct Profile {
    /// Open-loop rate for `lat_p50_ms` / `lat_p99_ms`, per second.
    pub nominal_rate: f64,
    pub ladder: Ladder,
    /// Jobs in each traced pass.
    pub traced_jobs: usize,
}

/// Rungs of every ladder, 5% apart: a 20.6x span, so a bisection runs 6
/// rungs. Each ladder's middle rung sits near the workload's capacity at
/// reference speed, with room for a 4.5x change either way.
const LADDER_RUNGS: usize = 63;

pub fn profile(kind: Kind) -> Profile {
    match kind {
        Kind::ZipfHot => Profile {
            nominal_rate: 300.0,
            ladder: Ladder::geometric(160.0, 1.05, LADDER_RUNGS, 50.0),
            traced_jobs: 600,
        },
        Kind::DeepChain => Profile {
            nominal_rate: 120.0,
            ladder: Ladder::geometric(90.0, 1.05, LADDER_RUNGS, 100.0),
            traced_jobs: 160,
        },
        Kind::DenyMix => Profile {
            nominal_rate: 1000.0,
            ladder: Ladder::geometric(680.0, 1.05, LADDER_RUNGS, 20.0),
            traced_jobs: 800,
        },
    }
}

struct Args {
    /// `None` for `--workload all`.
    workload: Option<Kind>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(None),
            "--workload" => {
                let kind = Kind::parse(&value).ok_or(format!("unknown workload {value}"))?;
                workload = Some(Some(kind));
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(
                    value
                        .parse::<u8>()
                        .ok()
                        .filter(|t| *t <= 1)
                        .ok_or("bad --trace")?
                        == 1,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Build the workload at least five times (and for at least 400 ms, up
/// to 25 builds). Returns the last build and the median of each phase.
pub fn set_up(kind: Kind, seed: u64) -> (Workload, SetupCost) {
    let start = Instant::now();
    let mut costs = Vec::new();
    loop {
        // Each build is dropped before the next, so peak memory holds one.
        let w = Workload::build(kind, seed);
        costs.push(w.setup);
        if costs.len() >= 5 && (costs.len() >= 25 || start.elapsed() >= Duration::from_millis(400))
        {
            let med = |f: fn(&SetupCost) -> Duration| {
                let v: Vec<f64> = costs.iter().map(|c| f(c).as_secs_f64()).collect();
                Duration::from_secs_f64(median(&v))
            };
            let cost = SetupCost {
                load: med(|c| c.load),
                freeze: med(|c| c.freeze),
                compile: med(|c| c.compile),
                kb_rules: w.setup.kb_rules,
            };
            return (w, cost);
        }
    }
}

/// Verdict accounting over every job the run executed.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
}

impl Tally {
    pub fn add(&mut self, samples: &[Sample]) {
        self.attempted += samples.len();
        self.failed += samples.iter().filter(|s| !s.ok).count();
    }
}

fn print_run(label: &str, run: &OpenLoop, speed: f64, limit_ms: f64, verdict: &str) {
    println!(
        "  {label} {:>8.1}/s  offered {:>6}  served {:>6}  speed {speed:.3}  late p50 {:.3} ms p99 {:.3} ms  backlog {:.2} -> {:.2}  {}",
        run.rate,
        run.offered,
        run.latency_ms.len(),
        quantile(&run.late_ms, 0.5),
        quantile(&run.late_ms, 0.99),
        run.backlog_first,
        run.backlog_last,
        if run.growing(limit_ms) {
            "OVERLOADED".to_string()
        } else {
            format!(
                "p50 {:.3} ms  p99 {:.3} ms  {verdict}",
                quantile(&run.latency_ms, 0.5),
                run.p99_ms()
            )
        }
    );
}

/// Closed-loop slices and open-loop windows at the nominal rate, each
/// timed between two calibration samples.
const SLICES: usize = 12;
const WINDOWS: usize = 12;

/// The untraced run: every end-to-end metric, at reference speed.
fn end_to_end(kind: Kind, seed: u64, seconds: u64, tally: &mut Tally) -> Vec<Metric> {
    let p = profile(kind);
    let total = Duration::from_secs(seconds);
    let mut cal = Calibrator::new();
    let ((w, setup), setup_speed) = cal.measure(|| set_up(kind, seed));
    let r = Runner::new(&w, seed);
    tally.add(&r.warm_up(w.warm_up));

    println!("workload {} seed {seed}", kind.name());
    println!(
        "  setup {:.3} ms (load {:.3} / freeze {:.3} / compile {:.3}), {} rules, speed {setup_speed:.3}",
        setup.total().as_secs_f64() * 1e3,
        setup.load.as_secs_f64() * 1e3,
        setup.freeze.as_secs_f64() * 1e3,
        setup.compile.as_secs_f64() * 1e3,
        setup.kb_rules
    );

    let mut rates = Vec::new();
    let mut closed = Vec::new();
    for _ in 0..SLICES {
        let (c, speed) = cal.measure(|| {
            closed_loop(
                &r,
                total.mul_f64(0.15) / SLICES as u32,
                &Telemetry::disabled(),
            )
        });
        println!("  closed slice {:>8.1}/s  speed {speed:.3}", c.rate);
        rates.push(c.rate / speed);
        tally.add(&c.samples);
        closed.extend(c.samples);
    }

    // `lat_p99_ms` is the median of the windows' p99s: the p99 of a
    // typical window, which one host stall cannot set. Pooled over the
    // run, it swung by a quarter between runs on a shared 2-vCPU VM;
    // the median over windows by half as much.
    let mut latency = Vec::new();
    let mut window_p99 = Vec::new();
    for i in 0..WINDOWS {
        let dur = total.mul_f64(0.45) / WINDOWS as u32;
        let seed = seed ^ (0x6e6f6d + i as u64);
        let (run, speed) = calibrated_window(&r, p.nominal_rate, dur, seed, &mut cal);
        print_run("nominal", &run, speed, p.ladder.limit_ms, "");
        latency.extend(run.latency_ms.iter().map(|l| l * speed));
        window_p99.push(run.p99_ms() * speed);
        tally.add(&run.samples);
        // An unserved request at the nominal rate is a failed negotiation.
        tally.attempted += run.unserved;
        tally.failed += run.unserved;
    }
    latency.sort_by(f64::total_cmp);
    let lat_p99 = median(&window_p99);
    println!(
        "  nominal {}/s: {} samples, reference-speed p50 {:.3} ms, pooled p99 {:.3} ms, median window p99 {lat_p99:.3} ms",
        p.nominal_rate,
        latency.len(),
        quantile(&latency, 0.5),
        quantile(&latency, 0.99),
    );

    println!(
        "  rate ladder (reference-speed p99 limit {} ms):",
        p.ladder.limit_ms
    );
    let window = total.mul_f64(0.4) / (RUNG_WINDOWS * p.ladder.probes()) as u32;
    let (max_rate, rungs) = bisect_ladder(&r, &p.ladder, window, seed ^ 0x6c6164, &mut cal);
    for g in &rungs {
        for (run, speed) in &g.windows {
            let within = run.p99_ms() * speed <= p.ladder.limit_ms;
            print_run(
                "rung   ",
                run,
                *speed,
                p.ladder.limit_ms,
                if within { "within limit" } else { "over limit" },
            );
            tally.add(&run.samples);
        }
        println!(
            "  rung {:.1}/s at reference speed {}",
            g.rate,
            if g.held { "holds" } else { "fails" }
        );
    }
    match max_rate {
        None => println!(
            "  no rung held down to the lowest ({:.1}/s): max_rate_nps has no value and the run fails",
            p.ladder.rates[0]
        ),
        Some(rate) if Some(&rate) == p.ladder.rates.last() => {
            println!("  the top rung held: max_rate_nps is capped at the top of the ladder")
        }
        Some(_) => {}
    }

    let n = closed.len().max(1) as f64;
    let mut ticks: Vec<f64> = closed.iter().map(|s| s.ticks as f64).collect();
    ticks.sort_by(f64::total_cmp);
    vec![
        metric("neg_per_s", "1/s", median(&rates)),
        metric("lat_p50_ms", "ms", quantile(&latency, 0.5)),
        metric("lat_p99_ms", "ms", lat_p99),
        // Not finite, and so a failed run, when no rung held.
        metric("max_rate_nps", "1/s", max_rate.unwrap_or(f64::NAN)),
        metric("setup_s", "s", setup.total().as_secs_f64() * setup_speed),
        metric("peak_rss_mb", "MiB", peak_rss_mb()),
        metric(
            "msgs_per_neg",
            "count",
            closed.iter().map(|s| s.messages as f64).sum::<f64>() / n,
        ),
        metric(
            "wire_kb_per_neg",
            "KiB",
            closed.iter().map(|s| s.bytes as f64).sum::<f64>() / n / 1024.0,
        ),
        metric("net_ticks_p99", "ticks", quantile(&ticks, 0.99)),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let Some(kind) = args.workload else {
        // Each workload in a process of its own, so `peak_rss_mb` (the
        // process's high-water mark) is that workload's alone.
        let mut all_ok = true;
        for kind in Kind::ALL {
            let status = std::process::Command::new(
                std::env::current_exe().expect("the benchmark's own path"),
            )
            .args(["--workload", kind.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("the benchmark can run itself");
            all_ok &= status.success();
        }
        std::process::exit(if all_ok { 0 } else { 1 });
    };
    let mut tally = Tally::default();
    let (metrics, checks_ok) = if args.trace {
        trace::traced(kind, args.seed, args.seconds, &mut tally)
    } else {
        (end_to_end(kind, args.seed, args.seconds, &mut tally), true)
    };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = tally.failed == 0 && checks_ok && finite;
    println!(
        "  fail_ratio {:?} ({} of {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    for m in &metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_json(correct, tally.attempted, tally.failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
