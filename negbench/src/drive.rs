//! Load generation: one job through the public API, a closed loop, and an
//! open loop with Poisson arrivals.
//!
//! The open loop has no generator thread. One worker, the calling thread,
//! takes the next arrival, waits until it is due, runs it, and records its
//! latency from the due time, so a stall shows as lateness of every later
//! request. It busy-waits on the clock, without a pause hint: on a shared
//! 2-vCPU VM (Intel Xeon, 2.0 GHz), a worker that slept or spun on the
//! pause instruction ran its next negotiation markedly slower than a busy
//! one, which made latency measure the hypervisor instead of the
//! negotiation.

use crate::calib::Calibrator;
use crate::stats::{mean, quantile};
use crate::workload::{splitmix64, Workload};
use peertrust_negotiation::{
    negotiate_shared_cached, NegotiationOutcome, PeerMap, SessionConfig, SharedRemoteAnswerCache,
};
use peertrust_net::{NegotiationId, SimNetwork};
use peertrust_telemetry::Telemetry;
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Per-job record kept by every load loop.
#[derive(Clone, Copy)]
pub struct Sample {
    /// The verdict matched ground truth.
    pub ok: bool,
    pub messages: u64,
    pub bytes: u64,
    pub ticks: u64,
}

impl Sample {
    pub fn of(outcome: &NegotiationOutcome, grant: bool) -> Sample {
        Sample {
            ok: outcome.success == grant,
            messages: outcome.messages,
            bytes: outcome.bytes,
            ticks: outcome.elapsed_ticks,
        }
    }
}

struct Claims {
    next: usize,
    scope: usize,
    cache: SharedRemoteAnswerCache,
}

/// Runs jobs of one workload, on one thread. Job indices are handed out
/// in increasing order together with the answer cache of the job's
/// scope, so a cache is never used by a job outside its scope.
pub struct Runner<'w> {
    pub w: &'w Workload,
    pub cfg: SessionConfig,
    pub net_seed: u64,
    claims: RefCell<Claims>,
}

impl<'w> Runner<'w> {
    pub fn new(w: &'w Workload, net_seed: u64) -> Runner<'w> {
        Runner {
            w,
            cfg: SessionConfig {
                gem: true,
                ..SessionConfig::default()
            },
            net_seed,
            claims: RefCell::new(Claims {
                next: 0,
                scope: w.cache_scope(0),
                cache: SharedRemoteAnswerCache::new(),
            }),
        }
    }

    /// The next job index and the answer cache it must use.
    pub fn claim(&self) -> (usize, SharedRemoteAnswerCache) {
        let mut c = self.claims.borrow_mut();
        let j = c.next;
        c.next += 1;
        let scope = self.w.cache_scope(j);
        if scope != c.scope {
            c.scope = scope;
            c.cache = SharedRemoteAnswerCache::new();
        }
        (j, c.cache.clone())
    }

    /// A copy-on-write snapshot of job `j`'s frozen peer map.
    pub fn snapshot(&self, j: usize) -> PeerMap {
        self.w.maps[self.w.job(j).map].clone()
    }

    /// Negotiate job `j` on `peers`, a snapshot of its peer map.
    pub fn negotiate(
        &self,
        j: usize,
        peers: &mut PeerMap,
        cache: &SharedRemoteAnswerCache,
        net: &mut SimNetwork,
        telemetry: &Telemetry,
    ) -> NegotiationOutcome {
        let job = self.w.job(j);
        negotiate_shared_cached(
            peers,
            net,
            self.cfg.clone(),
            NegotiationId(j as u64 + 1),
            job.requester,
            job.responder,
            job.goal.clone(),
            cache,
            telemetry,
        )
    }

    /// Claim and run the next job.
    pub fn run_next(&self, telemetry: &Telemetry) -> Sample {
        let (j, cache) = self.claim();
        let mut net = SimNetwork::for_job(self.net_seed, j);
        let mut peers = self.snapshot(j);
        let outcome = self.negotiate(j, &mut peers, &cache, &mut net, telemetry);
        Sample::of(&outcome, self.w.job(j).grant)
    }

    /// Run `n` jobs untimed with tracing off, to fill caches before
    /// measuring.
    pub fn warm_up(&self, n: usize) -> Vec<Sample> {
        (0..n)
            .map(|_| self.run_next(&Telemetry::disabled()))
            .collect()
    }
}

/// Closed loop on the calling thread for `dur`.
pub struct Closed {
    /// Negotiations completed per second.
    pub rate: f64,
    pub samples: Vec<Sample>,
}

pub fn closed_loop(r: &Runner, dur: Duration, telemetry: &Telemetry) -> Closed {
    let start = Instant::now();
    let mut samples = Vec::new();
    while start.elapsed() < dur {
        samples.push(r.run_next(telemetry));
    }
    Closed {
        rate: samples.len() as f64 / start.elapsed().as_secs_f64(),
        samples,
    }
}

/// Seeded Poisson arrival offsets at `rate` per second over `dur`.
fn poisson(rate: f64, dur: Duration, seed: u64) -> Vec<Duration> {
    let mut state = seed;
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        t += -(1.0 - u).ln() / rate;
        if t >= dur.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// What one open-loop run at a fixed rate measured.
pub struct OpenLoop {
    pub rate: f64,
    pub offered: usize,
    /// Arrivals never started: the run stops taking requests `dur / 4`
    /// after the end of its arrival window.
    pub unserved: usize,
    /// Latency from due time to completion, ms, sorted.
    pub latency_ms: Vec<f64>,
    /// How late a worker started each request after it was due, ms, sorted.
    pub late_ms: Vec<f64>,
    /// Mean due-but-unstarted requests seen when taking each request, in
    /// the first and the last quarter of the arrival window.
    pub backlog_first: f64,
    pub backlog_last: f64,
    pub samples: Vec<Sample>,
}

impl OpenLoop {
    /// Queue growth: requests were left unserved, or the backlog of the
    /// last quarter exceeds twice the first quarter's by more than the
    /// arrivals of `limit_ms`, which alone would keep a request waiting
    /// about that long. A smaller margin (2 requests) flagged windows at
    /// 60% load whenever a host stall fell in their last quarter.
    pub fn growing(&self, limit_ms: f64) -> bool {
        self.unserved > 0
            || self.backlog_last > 2.0 * self.backlog_first + self.rate * limit_ms / 1e3
    }

    pub fn p99_ms(&self) -> f64 {
        quantile(&self.latency_ms, 0.99)
    }
}

struct Arrived {
    due: Duration,
    start: Duration,
    end: Duration,
    backlog: usize,
    sample: Sample,
}

pub fn open_loop(r: &Runner, rate: f64, dur: Duration, seed: u64) -> OpenLoop {
    let arrivals = poisson(rate, dur, seed);
    let stop_taking = dur + dur / 4;
    let mut arrived: Vec<Arrived> = Vec::with_capacity(arrivals.len());
    let t0 = Instant::now();
    for (k, &due) in arrivals.iter().enumerate() {
        let now = t0.elapsed();
        if now > stop_taking {
            break;
        }
        let backlog = arrivals.partition_point(|a| *a <= now).saturating_sub(k);
        while t0.elapsed() < due {}
        let start = t0.elapsed();
        let sample = r.run_next(&Telemetry::disabled());
        arrived.push(Arrived {
            due,
            start,
            end: t0.elapsed(),
            backlog,
            sample,
        });
    }

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut latency_ms: Vec<f64> = arrived.iter().map(|a| ms(a.end - a.due)).collect();
    let mut late_ms: Vec<f64> = arrived
        .iter()
        .map(|a| ms(a.start.saturating_sub(a.due)))
        .collect();
    latency_ms.sort_by(f64::total_cmp);
    late_ms.sort_by(f64::total_cmp);
    let quarter = dur / 4;
    let backlog_in = |lo: Duration, hi: Duration| {
        let b: Vec<f64> = arrived
            .iter()
            .filter(|a| a.due >= lo && a.due < hi)
            .map(|a| a.backlog as f64)
            .collect();
        mean(&b)
    };
    OpenLoop {
        rate,
        offered: arrivals.len(),
        unserved: arrivals.len() - arrived.len(),
        latency_ms,
        late_ms,
        backlog_first: backlog_in(Duration::ZERO, quarter),
        backlog_last: backlog_in(dur - quarter, dur),
        samples: arrived.iter().map(|a| a.sample).collect(),
    }
}

/// A workload's fixed rate ladder and latency limit, both at reference
/// speed (see `calib`).
pub struct Ladder {
    /// Ascending offered rates, negotiations per second.
    pub rates: Vec<f64>,
    /// p99 latency limit, ms.
    pub limit_ms: f64,
}

impl Ladder {
    /// `count` rungs `step` apart geometrically, from `lowest`.
    pub fn geometric(lowest: f64, step: f64, count: usize, limit_ms: f64) -> Ladder {
        Ladder {
            rates: (0..count).map(|k| lowest * step.powi(k as i32)).collect(),
            limit_ms,
        }
    }

    /// Rungs a bisection runs: the bit length of the rung count. With
    /// `2^n - 1` rungs every bisection runs exactly `n`.
    pub fn probes(&self) -> usize {
        (usize::BITS - self.rates.len().leading_zeros()) as usize
    }
}

/// Windows per rung: a rung holds when most of its windows do, so one
/// host stall cannot decide it.
pub const RUNG_WINDOWS: usize = 3;

/// One rung: its reference-speed rate and its windows, each with the
/// host speed around it.
pub struct Rung {
    pub rate: f64,
    pub windows: Vec<(OpenLoop, f64)>,
    pub held: bool,
}

/// Run an open-loop window at `rate` (reference speed), offering it
/// scaled to the host's current speed so the load relative to the host
/// stays the same as it drifts. Returns the run and the host speed.
pub fn calibrated_window(
    r: &Runner,
    rate: f64,
    dur: Duration,
    seed: u64,
    cal: &mut Calibrator,
) -> (OpenLoop, f64) {
    let offered = rate * cal.current();
    cal.measure(|| open_loop(r, offered, dur, seed))
}

/// Bisect the whole ladder for its highest holding rung, running
/// `ladder.probes()` rungs of `RUNG_WINDOWS` windows of `window` each. A
/// window holds when its p99 at reference speed is within the limit and
/// its backlog does not grow. Returns the highest rung that was run and
/// held, or `None` when no rung held down to rung 0, and every rung run.
pub fn bisect_ladder(
    r: &Runner,
    ladder: &Ladder,
    window: Duration,
    seed: u64,
    cal: &mut Calibrator,
) -> (Option<f64>, Vec<Rung>) {
    let mut rungs: Vec<Rung> = Vec::new();
    // Every rung at or below `held` holds and every rung at or above
    // `failed` fails, as far as the rungs run so far tell.
    let (mut held, mut failed) = (None, ladder.rates.len());
    loop {
        let lo = held.map_or(0, |k| k + 1);
        if lo >= failed {
            break;
        }
        let k = (lo + failed) / 2;
        let windows: Vec<(OpenLoop, f64)> = (0..RUNG_WINDOWS)
            .map(|i| {
                let seed = seed ^ (k * RUNG_WINDOWS + i) as u64;
                calibrated_window(r, ladder.rates[k], window, seed, cal)
            })
            .collect();
        let holding = windows
            .iter()
            .filter(|(run, speed)| {
                !run.growing(ladder.limit_ms) && run.p99_ms() * speed <= ladder.limit_ms
            })
            .count();
        let ok = 2 * holding > RUNG_WINDOWS;
        rungs.push(Rung {
            rate: ladder.rates[k],
            windows,
            held: ok,
        });
        if ok {
            held = Some(k);
        } else {
            failed = k;
        }
    }
    (held.map(|k| ladder.rates[k]), rungs)
}
