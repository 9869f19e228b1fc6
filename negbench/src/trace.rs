//! The traced run: per-layer metrics.
//!
//! Spans are the benchmark's own: it times its calls into each layer's
//! public functions, and reads the counters the program exports through
//! `Telemetry`. Layers the session calls internally (answer verification,
//! local solving, signature checks) and the codec are measured by
//! replaying the same public call on every message the traced negotiation
//! sent, as recorded by `SimNetwork::with_trace`, against the peers' state
//! when the message arrived.
//!
//! Every count-valued metric comes from a fixed number of jobs on one
//! thread, and the traced pass runs twice: the counts must repeat exactly.

use crate::drive::{closed_loop, open_loop, Runner, Sample};
use crate::stats::{mean, median, metric, quantile, Metric};
use crate::workload::{Kind, Workload};
use crate::{profile, set_up, Tally};
use bytes::BytesMut;
use peertrust_core::{Literal, PeerId};
use peertrust_crypto::verify_signed_rule;
use peertrust_engine::Solver;
use peertrust_negotiation::{
    serve_open_loop, verify_safe_sequence, BatchJob, DisclosedItem, Evidence, NegotiationOutcome,
    PeerMap, ServeConfig, SharedRemoteAnswerCache,
};
use peertrust_net::{decode_frame, encode_frame, Message, Payload, SimNetwork};
use peertrust_telemetry::{NoopRecorder, Telemetry};
use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

/// Payload kinds a negotiation sends, as `Payload::kind` names them.
const PAYLOAD_KINDS: [&str; 7] = [
    "query",
    "answers",
    "push",
    "failure",
    "gem-query",
    "gem-answers",
    "gem-complete",
];

/// Engine counters read from the telemetry registry, with the metric
/// name each one is reported under (per negotiation).
const ENGINE_COUNTERS: [(&str, &str); 7] = [
    ("engine.steps", "engine.steps_per_neg"),
    ("engine.unify_attempts", "engine.unify_attempts_per_neg"),
    ("engine.compiled.dispatches", "engine.dispatches_per_neg"),
    ("engine.loop_prunes", "engine.loop_prunes_per_neg"),
    ("engine.trail.binds", "engine.trail_binds_per_neg"),
    ("engine.heap.cells", "engine.heap_cells_per_neg"),
    ("engine.depth_cutoffs", "engine.depth_cutoffs_per_neg"),
];

/// Jobs in the small traced pass over each other workload, for the
/// cross-workload layer-profile checks.
const PROBE_JOBS: usize = 48;

/// Wall time of the benchmark's own calls, summed over a pass.
#[derive(Default)]
struct Timers {
    snapshot: Duration,
    negotiate: Duration,
    verify_rebuild: Duration,
    verify_prove: Duration,
    engine_replay: Duration,
    crypto: Duration,
    encode: Duration,
    decode: Duration,
}

/// One traced pass: deterministic counts plus wall-clock timers.
struct Pass {
    jobs: usize,
    /// Count-valued metrics; two passes must agree exactly.
    counts: BTreeMap<String, f64>,
    timers: Timers,
    /// `PeerMap::clone` of a frozen map, timed back to back away from
    /// any negotiation, µs per clone.
    snapshot_warm_us: f64,
    samples: Vec<Sample>,
    /// Problems found by the pass's own checks.
    problems: Vec<String>,
}

impl Pass {
    fn per_neg(&self, d: Duration) -> f64 {
        d.as_secs_f64() * 1e6 / self.jobs as f64
    }

    fn count(&self, name: &str) -> f64 {
        self.counts[name]
    }

    /// Mean µs per call of a replay timer, over the calls a per-negotiation
    /// count adds up to.
    fn per_call(&self, d: Duration, per_neg_count: &str) -> f64 {
        us(d) / (self.count(per_neg_count) * self.jobs as f64).max(1.0)
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Replay the layer calls behind every message `net` carried, in
/// delivery order, against a copy of the job's pristine peer map that
/// receives each credential push as it is delivered, so every call sees
/// the peer's state at the time the message arrived.
fn replay(base: &PeerMap, net: &SimNetwork, t: &mut Timers, c: &mut BTreeMap<&str, u64>) {
    let mut state = base.clone();
    let mut events: Vec<_> = net.trace().iter().collect();
    events.sort_by_key(|ev| ev.delivered_at);
    for ev in events {
        let msg = &ev.message;
        replay_codec(msg, t, c);
        *c.entry(msg.payload.kind()).or_default() += 1;
        let Some(peer) = state.get_mut(msg.to) else {
            continue;
        };
        match &msg.payload {
            Payload::Query { goal, .. } => {
                let start = Instant::now();
                let mut solver = Solver::new(&peer.kb, msg.to)
                    .with_config(peer.config.engine)
                    .with_compiled_opt(peer.compiled());
                std::hint::black_box(solver.solve(std::slice::from_ref(goal)));
                t.engine_replay += start.elapsed();
                *c.entry("replay_steps").or_default() += solver.stats().steps;
            }
            Payload::Answers { goal, answers, .. } => {
                // The requester re-derives third-party answers from signed
                // material; answers certified by their sender are taken on
                // message authentication alone.
                let self_certified =
                    goal.authority.is_empty() || goal.eval_peer() == Some(msg.from);
                if self_certified || !peer.config.verify_answers {
                    continue;
                }
                let start = Instant::now();
                let kb = peer.signed_only_kb();
                t.verify_rebuild += start.elapsed();
                *c.entry("verify_rebuilds").or_default() += 1;
                *c.entry("verify_kb_rules").or_default() += kb.len() as u64;
                let start = Instant::now();
                for a in answers {
                    let mut solver = Solver::new(&kb, msg.to).with_config(peer.config.engine);
                    std::hint::black_box(solver.provable(std::slice::from_ref(a)));
                }
                t.verify_prove += start.elapsed();
                *c.entry("verify_answers").or_default() += answers.len() as u64;
            }
            Payload::CredentialPush { rules } => {
                for sr in rules {
                    let start = Instant::now();
                    let ok = verify_signed_rule(&peer.registry, sr).is_ok();
                    t.crypto += start.elapsed();
                    *c.entry("crypto_verifies").or_default() += 1;
                    if !ok {
                        *c.entry("crypto_rejects").or_default() += 1;
                    } else {
                        // Untimed: keeps the replayed state in step.
                        let _ = peer.receive_signed(sr.clone(), msg.from);
                    }
                }
            }
            _ => {}
        }
    }
}

fn replay_codec(msg: &Message, t: &mut Timers, c: &mut BTreeMap<&str, u64>) {
    let start = Instant::now();
    let frame = encode_frame(msg).expect("a negotiation message fits one frame");
    t.encode += start.elapsed();
    let mut buf = BytesMut::from(&frame[..]);
    let start = Instant::now();
    let decoded = decode_frame(&mut buf);
    t.decode += start.elapsed();
    if decoded.as_ref().ok() != Some(msg) {
        *c.entry("codec_mismatches").or_default() += 1;
    }
    let max = c.entry("max_msg_bytes").or_default();
    *max = (*max).max(msg.encoded_size() as u64);
}

/// Answers delivered on the wire so far within one cache scope, as
/// `(responder, requester, answer)`: the shape of the cache's own key.
struct ScopeAnswers {
    scope: usize,
    seen: HashSet<(PeerId, PeerId, Literal)>,
}

impl ScopeAnswers {
    fn new() -> ScopeAnswers {
        ScopeAnswers {
            scope: usize::MAX,
            seen: HashSet::new(),
        }
    }

    /// Start job `j`: forget the answers of an earlier scope.
    fn enter(&mut self, w: &Workload, j: usize) {
        let scope = w.cache_scope(j);
        if scope != self.scope {
            self.scope = scope;
            self.seen.clear();
        }
    }

    fn record(&mut self, net: &SimNetwork) {
        for ev in net.trace() {
            let m = &ev.message;
            if let Payload::Answers { answers, .. } = &m.payload {
                for a in answers {
                    self.seen.insert((m.from, m.to, a.clone()));
                }
            }
        }
    }
}

enum Safety {
    Safe,
    /// Every violation is a `ReceivedAnswer` that was not disclosed
    /// earlier in this sequence nor sent on this job's wire, but was
    /// delivered from the same responder to the same requester in an
    /// earlier job of the same cache scope: it reached the discloser
    /// through the cross-session cache. A known gap in the program's
    /// disclosure record, counted in `session.cached_evidence_ratio`.
    /// Holds the number of violations excused.
    CachedEvidence(usize),
    Violated(String),
}

/// Run `verify_safe_sequence` on a grant and classify what it found.
/// `seen` holds the answers of the earlier jobs in this job's scope.
fn safety(
    outcome: &NegotiationOutcome,
    net: &SimNetwork,
    used_cache: bool,
    seen: &ScopeAnswers,
) -> Safety {
    let Err(violations) = verify_safe_sequence(outcome) else {
        return Safety::Safe;
    };
    let on_wire = |from: PeerId, to: PeerId, answer: &Literal| {
        net.trace().iter().any(|ev| {
            let m = &ev.message;
            m.from == from
                && m.to == to
                && matches!(&m.payload, Payload::Answers { answers, .. } if answers.contains(answer))
        })
    };
    // The disclosures citing a cache-served answer, once per such answer.
    // The availability test is `verify_safe_sequence`'s own, so each entry
    // stands for one violation it reported at that disclosure.
    let mut excusable: Vec<usize> = Vec::new();
    if used_cache {
        for d in &outcome.disclosures {
            for e in &d.evidence {
                let Evidence::ReceivedAnswer { from, answer } = e else {
                    continue;
                };
                let disclosed = outcome.disclosures[..d.seq].iter().any(|x| {
                    x.to == d.from
                        && x.from == *from
                        && matches!(&x.item, DisclosedItem::Answer(a) if a == answer)
                });
                if !disclosed
                    && !on_wire(*from, d.from, answer)
                    && seen.seen.contains(&(*from, d.from, answer.clone()))
                {
                    excusable.push(d.seq);
                }
            }
        }
    }
    let mut excused = 0;
    for v in &violations {
        match excusable.iter().position(|seq| *seq == v.seq) {
            Some(i) => {
                excusable.swap_remove(i);
                excused += 1;
            }
            None => return Safety::Violated(v.description.clone()),
        }
    }
    Safety::CachedEvidence(excused)
}

/// Run `warm_up` jobs with telemetry off, then `jobs` traced ones, on one
/// thread. Every job's wire is logged, so the answers a cache serves can
/// be traced back to the earlier job that delivered them.
fn traced_pass(w: &Workload, seed: u64, warm_up: usize, jobs: usize) -> Pass {
    let r = Runner::new(w, seed);
    let mut seen = ScopeAnswers::new();
    let mut samples = Vec::new();
    for _ in 0..warm_up {
        let (j, cache) = r.claim();
        seen.enter(w, j);
        let mut net = SimNetwork::for_job(seed, j).with_trace();
        let mut peers = r.snapshot(j);
        let outcome = r.negotiate(j, &mut peers, &cache, &mut net, &Telemetry::disabled());
        samples.push(Sample::of(&outcome, w.job(j).grant));
        seen.record(&net);
    }
    let tele = Telemetry::with_recorder(Box::new(NoopRecorder));
    let mut t = Timers::default();
    let mut c: BTreeMap<&str, u64> = BTreeMap::new();
    let mut problems = Vec::new();
    let m = tele.metrics().expect("telemetry is enabled");
    let (mut queries, mut refusals, mut disclosures, mut messages, mut bytes) = (0, 0, 0, 0, 0);
    let (mut grants, mut cross_hits) = (0u64, 0u64);
    let mut ticks = Vec::with_capacity(jobs);
    for _ in 0..jobs {
        let (j, cache) = r.claim();
        seen.enter(w, j);
        let start = Instant::now();
        let mut peers = r.snapshot(j);
        t.snapshot += start.elapsed();
        let mut net = SimNetwork::for_job(seed, j).with_trace();
        let start = Instant::now();
        let outcome = r.negotiate(j, &mut peers, &cache, &mut net, &tele);
        t.negotiate += start.elapsed();

        let sample = Sample::of(&outcome, w.job(j).grant);
        if !sample.ok {
            problems.push(format!("job {j}: verdict differs from ground truth"));
        }
        let hits = m.counter("negotiation.cache.cross_hits");
        if outcome.success {
            *c.entry("checked_grants").or_default() += 1;
            match safety(&outcome, &net, hits > cross_hits, &seen) {
                Safety::Safe => {}
                Safety::CachedEvidence(excused) => {
                    *c.entry("cached_evidence_grants").or_default() += 1;
                    *c.entry("excused_violations").or_default() += excused as u64;
                }
                Safety::Violated(v) => problems.push(format!("job {j}: unsafe sequence: {v}")),
            }
        }
        cross_hits = hits;
        seen.record(&net);
        samples.push(sample);
        queries += outcome.queries;
        refusals += outcome.refusals.len() as u64;
        disclosures += outcome.disclosures.len() as u64;
        messages += outcome.messages;
        bytes += outcome.bytes;
        grants += outcome.success as u64;
        ticks.push(outcome.elapsed_ticks as f64);
        replay(&r.snapshot(j), &net, &mut t, &mut c);
    }
    if c.get("codec_mismatches").copied().unwrap_or(0) > 0 {
        problems.push("a message did not survive encode_frame/decode_frame".into());
    }
    if c.get("crypto_rejects").copied().unwrap_or(0) > 0 {
        problems.push("a pushed rule failed signature verification".into());
    }

    let n = jobs as f64;
    let get = |k: &str| c.get(k).copied().unwrap_or(0) as f64;
    let mut counts = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        counts.insert(k.to_string(), v);
    };
    put("session.queries_per_neg", queries as f64 / n);
    put("session.refusals_per_neg", refusals as f64 / n);
    put("session.disclosures_per_neg", disclosures as f64 / n);
    put("session.msgs_per_neg", messages as f64 / n);
    put("session.bytes_per_neg", bytes as f64 / n);
    put(
        "session.cached_evidence_ratio",
        get("cached_evidence_grants") / (grants as f64).max(1.0),
    );
    put("session.checked_grants", get("checked_grants"));
    put(
        "session.cached_evidence_grants",
        get("cached_evidence_grants"),
    );
    put("session.excused_violations", get("excused_violations"));
    put("verify.rebuilds_per_neg", get("verify_rebuilds") / n);
    put("verify.answers_per_neg", get("verify_answers") / n);
    put(
        "verify.kb_rules",
        get("verify_kb_rules") / get("verify_rebuilds").max(1.0),
    );
    for (counter, name) in ENGINE_COUNTERS {
        put(name, m.counter(counter) as f64 / n);
    }
    let solutions = m.histogram("engine.solutions").map_or(0, |h| h.sum);
    put("engine.solutions_per_neg", solutions as f64 / n);
    put("engine.replay_steps_per_neg", get("replay_steps") / n);
    put("crypto.verifies_per_neg", get("crypto_verifies") / n);
    put("net.max_msg_bytes", get("max_msg_bytes"));
    for kind in PAYLOAD_KINDS {
        put(&format!("net.payload.{kind}_per_neg"), get(kind) / n);
    }
    let cross = m.counter("negotiation.cache.cross_hits") as f64;
    let misses = m.counter("negotiation.cache.misses") as f64;
    put(
        "cache.cross_hit_ratio",
        if cross + misses > 0.0 {
            cross / (cross + misses)
        } else {
            0.0
        },
    );
    put(
        "cache.session_hits_per_neg",
        m.counter("negotiation.cache.session_hits") as f64 / n,
    );
    put(
        "cache.inserts_per_neg",
        m.counter("negotiation.cache.inserts") as f64 / n,
    );
    put(
        "gem.sccs_per_neg",
        m.counter("negotiation.gem.sccs") as f64 / n,
    );
    put(
        "gem.rounds_per_neg",
        m.counter("negotiation.gem.rounds") as f64 / n,
    );
    put(
        "gem.answers_per_neg",
        m.counter("negotiation.gem.answers") as f64 / n,
    );

    // One `serve_open_loop` call over the same job stream. It takes one
    // peer map, so deny_mix serves its stream against instance 0.
    ticks.sort_by(f64::total_cmp);
    let servers = 4;
    let cfg = ServeConfig {
        // About 90% virtual utilisation at the pass's median service time.
        mean_interarrival_ticks: quantile(&ticks, 0.5).max(1.0) / servers as f64 / 0.9,
        servers,
        arrival_seed: seed,
        net_seed: seed,
        session: r.cfg.clone(),
        // `serve_open_loop` holds one cache for the whole stream; that
        // matches the cache scope of zipf_hot only. The other workloads'
        // caches never hit, so they serve without one.
        shared_cache: (w.kind == Kind::ZipfHot).then(SharedRemoteAnswerCache::new),
        ..ServeConfig::default()
    };
    let stream: Vec<BatchJob> = (0..jobs)
        .map(|j| {
            let job = w.job(if w.kind == Kind::DenyMix { 0 } else { j });
            BatchJob::new(job.requester, job.responder, job.goal.clone())
        })
        .collect();
    let report = serve_open_loop(&w.maps[0], &stream, &cfg, &Telemetry::disabled());
    for (i, (outcome, failure)) in report.outcomes.iter().zip(&report.failures).enumerate() {
        if failure.is_none() {
            let job = w.job(if w.kind == Kind::DenyMix { 0 } else { i });
            samples.push(Sample::of(outcome, job.grant));
        }
    }
    let s = &report.stats;
    put("serve.virtual_latency_p99_ticks", s.latency.p99 as f64);
    put(
        "serve.virtual_shed_ratio",
        (s.shed_queue_full + s.shed_deadline) as f64 / s.offered.max(1) as f64,
    );

    let map = &w.maps[w.job(0).map];
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..50 {
                std::hint::black_box(map.clone());
            }
            us(start.elapsed()) / 50.0
        })
        .collect();

    Pass {
        jobs,
        counts,
        snapshot_warm_us: median(&batches),
        timers: t,
        samples,
        problems,
    }
}

/// The layer-profile self-check: each workload must still stress what
/// README.md says it stresses.
fn profile_checks(profiles: &[(Kind, &Pass)]) -> Vec<String> {
    let mut problems = Vec::new();
    let get = |kind: Kind, name: &str| {
        profiles
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, p)| p.count(name))
            .expect("every workload is profiled")
    };
    // Ranked by the clone's own cost: in the job loop the first clone
    // after a negotiation also pays for cache misses left by that
    // negotiation, which are largest on deep_chain.
    let snapshot = |kind: Kind| {
        let p = profiles
            .iter()
            .find(|(k, _)| *k == kind)
            .expect("profiled")
            .1;
        p.snapshot_warm_us
    };
    if get(Kind::ZipfHot, "cache.cross_hit_ratio") <= 0.0 {
        problems.push("cache.cross_hit_ratio is 0 on zipf_hot".into());
    }
    if get(Kind::DeepChain, "cache.cross_hit_ratio") != 0.0 {
        problems.push("cache.cross_hit_ratio is not 0 on deep_chain".into());
    }
    for kind in Kind::ALL {
        let sccs = get(kind, "gem.sccs_per_neg");
        if (sccs > 0.0) != (kind == Kind::DenyMix) {
            problems.push(format!("gem.sccs_per_neg is {sccs} on {}", kind.name()));
        }
    }
    let steps = |k| get(k, "engine.steps_per_neg");
    if steps(Kind::DeepChain) <= steps(Kind::ZipfHot)
        || steps(Kind::DeepChain) <= steps(Kind::DenyMix)
    {
        problems.push("engine.steps_per_neg is not highest on deep_chain".into());
    }
    if snapshot(Kind::ZipfHot) <= snapshot(Kind::DeepChain)
        || snapshot(Kind::ZipfHot) <= snapshot(Kind::DenyMix)
    {
        problems.push("session.snapshot_warm_us is not largest on zipf_hot".into());
    }
    problems
}

/// Traced and untraced closed-loop slices, alternating: traced
/// throughput over untraced.
fn telemetry_overhead(w: &Workload, seed: u64, dur: Duration, tally: &mut Tally) -> f64 {
    let (plain, traced) = (Runner::new(w, seed), Runner::new(w, seed));
    let tele = Telemetry::with_recorder(Box::new(NoopRecorder));
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let rounds = 3;
    let slice = dur / (2 * rounds);
    for _ in 0..rounds {
        for (r, t, rates) in [
            (&plain, &Telemetry::disabled(), &mut a),
            (&traced, &tele, &mut b),
        ] {
            let c = closed_loop(r, slice, t);
            tally.add(&c.samples);
            rates.push(c.rate);
        }
    }
    median(&b) / median(&a)
}

/// The traced run for `kind`: every per-layer metric, and whether the
/// self-checks passed.
pub fn traced(kind: Kind, seed: u64, seconds: u64, tally: &mut Tally) -> (Vec<Metric>, bool) {
    let p = profile(kind);
    let (w, setup) = set_up(kind, seed);
    let total = Duration::from_secs(seconds);

    let first = traced_pass(&w, seed, w.warm_up, p.traced_jobs);
    let second = traced_pass(&w, seed, w.warm_up, p.traced_jobs);
    tally.add(&first.samples);
    tally.add(&second.samples);
    let mut problems: Vec<String> = first.problems.clone();
    for (name, v) in &first.counts {
        if second.counts.get(name) != Some(v) {
            problems.push(format!(
                "{name} did not repeat: {v} then {:?}",
                second.counts.get(name)
            ));
        }
    }

    let probes: Vec<(Kind, Pass)> = Kind::ALL
        .into_iter()
        .filter(|k| *k != kind)
        .map(|k| {
            let pw = Workload::build(k, seed);
            (k, traced_pass(&pw, seed, pw.warm_up, PROBE_JOBS))
        })
        .collect();
    for (_, probe) in &probes {
        tally.add(&probe.samples);
        problems.extend(probe.problems.iter().cloned());
    }
    let mut profiles: Vec<(Kind, &Pass)> = probes.iter().map(|(k, p)| (*k, p)).collect();
    profiles.push((kind, &first));
    problems.extend(profile_checks(&profiles));

    let overhead = telemetry_overhead(&w, seed, total.mul_f64(0.2), tally);
    let r = Runner::new(&w, seed);
    tally.add(&r.warm_up(w.warm_up));
    let serve = open_loop(&r, p.nominal_rate, total.mul_f64(0.25), seed ^ 0x6e6f6d);
    tally.add(&serve.samples);
    tally.attempted += serve.unserved;
    tally.failed += serve.unserved;

    let f = &first;
    let t = &f.timers;
    // The session calls verification, local solving and signature checks;
    // the simulated network hands messages over without the codec.
    let children = t.verify_rebuild + t.verify_prove + t.engine_replay + t.crypto;
    let mut metrics = vec![
        metric("session.snapshot_us", "us", f.per_neg(t.snapshot)),
        metric("session.snapshot_warm_us", "us", f.snapshot_warm_us),
        metric("session.negotiate_us", "us", f.per_neg(t.negotiate)),
        metric(
            "session.self_us",
            "us",
            f.per_neg(t.negotiate) - f.per_neg(children),
        ),
        metric(
            "session.queries_per_neg",
            "count",
            f.count("session.queries_per_neg"),
        ),
        metric(
            "session.refusals_per_neg",
            "count",
            f.count("session.refusals_per_neg"),
        ),
        metric(
            "session.disclosures_per_neg",
            "count",
            f.count("session.disclosures_per_neg"),
        ),
        metric(
            "session.cached_evidence_ratio",
            "ratio",
            f.count("session.cached_evidence_ratio"),
        ),
        metric(
            "verify.rebuild_us_per_neg",
            "us",
            f.per_neg(t.verify_rebuild),
        ),
        metric("verify.prove_us_per_neg", "us", f.per_neg(t.verify_prove)),
        metric(
            "verify.rebuilds_per_neg",
            "count",
            f.count("verify.rebuilds_per_neg"),
        ),
        metric("verify.kb_rules", "count", f.count("verify.kb_rules")),
    ];
    for (_, name) in ENGINE_COUNTERS {
        metrics.push(metric(name, "count", f.count(name)));
    }
    metrics.extend([
        metric(
            "engine.solutions_per_neg",
            "count",
            f.count("engine.solutions_per_neg"),
        ),
        metric("engine.replay_us_per_neg", "us", f.per_neg(t.engine_replay)),
        metric(
            "engine.us_per_step",
            "us",
            f.per_call(t.engine_replay, "engine.replay_steps_per_neg"),
        ),
        metric(
            "crypto.verifies_per_neg",
            "count",
            f.count("crypto.verifies_per_neg"),
        ),
        metric(
            "crypto.verify_us",
            "us",
            f.per_call(t.crypto, "crypto.verifies_per_neg"),
        ),
        metric(
            "net.encode_us_per_msg",
            "us",
            f.per_call(t.encode, "session.msgs_per_neg"),
        ),
        metric(
            "net.decode_us_per_msg",
            "us",
            f.per_call(t.decode, "session.msgs_per_neg"),
        ),
        metric("net.max_msg_bytes", "bytes", f.count("net.max_msg_bytes")),
    ]);
    for kind in PAYLOAD_KINDS {
        let name = format!("net.payload.{kind}_per_neg");
        metrics.push(metric(&name, "count", f.count(&name)));
    }
    for name in [
        "cache.cross_hit_ratio",
        "cache.session_hits_per_neg",
        "cache.inserts_per_neg",
        "gem.sccs_per_neg",
        "gem.rounds_per_neg",
        "gem.answers_per_neg",
    ] {
        let unit = if name.ends_with("ratio") {
            "ratio"
        } else {
            "count"
        };
        metrics.push(metric(name, unit, f.count(name)));
    }
    metrics.extend([
        metric("serve.wait_ms_p99", "ms", quantile(&serve.late_ms, 0.99)),
        metric("serve.lag_ms", "ms", mean(&serve.late_ms)),
        metric(
            "serve.virtual_latency_p99_ticks",
            "ticks",
            f.count("serve.virtual_latency_p99_ticks"),
        ),
        metric(
            "serve.virtual_shed_ratio",
            "ratio",
            f.count("serve.virtual_shed_ratio"),
        ),
        metric("setup.load_ms", "ms", setup.load.as_secs_f64() * 1e3),
        metric("setup.freeze_ms", "ms", setup.freeze.as_secs_f64() * 1e3),
        metric("setup.compile_ms", "ms", setup.compile.as_secs_f64() * 1e3),
        metric("setup.kb_rules", "count", setup.kb_rules as f64),
        metric("telemetry.overhead_ratio", "ratio", overhead),
    ]);

    println!("workload {} seed {seed} (traced)", kind.name());
    println!(
        "  two traced passes of {} jobs after {} warm-up jobs; probes of {PROBE_JOBS} jobs on the other workloads",
        p.traced_jobs, w.warm_up
    );
    println!(
        "  verify_safe_sequence on {} grants: {} violations excused in {} grants, each a cache-served answer first delivered in an earlier job of the same cache scope",
        f.count("session.checked_grants"),
        f.count("session.excused_violations"),
        f.count("session.cached_evidence_grants"),
    );
    for (k, probe) in &probes {
        println!(
            "  probe {:<10} engine.steps_per_neg {:.1}  session.snapshot_warm_us {:.2}  cache.cross_hit_ratio {:.4}  gem.sccs_per_neg {:.3}",
            k.name(),
            probe.count("engine.steps_per_neg"),
            probe.snapshot_warm_us,
            probe.count("cache.cross_hit_ratio"),
            probe.count("gem.sccs_per_neg"),
        );
    }
    for problem in &problems {
        println!("  CHECK FAILED: {problem}");
    }
    if problems.is_empty() {
        println!(
            "  self-checks passed: verdicts, safe sequences, count determinism, layer profile"
        );
    }
    (metrics, problems.is_empty())
}
