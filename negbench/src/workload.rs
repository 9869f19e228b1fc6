//! The three seeded workloads and their ground truth.
//!
//! Every workload is a list of peer maps (frozen and compiled at set-up)
//! plus a seeded job stream over them. The load loops cycle through the
//! stream; job `j` runs `jobs[j % jobs.len()]`, and `cache_scope(j)`
//! names the cross-session answer cache it may use, so a cache never
//! outlives the peer map it was filled from.

use peertrust_core::{Literal, PeerId, Term};
use peertrust_negotiation::{BatchJob, NegotiationPeer, PeerMap};
use peertrust_scenarios::{
    delegation_chain, random_policies, serving_workload, RandomPolicyConfig,
};
use std::time::{Duration, Instant};

/// zipf_hot: clients (each its own peer behind a release chain).
const ZIPF_CLIENTS: usize = 256;
/// zipf_hot: release-chain depth per client.
const ZIPF_DEPTH: usize = 4;
/// zipf_hot: Zipf exponent of client popularity.
const ZIPF_S: f64 = 1.1;
/// zipf_hot: length of the sampled job stream.
const ZIPF_JOBS: usize = 8192;
/// deep_chain: delegation depth (authorities A0..A16).
const CHAIN_DEPTH: usize = 16;
/// deep_chain: subjects. Job `j` asks for subject `j % SUBJECTS` and its
/// cache lives for `SUBJECTS` consecutive jobs, so no lookup ever hits.
const CHAIN_SUBJECTS: usize = 16;
/// deep_chain: levels of the verifier's local role hierarchy.
const ROLE_LEVELS: usize = 48;
/// deny_mix: distinct `random_policies` instances, one peer map each.
const DENY_INSTANCES: usize = 1000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ZipfHot,
    DeepChain,
    DenyMix,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::ZipfHot, Kind::DeepChain, Kind::DenyMix];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::ZipfHot => "zipf_hot",
            Kind::DeepChain => "deep_chain",
            Kind::DenyMix => "deny_mix",
        }
    }
}

/// One negotiation request with its expected verdict.
pub struct Job {
    pub map: usize,
    pub requester: PeerId,
    pub responder: PeerId,
    pub goal: Literal,
    /// Ground truth: must the negotiation grant?
    pub grant: bool,
}

/// Wall time of each set-up phase, plus the size of what was built.
#[derive(Clone, Copy, Default)]
pub struct SetupCost {
    pub load: Duration,
    pub freeze: Duration,
    pub compile: Duration,
    /// Rules across every peer's knowledge base after loading.
    pub kb_rules: usize,
}

impl SetupCost {
    pub fn total(&self) -> Duration {
        self.load + self.freeze + self.compile
    }
}

pub struct Workload {
    pub kind: Kind,
    pub maps: Vec<PeerMap>,
    pub jobs: Vec<Job>,
    /// Jobs to run before measuring: caches filled, lazy set-up done.
    pub warm_up: usize,
    pub setup: SetupCost,
}

impl Workload {
    /// Load, freeze and compile the workload's peers for `seed`.
    pub fn build(kind: Kind, seed: u64) -> Workload {
        let start = Instant::now();
        let (mut maps, jobs, warm_up) = match kind {
            Kind::ZipfHot => zipf_hot(seed),
            Kind::DeepChain => {
                let (maps, jobs) = deep_chain(seed);
                (maps, jobs, 4 * CHAIN_SUBJECTS)
            }
            Kind::DenyMix => {
                let (maps, jobs) = deny_mix(seed);
                (maps, jobs, DENY_INSTANCES)
            }
        };
        let load = start.elapsed();
        let kb_rules = maps
            .iter()
            .flat_map(|m| m.ids().into_iter().map(move |id| (m, id)))
            .map(|(m, id)| m.get(id).map_or(0, |p| p.kb.len()))
            .sum();

        let start = Instant::now();
        for map in &mut maps {
            map.freeze();
        }
        let freeze = start.elapsed();

        let start = Instant::now();
        for map in &mut maps {
            for id in map.ids() {
                map.get_mut(id)
                    .expect("id listed by the map")
                    .compile_policies();
            }
        }
        let compile = start.elapsed();

        Workload {
            kind,
            maps,
            jobs,
            warm_up,
            setup: SetupCost {
                load,
                freeze,
                compile,
                kb_rules,
            },
        }
    }

    pub fn job(&self, j: usize) -> &Job {
        &self.jobs[j % self.jobs.len()]
    }

    /// Jobs with the same scope share one cross-session answer cache.
    pub fn cache_scope(&self, j: usize) -> usize {
        match self.kind {
            // One map, grants only: the cache lives for the whole run.
            Kind::ZipfHot => 0,
            // A fresh cache per pass over the subjects: within a pass every
            // subject is distinct, so the cache is consulted but never hits.
            Kind::DeepChain => j / CHAIN_SUBJECTS,
            // Instances reuse peer and predicate names, so a cache shared
            // across them would serve one instance's answers to another.
            Kind::DenyMix => j,
        }
    }
}

/// splitmix64: the benchmark's only source of randomness besides the
/// generators' own seeds.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The sampled Zipf stream, led by one job per client it contains (in
/// order of first appearance). The warm-up runs that prefix and more, so
/// measurement sees a server whose cache has met every client, as a
/// long-running one has; otherwise the few first visits of rare clients
/// during measurement sit right at the p99 of latency.
fn zipf_hot(seed: u64) -> (Vec<PeerMap>, Vec<Job>, usize) {
    let w = serving_workload(ZIPF_CLIENTS, ZIPF_DEPTH, ZIPF_JOBS, ZIPF_S, seed);
    let mut prefix: Vec<&BatchJob> = Vec::new();
    for j in &w.jobs {
        if !prefix.iter().any(|p| p.goal == j.goal) {
            prefix.push(j);
        }
    }
    let warm_up = prefix.len() + 768;
    let jobs = prefix
        .into_iter()
        .chain(&w.jobs)
        .map(|j| Job {
            map: 0,
            requester: j.requester,
            responder: j.responder,
            goal: j.goal.clone(),
            grant: true,
        })
        .collect();
    (vec![w.peers], jobs, warm_up)
}

/// `delegation_chain(16)`, extended with more subjects (each issued by
/// the leaf authority) and a verifier resource that also needs a local
/// role-hierarchy derivation `ROLE_LEVELS` deep.
fn deep_chain(seed: u64) -> (Vec<PeerMap>, Vec<Job>) {
    let mut w = delegation_chain(CHAIN_DEPTH);
    let leaf = format!("A{CHAIN_DEPTH}");
    let subjects: Vec<String> = std::iter::once(w.requester.to_string())
        .chain((1..CHAIN_SUBJECTS).map(|s| format!("Subject{s}")))
        .collect();

    let mut roles = String::from("access(X) $ true <- attr(X) @ \"A0\" @ X, role0(X).\n");
    for level in 0..ROLE_LEVELS {
        roles.push_str(&format!("role{level}(X) <- role{}(X).\n", level + 1));
    }
    roles.push_str(&format!("role{ROLE_LEVELS}(X) <- registered(X).\n"));
    for s in &subjects {
        roles.push_str(&format!("registered(\"{s}\").\n"));
    }
    w.peers
        .get_mut(w.responder)
        .expect("verifier exists")
        .load_program(&roles)
        .expect("role hierarchy parses");

    for s in subjects.iter().skip(1) {
        w.peers
            .get_mut(PeerId::new(&leaf))
            .expect("leaf authority exists")
            .load_program(&format!(r#"attr("{s}") @ "{leaf}" signedBy ["{leaf}"]."#))
            .expect("issuance record parses");
        let mut subject = NegotiationPeer::new(s.as_str(), w.registry.clone());
        subject
            .load_program(&format!(
                r#"
                attr("{s}") @ "{leaf}" signedBy ["{leaf}"].
                attr(X) @ Y $ true <-_true attr(X) @ Y.
                "#
            ))
            .expect("subject program parses");
        w.peers.insert(subject);
    }

    // Seeded subject order; one pass visits every subject exactly once.
    let mut order: Vec<usize> = (0..CHAIN_SUBJECTS).collect();
    let mut state = seed;
    for i in (1..order.len()).rev() {
        let k = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, k);
    }
    let jobs = order
        .into_iter()
        .map(|s| Job {
            map: 0,
            requester: PeerId::new(&subjects[s]),
            responder: w.responder,
            goal: Literal::new("access", vec![Term::str(subjects[s].as_str())]),
            grant: true,
        })
        .collect();
    (vec![w.peers], jobs)
}

/// One `random_policies` instance per job: 8–16 credentials per side,
/// cycles allowed, ground truth from the generator's unlock fixpoint.
fn deny_mix(seed: u64) -> (Vec<PeerMap>, Vec<Job>) {
    let mut state = seed;
    (0..DENY_INSTANCES)
        .map(|i| {
            let w = random_policies(RandomPolicyConfig {
                creds_per_side: 8 + (splitmix64(&mut state) % 9) as usize,
                allow_cycles: true,
                seed: splitmix64(&mut state),
                ..RandomPolicyConfig::default()
            });
            let job = Job {
                map: i,
                requester: w.requester,
                responder: w.responder,
                goal: w.goal,
                grant: w.satisfiable,
            };
            (w.peers, job)
        })
        .unzip()
}
