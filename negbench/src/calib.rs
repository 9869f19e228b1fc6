//! Same-run calibration against the host's drifting CPU rate.
//!
//! On a shared 2-vCPU VM (Intel Xeon, 2.0 GHz), the rate at
//! which one thread gets work done drifts by up to ±25% over seconds,
//! and whole runs differ by 40% with identical work. A fixed kernel that
//! stays outside the program (allocation, string keys, ordered-map
//! inserts, clones and sorting, like a negotiation's own mix) is timed
//! right before and after every measured chunk; the chunk's timings are
//! then reported at the kernel's reference speed. The kernel is the
//! benchmark's own code, so a change to the program never moves it.

use crate::workload::splitmix64;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Kernel rounds per second that count as speed 1.0 (the rate measured
/// on an idle core of a 2.0 GHz Intel Xeon VM).
const REFERENCE_ROUNDS_PER_S: f64 = 400.0;

/// How long each calibration sample runs.
const SAMPLE: Duration = Duration::from_millis(100);

/// One round: 4096 inserts under formatted keys into an ordered map (a
/// working set of a few hundred KiB, like a negotiation's), a clone, a
/// sort and a lookup pass. Of the kernels tried, this one tracked the
/// negotiation rate most closely between runs.
fn kernel_round(state: &mut u64) -> usize {
    let mut map: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for i in 0..4096u64 {
        let k = splitmix64(state) % 16384;
        map.entry(format!("peer{k}")).or_default().push(i);
    }
    let copy = map.clone();
    let mut keys: Vec<&String> = copy.keys().collect();
    keys.sort_by(|a, b| b.cmp(a));
    keys.iter().filter(|k| map.contains_key(k.as_str())).count()
}

/// Kernel speed now, relative to the reference (1.0 = reference speed).
fn sample() -> f64 {
    let mut state = 0x5eed;
    let start = Instant::now();
    let mut rounds = 0u64;
    while start.elapsed() < SAMPLE {
        std::hint::black_box(kernel_round(&mut state));
        rounds += 1;
    }
    rounds as f64 / start.elapsed().as_secs_f64() / REFERENCE_ROUNDS_PER_S
}

/// Samples taken between measured chunks; each chunk's speed is the mean
/// of the samples on either side of it.
pub struct Calibrator {
    last: f64,
    /// Every chunk's speed, in order, for the report.
    pub speeds: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            last: sample(),
            speeds: Vec::new(),
        }
    }

    /// The latest sample: the host speed a chunk about to start will see.
    pub fn current(&self) -> f64 {
        self.last
    }

    /// Run `chunk` and return its result with the host speed around it.
    pub fn measure<T>(&mut self, chunk: impl FnOnce() -> T) -> (T, f64) {
        let before = self.last;
        let out = chunk();
        self.last = sample();
        let speed = (before + self.last) / 2.0;
        self.speeds.push(speed);
        (out, speed)
    }
}
