//! A reference kernel that never changes: fixed work in the benchmark's own
//! files, timed beside every round to tell how fast the machine is running
//! at that moment.
//!
//! The sandbox's speed moves by a fifth for seconds or minutes at a time
//! with what its neighbours do (see the README), far more than any bound a
//! regression gate could use. The kernel below mixes what the program's
//! hot path mixes — small allocations, hashing, a mutex, reference counts,
//! byte copies — so the neighbours slow both alike, and the ratio of a
//! round's time to the kernel's time beside it stays put when the machine's
//! speed does not.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Seconds [`run`] takes on the box the workloads were sized on, in its
/// usual state. Host-time metrics are scaled to this speed.
pub const NOMINAL_S: f64 = 0.0375;

/// Iterations of one probe.
const ITERATIONS: u64 = 800_000;

/// Runs the kernel once and returns the seconds it took.
pub fn run() -> f64 {
    let t0 = Instant::now();
    // `DefaultHasher::new()` has fixed keys: the same buckets on every run.
    let mut map: HashMap<u64, Vec<u8>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let tally = Mutex::new(0u64);
    let shared = Arc::new([1u8; 64]);
    let mut sum = 0u64;
    for i in 0..ITERATIONS {
        let key = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 54;
        let value = vec![i as u8; 16 + (key as usize % 200)];
        if let Some(old) = map.insert(key, value) {
            sum += u64::from(old[0]);
        }
        let held = Arc::clone(&shared);
        *tally.lock().expect("nothing panics holding it") += u64::from(held[0]) + sum;
        if i % 3 == 0 {
            map.remove(&(key ^ 1));
        }
    }
    black_box((sum, tally));
    t0.elapsed().as_secs_f64()
}

/// Host seconds of a stretch of work, as measured and as scaled to the
/// reference speed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Lap {
    pub raw_s: f64,
    pub scaled_s: f64,
}

/// Times work between probes. Between [`Stopwatch::start`] and
/// [`Stopwatch::stop`] the clock runs; [`Stopwatch::split`] pauses it for a
/// probe, so that no stretch of work is further than a split from the probes
/// that scale it.
pub struct Stopwatch {
    /// The probe that ended the last stretch, and when: back-to-back
    /// stretches share it.
    last: Option<(Instant, f64)>,
    before: f64,
    running_since: Instant,
    sum: Lap,
    /// Every probe time taken, for the `info` lines.
    pub probes: Vec<f64>,
}

/// A probe older than this says nothing about the machine now.
const FRESH: std::time::Duration = std::time::Duration::from_millis(5);

impl Default for Stopwatch {
    fn default() -> Stopwatch {
        Stopwatch {
            last: None,
            before: NOMINAL_S,
            running_since: Instant::now(),
            sum: Lap::default(),
            probes: Vec::new(),
        }
    }
}

impl Stopwatch {
    fn probe(&mut self) -> f64 {
        let p = run();
        self.probes.push(p);
        self.last = Some((Instant::now(), p));
        p
    }

    /// Starts the clock, after a probe unless one has just been taken.
    pub fn start(&mut self) {
        self.before = match self.last {
            Some((at, p)) if at.elapsed() < FRESH => p,
            _ => self.probe(),
        };
        self.sum = Lap::default();
        self.running_since = Instant::now();
    }

    /// Closes the stretch of work since the last start or split with a
    /// probe, and goes on timing.
    pub fn split(&mut self) {
        let raw = self.running_since.elapsed().as_secs_f64();
        let (before, after) = (self.before, self.probe());
        self.sum.raw_s += raw;
        self.sum.scaled_s += raw * NOMINAL_S * 2.0 / (before + after);
        self.before = after;
        self.running_since = Instant::now();
    }

    /// Stops the clock and returns what the work since `start` took.
    pub fn stop(&mut self) -> Lap {
        self.split();
        self.sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lap_is_scaled_by_the_probes_beside_it() {
        let mut sw = Stopwatch::default();
        sw.start();
        std::thread::sleep(std::time::Duration::from_millis(20));
        sw.split();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let lap = sw.stop();
        assert_eq!(sw.probes.len(), 3, "one probe per boundary");
        assert!(
            lap.raw_s >= 0.040 && lap.raw_s < 0.2,
            "probes are not timed"
        );
        // Each stretch is scaled by its own two probes.
        let (lo, hi) = sw
            .probes
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &p| (lo.min(p), hi.max(p)));
        assert!(lap.scaled_s >= lap.raw_s * NOMINAL_S / hi * 0.999);
        assert!(lap.scaled_s <= lap.raw_s * NOMINAL_S / lo * 1.001);

        // Straight after a stop, the next start shares its probe.
        sw.start();
        assert_eq!(sw.probes.len(), 3);
    }
}
