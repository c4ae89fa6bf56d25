//! Host-speed reference: a fixed CPU kernel timed at short intervals
//! through a run, so that times measured while the host runs slow can be
//! put on one scale with times measured while it runs fast.
//!
//! The shared 2-vCPU hosts this benchmark runs on change speed by up to
//! 1.4× in phases of seconds to minutes, for every process alike and
//! invisibly to the guest (thread CPU time slows with wall time; steal time
//! stays near 0). A whole 35 s run can fall in one phase, so medians inside
//! a run cannot remove it. The kernel below does the same work every time
//! and shares nothing with hive-rs, so its time tracks only the host: a
//! statement's latency times `NOMINAL_MS / (the kernel's local time)` is
//! its latency on a host running at the nominal speed.
//!
//! The kernel allocates, hashes, formats and sorts, as the engine does. An
//! L1-resident dependent-load loop was tried first: in slow phases the
//! engine slowed by up to 1.4× while that loop slowed by 1.2-1.3×, and over
//! ten 20 s runs of `tpcds_adhoc` it left set-up times 20% apart (IQR /
//! median) where this kernel left 13%.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum wall time between two kernel runs.
const TICK: Duration = Duration::from_millis(100);
/// Keys the kernel generates per run (about 2 ms).
const KEYS: u64 = 20_000;
/// Kernel runs on each side of a sample that make its local speed.
const HALF_WINDOW: usize = 5;
/// The kernel's time on the host at nominal speed: near the slow end of its
/// per-run medians on the 2-vCPU host the benchmark was tuned on (1.2-2.1
/// ms over forty 45 s runs), so normalised times read like that host's
/// slow-phase wall times. Only the scale of the normalised times depends
/// on it.
pub const NOMINAL_MS: f64 = 2.0;

pub struct HostClock {
    start: Instant,
    last: Option<Instant>,
    /// (seconds since start at the kernel's midpoint, kernel ms).
    refs: Vec<(f64, f64)>,
}

impl Default for HostClock {
    fn default() -> Self {
        HostClock {
            start: Instant::now(),
            last: None,
            refs: Vec::new(),
        }
    }
}

impl HostClock {
    /// Seconds since the clock started.
    pub fn now_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Run the kernel if [`TICK`] has passed since its last run. Called
    /// between timed calls, never inside one.
    pub fn tick(&mut self) {
        if self.last.is_some_and(|l| l.elapsed() < TICK) {
            return;
        }
        let t = Instant::now();
        black_box(kernel(black_box(KEYS)));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.refs
            .push(((t - self.start).as_secs_f64() + ms / 2e3, ms));
        self.last = Some(Instant::now());
    }

    /// The kernel's local time around `at_s`: the median of the
    /// [`HALF_WINDOW`] runs before and after it.
    pub fn local_ms(&self, at_s: f64) -> f64 {
        assert!(!self.refs.is_empty(), "the kernel ran");
        let i = self.refs.partition_point(|r| r.0 < at_s);
        let lo = i.saturating_sub(HALF_WINDOW);
        let hi = (i + HALF_WINDOW).min(self.refs.len());
        let (lo, hi) = if hi - lo < 2 * HALF_WINDOW {
            // At an end of the run: the nearest full window.
            let n = (2 * HALF_WINDOW).min(self.refs.len());
            if lo == 0 {
                (0, n)
            } else {
                (self.refs.len() - n, self.refs.len())
            }
        } else {
            (lo, hi)
        };
        let window: Vec<f64> = self.refs[lo..hi].iter().map(|r| r.1).collect();
        crate::stats::median(&window).expect("non-empty window")
    }

    /// Factor that puts a time measured around `at_s` on the nominal host.
    pub fn scale_at(&self, at_s: f64) -> f64 {
        NOMINAL_MS / self.local_ms(at_s)
    }

    /// Every kernel time of the run, in ms.
    pub fn kernel_ms(&self) -> Vec<f64> {
        self.refs.iter().map(|r| r.1).collect()
    }
}

/// Hash-map aggregation of xor-shift keys, a quarter of them formatted as
/// strings and sorted: the same work every run (the hasher has fixed keys).
fn kernel(keys: u64) -> u64 {
    let mut groups: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut names = Vec::new();
    let mut x = 7u64;
    for i in 0..keys {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *groups.entry(x % 5000).or_insert(0) += i;
        if i % 4 == 0 {
            names.push(x.to_string());
        }
    }
    names.sort();
    groups.len() as u64 + names.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock(refs: &[(f64, f64)]) -> HostClock {
        HostClock {
            refs: refs.to_vec(),
            ..HostClock::default()
        }
    }

    #[test]
    fn local_time_is_the_median_of_the_nearby_runs() {
        // Slow phase (2 ms) then fast phase (1 ms), one run per 0.1 s.
        let refs: Vec<(f64, f64)> = (0..40)
            .map(|i| (i as f64 * 0.1, if i < 20 { 2.0 } else { 1.0 }))
            .collect();
        let c = clock(&refs);
        assert_eq!(c.local_ms(0.5), 2.0);
        assert_eq!(c.local_ms(3.5), 1.0);
        assert_eq!(c.scale_at(3.5), NOMINAL_MS);
        // Ends of the run use the nearest full window.
        assert_eq!(c.local_ms(-1.0), 2.0);
        assert_eq!(c.local_ms(99.0), 1.0);
    }

    #[test]
    fn one_outlier_does_not_move_the_local_time() {
        let mut refs: Vec<(f64, f64)> = (0..20).map(|i| (i as f64 * 0.1, 1.0)).collect();
        refs[10].1 = 50.0;
        assert_eq!(clock(&refs).local_ms(1.0), 1.0);
    }

    #[test]
    fn tick_runs_the_kernel_at_most_once_per_interval() {
        let mut c = HostClock::default();
        c.tick();
        c.tick();
        assert_eq!(c.kernel_ms().len(), 1);
        assert!(c.kernel_ms()[0] > 0.0);
    }
}
