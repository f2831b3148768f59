//! Machine-speed scaling of the untraced run's timings.
//!
//! The shared build machines this benchmark runs on change speed by tens of
//! percent over seconds to minutes, as neighbours come and go. The untraced
//! run therefore times a fixed reference kernel next to its work and scales
//! each timing by `REFERENCE_NS / kernel time`: a timing reads as the wall
//! time it would take on a machine where the kernel takes [`REFERENCE_NS`].
//! The kernel is the benchmark's own code — ordered-map inserts, vector
//! clones and small allocations, the operations the protocol stacks spend
//! their time on — so no change to the program under test moves it. The raw
//! wall times are printed alongside.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel wall time at which scaled timings equal raw wall time.
pub const REFERENCE_NS: f64 = 1_000_000.0;

/// Tracks the machine's speed through the run.
#[derive(Debug)]
pub struct Speed {
    period: Duration,
    measured: Option<(Instant, u64)>,
    kernels: Vec<f64>,
}

impl Default for Speed {
    /// Re-times the kernel at most every 25 ms.
    fn default() -> Self {
        Speed::with_period(Duration::from_millis(25))
    }
}

impl Speed {
    /// Re-times the kernel when its last timing is older than `period`.
    pub fn with_period(period: Duration) -> Self {
        Speed {
            period,
            measured: None,
            kernels: Vec::new(),
        }
    }

    /// The current scaling factor, `REFERENCE_NS / kernel time`, timing the
    /// kernel afresh when the last timing is older than the period.
    pub fn factor(&mut self) -> f64 {
        let kernel = match self.measured {
            Some((at, ns)) if at.elapsed() < self.period => ns,
            _ => {
                let ns = kernel_ns();
                self.kernels.push(ns as f64 / 1e6);
                self.measured = Some((Instant::now(), ns));
                ns
            }
        };
        REFERENCE_NS / kernel as f64
    }

    /// Every kernel time measured, in milliseconds.
    pub fn kernels_ms(&self) -> &[f64] {
        &self.kernels
    }
}

/// Wall nanoseconds of the faster of two runs of the reference kernel.
fn kernel_ns() -> u64 {
    (0..2).map(|_| kernel_once()).min().expect("two runs")
}

fn kernel_once() -> u64 {
    let start = Instant::now();
    let mut map = BTreeMap::new();
    let mut x: u64 = black_box(0x9e37_79b9_7f4a_7c15);
    for i in 0..4_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 100_000, vec![i; 6]);
    }
    let cloned: Vec<Vec<u64>> = map.values().cloned().collect();
    let sum: u64 = map.iter().map(|(k, v)| k ^ v[3]).sum();
    black_box((sum, cloned));
    start.elapsed().as_nanos() as u64
}
