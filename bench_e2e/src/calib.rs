//! Host-speed calibration.
//!
//! A shared host runs the same code at speeds that drift by tens of per
//! cent, both from one second to the next and over minutes, so two runs of
//! one binary can differ by more than any bound worth gating on. The
//! measured loop therefore runs a fixed kernel of the benchmark's own (no
//! engine code) between operations, every [`INTERVAL_NS`], on as many
//! threads as the workload's statements keep busy. Each operation's time
//! is reported scaled to the speed of a reference host: multiplied by the
//! kernel's time there ([`REFERENCE_NS`]) over the median time of the
//! kernel runs within [`NEIGHBOURS`] of it, which the host ran at about
//! the same speed. An engine change moves scaled and raw timings by the
//! same ratio, because the kernel runs no engine code; the raw figures are
//! printed next to the scaled ones.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time on the reference host, on one and on two threads at once:
/// the median over runs on a 2-CPU shared x86-64 VM. Scaled timings read
/// as if measured there.
const REFERENCE_NS: [f64; 2] = [1_200_000.0, 1_600_000.0];

/// Measured-loop time between two kernel runs.
const INTERVAL_NS: u128 = 25_000_000;

/// Kernel runs on each side of an operation whose median scales it.
const NEIGHBOURS: usize = 3;

/// Sorting, hashing, floating-point box tests and small string
/// allocations over a fixed pseudo-random input.
fn kernel() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut keys: Vec<u64> = (0..8192).map(|_| next()).collect();
    keys.sort_unstable();
    let mut map = std::collections::HashMap::with_capacity(2048);
    for &k in keys.iter().step_by(4) {
        map.insert(k >> 3, k);
    }
    let mut acc = keys.iter().filter(|k| map.contains_key(&(**k >> 3))).count() as u64;
    let boxes: Vec<[f64; 4]> = (0..1024)
        .map(|_| {
            let (a, b) = ((next() % 1000) as f64, (next() % 1000) as f64);
            [a, b, a + (next() % 50) as f64, b + (next() % 50) as f64]
        })
        .collect();
    for (i, p) in boxes.iter().enumerate().step_by(8) {
        for q in &boxes {
            acc += u64::from(p[0] <= q[2] && q[0] <= p[2] && p[1] <= q[3] && q[1] <= p[3]);
        }
        acc += format!("place-{i}").len() as u64;
    }
    black_box(acc)
}

/// Kernel timings of one run, in the order they were taken.
pub struct Calibrator {
    threads: usize,
    samples_ns: Vec<f64>,
    last: Option<Instant>,
}

impl Calibrator {
    /// A calibrator whose kernel runs on `threads` threads at once (1 or
    /// 2, the thread counts [`REFERENCE_NS`] knows).
    pub fn new(threads: usize) -> Calibrator {
        assert!((1..=REFERENCE_NS.len()).contains(&threads), "kernel threads: {threads}");
        Calibrator { threads, samples_ns: Vec::new(), last: None }
    }

    /// The kernel's time on the reference host.
    pub fn reference_ns(&self) -> f64 {
        REFERENCE_NS[self.threads - 1]
    }

    /// Runs the kernel when [`INTERVAL_NS`] has passed since the last run
    /// (or none ran yet), and returns the position of the latest run: the
    /// one the next operation starts after. Call it between operations.
    pub fn tick(&mut self) -> usize {
        if self.last.is_none_or(|t| t.elapsed().as_nanos() >= INTERVAL_NS) {
            let t = Instant::now();
            std::thread::scope(|s| {
                for _ in 1..self.threads {
                    s.spawn(kernel);
                }
                black_box(kernel());
            });
            self.samples_ns.push(t.elapsed().as_nanos() as f64);
            self.last = Some(Instant::now());
        }
        self.samples_ns.len() - 1
    }

    /// Kernel runs so far.
    pub fn samples(&self) -> usize {
        self.samples_ns.len()
    }

    /// Median kernel time over the run, in ns (0 when it never ran).
    pub fn median_ns(&self) -> f64 {
        crate::stats::median(&self.samples_ns).unwrap_or(0.0)
    }

    /// Scale factor of each kernel position: the reference time over the
    /// median of the kernel runs within [`NEIGHBOURS`] of it. Below 1 when
    /// the host ran slower than the reference.
    pub fn scales(&self) -> Vec<f64> {
        let (n, reference) = (self.samples_ns.len(), self.reference_ns());
        (0..n)
            .map(|i| {
                let near =
                    &self.samples_ns[i.saturating_sub(NEIGHBOURS)..(i + NEIGHBOURS + 1).min(n)];
                reference / crate::stats::median(near).unwrap_or(reference)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn scales_follow_the_neighbourhood_median() {
        let mut c = Calibrator::new(1);
        assert!(c.scales().is_empty());
        // The host runs at half the reference speed, then at full speed.
        let r = c.reference_ns();
        c.samples_ns = [vec![r * 2.0; 20], vec![r; 20]].concat();
        c.samples_ns[5] = r / 10.0; // one outlier moves nothing
        let s = c.scales();
        assert_eq!(s.len(), 40);
        assert!(s[..17].iter().all(|&f| (f - 0.5).abs() < 1e-12));
        assert!(s[23..].iter().all(|&f| (f - 1.0).abs() < 1e-12));
        assert_eq!(c.tick(), 40, "the first tick runs the kernel");
        assert_eq!(c.tick(), 40, "the next one waits for the interval");
        assert_eq!(c.samples(), 41);
        let mut two = Calibrator::new(2);
        assert_eq!(two.tick(), 0);
        assert_eq!(two.reference_ns(), REFERENCE_NS[1]);
    }
}
