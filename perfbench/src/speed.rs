//! Machine-speed reference for the in-process workloads.
//!
//! A shared 2-vCPU machine runs in speed phases: for seconds at a time
//! every computation on it runs up to 1.7 times faster or slower (see
//! NOTES.md). Between two rounds of a workload the benchmark times a fixed
//! reference computation that belongs to the benchmark, not the program.
//! An operation's time is converted to *reference-speed* time: its raw
//! time scaled by `NOMINAL_MS` over the reference's median time in the
//! rounds around it. A speed phase slows the reference and the operation
//! alike and cancels; a change to the program moves only the operation.
//! Raw times are printed beside the converted ones.

use std::hint::black_box;
use std::time::Instant;

/// Reference time, in ms, that defines reference speed.
pub const NOMINAL_MS: f64 = 0.5;

/// Rounds on each side whose reference times set one round's speed.
const WINDOW: usize = 5;

/// Times the reference computation once per round.
pub struct Speedometer {
    buf: Vec<u64>,
    ref_ms: Vec<f64>,
}

impl Speedometer {
    /// A speedometer with its buffer allocated and touched once.
    pub fn new() -> Speedometer {
        let mut s = Speedometer {
            buf: vec![0; 1 << 14],
            ref_ms: Vec::new(),
        };
        black_box(reference_work(&mut s.buf));
        s
    }

    /// Time the reference once; returns the index of this reading.
    pub fn tick(&mut self) -> usize {
        let t = Instant::now();
        black_box(reference_work(&mut self.buf));
        self.ref_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.ref_ms.len() - 1
    }

    /// Factor from raw to reference-speed time for each reading: the
    /// nominal time over the median reading within `WINDOW` rounds.
    pub fn factors(&self) -> Vec<f64> {
        let n = self.ref_ms.len();
        (0..n)
            .map(|k| {
                let lo = k.saturating_sub(WINDOW);
                let hi = (k + WINDOW + 1).min(n);
                NOMINAL_MS / crate::stats::median(&self.ref_ms[lo..hi])
            })
            .collect()
    }

    /// Median reference time over the whole run, in ms.
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.ref_ms)
    }

    /// Factor from raw to reference-speed time over the whole run.
    pub fn overall_factor(&self) -> f64 {
        NOMINAL_MS / self.median_ms()
    }
}

/// A fixed, allocation-free computation: fill a 128 KiB buffer from a
/// xorshift generator, sort it, and probe it like a hash table.
fn reference_work(buf: &mut [u64]) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for v in buf.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *v = x;
    }
    buf.sort_unstable();
    let mask = buf.len() - 1;
    let mut acc: u64 = 0;
    for &k in buf.iter() {
        acc = acc.wrapping_add(buf[(k as usize) & mask] ^ k);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_follow_a_speed_phase() {
        let s = Speedometer {
            buf: Vec::new(),
            ref_ms: vec![2.0; 20].into_iter().chain(vec![1.0; 20]).collect(),
        };
        let f = s.factors();
        assert_eq!(f[0], NOMINAL_MS / 2.0);
        assert_eq!(f[39], NOMINAL_MS);
        // A reading inside a phase sees only that phase's neighbours.
        assert_eq!(f[10], NOMINAL_MS / 2.0);
        assert_eq!(f[30], NOMINAL_MS);
    }

    #[test]
    fn reference_work_is_deterministic() {
        let mut a = vec![0; 1 << 10];
        let mut b = vec![0; 1 << 10];
        assert_eq!(reference_work(&mut a), reference_work(&mut b));
    }
}
