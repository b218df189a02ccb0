//! A fixed CPU probe: how fast the machine runs right now.
//!
//! On a shared virtual machine the same work can take 1.4 times longer
//! for seconds or minutes at a time, because of other tenants, and the
//! programs under test slow down with it. The probe is a small integer
//! and cache kernel that belongs to the benchmark, so no change to the
//! repository can alter it; it runs while the programs under test are
//! idle, between measurement windows, on one thread per core.

use std::time::Instant;

use crate::workload::JOBS;

/// The probe's time at full speed on the reference machine (a 2-vCPU
/// Intel Xeon VM at 2.1 GHz), where it ranged from 2.7 to 6.1 ms with a
/// median of 3.9 ms over 100 probes. Times are reported scaled to this
/// speed.
pub const REFERENCE_MS: f64 = 2.75;

const TABLE_WORDS: usize = 1 << 15;
const STEPS: usize = 2_000_000;
const REPEATS: usize = 5;

/// One pass of the kernel: hashing plus scattered updates over a
/// 256 KiB table, returning a value that depends on every step.
fn kernel(table: &mut [u64]) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    let mask = table.len() - 1;
    for i in 0..STEPS {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 27;
        let slot = (z as usize) & mask;
        table[slot] = table[slot].wrapping_add(z);
        acc ^= table[i.wrapping_mul(7) & mask];
    }
    acc
}

/// The best of a few kernel runs on this thread, in ms.
fn best_run_ms() -> f64 {
    let mut table = vec![0u64; TABLE_WORDS];
    (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(kernel(std::hint::black_box(&mut table)));
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// The probe's time now: one kernel per core at once, averaged.
pub fn probe_ms() -> f64 {
    let runs: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..JOBS).map(|_| s.spawn(best_run_ms)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .collect()
    });
    runs.iter().sum::<f64>() / runs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_measures_a_positive_time() {
        let t = probe_ms();
        assert!(t.is_finite() && t > 0.0);
    }
}
