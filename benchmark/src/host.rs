//! A health figure, not a correction. This sandbox changes speed by a
//! quarter for tens of seconds at a time (CALIBRATION.md), so a run reports
//! what a small fixed compute kernel cost just before and just after its
//! measured phase, while the program under test was idle: two runs whose
//! `host.kernel_us` differ were not measured on the same machine. Every
//! other number the benchmark reports is as measured.

use std::hint::black_box;
use std::time::Instant;

const WORDS: u64 = 8_192; // 64 KiB: stays in cache, so this times the core
const REPS: u64 = 20;

/// Microseconds the kernel takes now: the least of three runs, since being
/// descheduled in the middle of one can only lengthen it.
fn kernel_us() -> f64 {
    let buf: Vec<u64> = (0..WORDS)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let once = || {
        let began = Instant::now();
        let mut acc = 0u64;
        for rep in 0..REPS {
            for w in black_box(&buf) {
                acc = acc
                    .wrapping_add(u64::from((w ^ rep).count_ones()))
                    .rotate_left(1);
            }
        }
        black_box(acc);
        began.elapsed().as_nanos() as f64 / 1e3
    };
    (0..3).map(|_| once()).fold(f64::INFINITY, f64::min)
}

/// Runs `phase` and returns, with its result, the mean of the kernel's time
/// just before and just after it.
pub fn around<T>(phase: impl FnOnce() -> T) -> (f64, T) {
    let before = kernel_us();
    let out = phase();
    ((before + kernel_us()) / 2.0, out)
}
