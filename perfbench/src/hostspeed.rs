//! The host's speed, from fixed reference work owned by the benchmark.
//!
//! The reference host's vCPUs share physical cores with other machines,
//! and how fast they run follows the neighbours' load: the same window of
//! `ptq_sweep` took anywhere from 1357 to 1708 µs of CPU per op in ten
//! back-to-back 40 s runs, in swings of seconds to minutes that no
//! statistic inside a run removes. The probe below slows down with them.
//! Taken on the benchmark's CPU before and after each slice of a window,
//! it gives the slice's slowdown against [`REFERENCE_PROBE_S`], and the
//! timed end-to-end figures are reported at that reference speed: times
//! divided by the slowdown, rates multiplied by it. Over 25 runs of both
//! workloads this narrowed the range of CPU per op between runs by a
//! quarter to a half. The probe calls nothing in the program, so a faster
//! program shows in full.

use std::hint::black_box;
use std::time::Instant;

/// The probe's typical time on the reference host (a 2-vCPU AVX-512 Xeon
/// container), seconds: the speed the end-to-end figures are reported at.
pub const REFERENCE_PROBE_S: f64 = 0.0085;

/// Length of the dot-product vectors: 8 KiB together, well inside L1.
const LEN: usize = 1024;
/// Passes over the vectors: about 8 ms on the reference host.
const DOT_REPS: usize = 60_000;
/// Steps of the integer chain: about 9 ms on the reference host.
const ALU_STEPS: u64 = 2_000_000;

/// `reps` dot products of `a` and `b` in eight independent lanes.
#[inline(never)]
fn dots(a: &[f32], b: &[f32], reps: usize) -> f32 {
    let mut sum = 0.0f32;
    for _ in 0..reps {
        let mut acc = [0.0f32; 8];
        for (ca, cb) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
            for k in 0..8 {
                acc[k] += ca[k] * cb[k];
            }
        }
        sum += acc.iter().sum::<f32>();
        black_box(&mut sum);
    }
    sum
}

/// A dependent chain of `steps` xorshift-multiply rounds.
#[inline(never)]
fn chain(steps: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(i);
    }
    x
}

/// Seconds the reference work takes now: the geometric mean of a
/// vectorised f32 loop and a scalar integer chain, which between them
/// tracked both workloads better than either alone.
pub fn probe_s() -> f64 {
    let a: Vec<f32> = (0..LEN).map(|i| (i % 7) as f32 * 0.25).collect();
    let b: Vec<f32> = (0..LEN).map(|i| (i % 5) as f32 * 0.5).collect();
    let start = Instant::now();
    black_box(dots(black_box(&a), black_box(&b), DOT_REPS));
    let dots_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    black_box(chain(black_box(ALU_STEPS)));
    let chain_s = start.elapsed().as_secs_f64();
    (dots_s * chain_s).sqrt()
}

/// How much slower than the reference the host runs, from probes taken
/// just before and just after the interval in question.
pub fn slowdown(before_s: f64, after_s: f64) -> f64 {
    (before_s + after_s) / 2.0 / REFERENCE_PROBE_S
}
