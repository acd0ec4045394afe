//! The host-speed reference: a fixed kernel, independent of the simulator,
//! timed in every untraced pass process right after the pass.
//!
//! The shared host this benchmark runs on changes speed over seconds to
//! minutes (other tenants' load), by more than a change to the simulator
//! may move a figure before it counts as a regression. The kernel's time
//! follows that drift, so `run.py` divides a run's timings by the median
//! slowdown the kernel measured during the run. The kernel runs no
//! simulator code: a change to the simulator moves the scaled timings by
//! the same share as the raw ones.

use crate::timed::now;
use std::hint::black_box;

/// Seconds each part of the kernel takes on the reference host (a shared
/// 2-vCPU Intel Xeon at 2.1 GHz): the medians of 40 runs. A slowdown of 1
/// means the host runs at that speed.
const NOMINAL: [f64; PARTS] = [0.0244, 0.0240, 0.0077, 0.0364, 0.0177];

const PARTS: usize = 5;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A single random cycle through `n` slots (Sattolo's algorithm), so a
/// walk along it visits every slot in an order no prefetcher predicts.
fn cycle(n: usize) -> Vec<u32> {
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut s = 0x2545_f491_4f6c_dd1d;
    for i in (1..n).rev() {
        let j = (xorshift(&mut s) % i as u64) as usize;
        next.swap(i, j);
    }
    next
}

fn chase(next: &[u32], steps: usize) -> f64 {
    let t = now();
    let mut p = 0u32;
    for _ in 0..steps {
        p = next[p as usize];
    }
    black_box(p);
    t.elapsed().as_secs_f64()
}

/// Seconds of each part: a serial integer chain, eight independent
/// chains, a pointer chase within the core's L2 (512 KiB), one beyond it
/// (8 MiB) and a data-dependent select over 1 MiB. They load the core's
/// issue width, its caches and memory, the resources the simulator's hash
/// maps and arrays use and other tenants contend for.
fn parts() -> [f64; PARTS] {
    let t = now();
    let mut x = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..10_000_000 {
        xorshift(&mut x);
    }
    black_box(x);
    let serial = t.elapsed().as_secs_f64();

    let t = now();
    let mut v = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for _ in 0..5_000_000 {
        for s in v.iter_mut() {
            xorshift(s);
        }
    }
    black_box(v);
    let parallel = t.elapsed().as_secs_f64();

    let in_l2 = chase(&cycle(1 << 17), 1_000_000);
    let beyond_l2 = chase(&cycle(1 << 21), 400_000);

    let mut s = 3u64;
    let bytes: Vec<u8> = (0..1 << 20).map(|_| xorshift(&mut s) as u8).collect();
    let t = now();
    let mut c = 0u64;
    for _ in 0..20 {
        for &b in &bytes {
            c = if b < 128 { c + 3 } else { c ^ 1 };
        }
    }
    black_box(c);
    let select = t.elapsed().as_secs_f64();

    [serial, parallel, in_l2, beyond_l2, select]
}

/// How much slower than the reference host this host ran the kernel just
/// now: the geometric mean over its parts of measured / nominal seconds.
pub fn slowdown() -> f64 {
    let log_sum: f64 = parts().iter().zip(NOMINAL).map(|(t, n)| (t / n).ln()).sum();
    (log_sum / PARTS as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_cycle_visits_every_slot_once() {
        let next = cycle(1 << 10);
        let mut seen = vec![false; next.len()];
        let mut p = 0usize;
        for _ in 0..next.len() {
            assert!(!seen[p], "slot {p} visited twice");
            seen[p] = true;
            p = next[p] as usize;
        }
        assert_eq!(p, 0, "the walk closes after every slot");
    }

    #[test]
    fn the_slowdown_is_positive_and_finite() {
        let s = slowdown();
        assert!(s.is_finite() && s > 0.0, "slowdown {s}");
    }
}
