//! Host-speed probe: a fixed workload, independent of the program under
//! test, timed next to each measurement.
//!
//! The benchmark host is a shared VM whose speed moves by up to half over a
//! few seconds. A simulation child times the probe after its set-up, after
//! each figure of its cold regeneration and after each warm block; the
//! serve-mix client times it before its set-up spawns and after each round.
//! Each timing is divided by the probes on either side of it (as a multiple
//! of `REFERENCE_S`). That cancels the host's speed at that moment while
//! keeping every change in the program's own speed: the probe's code never
//! changes with the program.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Probe time on a quiet host (Intel Xeon, 2.0 GHz VM). Normalised
/// timings read as seconds on that host.
pub const REFERENCE_S: f64 = 0.06;

/// One probe (about 0.06 s): the geometric mean of two fixed loops, one
/// bound by branchy heap and map work and one by memory latency. The
/// simulator's speed follows both. On the 2-vCPU VM, over 98 alternations
/// of the two loops with the slowest POP and CAM jobs, the jobs' time over
/// the probe's (medians of 8) varied by a standard deviation of 3.5% (POP)
/// and 4.5% (CAM), against 7.2% and 8.9% for the heap loop alone, 6.5% and
/// 6.4% for the memory loop alone, and 11.1% and 9.1% for the raw job
/// times.
pub fn once() -> f64 {
    (heap_loop() * memory_loop()).sqrt()
}

/// A discrete-event-style loop over a binary heap and an ordered map with
/// a working set of a few MiB, like the simulator's.
fn heap_loop() -> f64 {
    let t = Instant::now();
    let mut heap = BinaryHeap::with_capacity(100_000);
    let mut map: BTreeMap<u64, f64> = BTreeMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0.0f64;
    for i in 0..100_000u64 {
        heap.push(Reverse((i * 7919) % 1_000_003));
    }
    for _ in 0..250_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let Reverse(ev) = heap.pop().expect("heap never empties");
        heap.push(Reverse(ev + (x % 1000) + 1));
        let e = map.entry(x % 50_000).or_insert(0.0);
        *e += (ev as f64).sqrt();
        acc += *e * 1e-9;
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Dependent reads and writes at random places in 64 MiB, far beyond the
/// last-level cache a VM can count on.
fn memory_loop() -> f64 {
    let t = Instant::now();
    let n = 8usize << 20;
    let mut v = vec![1u64; n];
    let mut x: u64 = 12345;
    let mut acc = 0u64;
    for _ in 0..1_500_000 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = (x >> 20) as usize % n;
        acc = acc.wrapping_add(v[i]);
        v[i] = acc;
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Host factor of a timing made between two probes: their geometric mean
/// over the reference. A timing divided by it reads as on a quiet host.
pub fn factor(before: f64, after: f64) -> f64 {
    (before * after).sqrt() / REFERENCE_S
}
