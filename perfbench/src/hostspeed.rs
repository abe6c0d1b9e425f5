//! Host-speed calibration of measured times.
//!
//! On a shared host the core this benchmark runs on is not its own: when
//! neighbours load the other hardware thread of the core or the caches it
//! shares, the same code runs up to twice as slowly, in phases that switch
//! within milliseconds and whose share of the time drifts over minutes.
//! Thread CPU time slows just as much (the vCPU is not descheduled; the
//! core is shared), so no clock hides it, and a run spent wholly in one
//! kind of phase leaves no fast interval for a percentile to find.
//!
//! The benchmark therefore times a fixed reference loop of its own
//! between the operations it measures and scales each session's latency
//! by how fast the reference ran through that session:
//! `calibrated = measured × NOMINAL_NS / median probe`. A calibrated time
//! estimates what the work would take on the host at its quiet speed.
//! The reference is a hash-table walk with data-dependent branches —
//! general-purpose code, which slows in the contended phases more nearly
//! like the program than a pure arithmetic or streaming loop does. It
//! lives in the benchmark and never changes with the program, so a change
//! to the program moves calibrated times as it moves measured ones.

use std::hint::black_box;
use std::time::Instant;

/// Entries of the reference table: 32 KiB of `u32`, resident in L1.
const TABLE_LEN: usize = 8192;
/// Timed steps per probe: about 16 µs on a quiet host.
const STEPS: usize = 2000;
/// Reference nanoseconds per step on a quiet host (a 2-vCPU x86-64 cloud
/// VM built for x86-64-v3, whose quiet phases run the walk at 7.7–8.4 ns
/// a step). Calibrated times read in that host's quiet-phase units.
pub const NOMINAL_NS: f64 = 8.0;

/// The reference walk: its table, its generator state, and the time
/// spent probing so far.
pub struct HostSpeed {
    table: Vec<u32>,
    state: u64,
    spent_ns: f64,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        HostSpeed {
            table: vec![1; TABLE_LEN],
            state: 0x9E37_79B9_7F4A_7C15,
            spent_ns: 0.0,
        }
    }

    /// Time the reference walk once; returns its nanoseconds per step.
    /// An untimed sweep first brings the whole table back into L1, so a
    /// probe does not depend on what the program left in the caches.
    pub fn probe(&mut self) -> f64 {
        let start = Instant::now();
        black_box(black_box(&self.table).iter().fold(0, |a, x| a ^ x));
        let t = Instant::now();
        self.walk(STEPS);
        let ns = t.elapsed().as_nanos() as f64 / STEPS as f64;
        self.spent_ns += start.elapsed().as_nanos() as f64;
        ns
    }

    /// Nanoseconds spent in [`HostSpeed::probe`] so far, to be taken out
    /// of wall times that enclose probes.
    pub fn spent_ns(&self) -> f64 {
        self.spent_ns
    }

    /// `steps` xorshift draws, each reading one table entry and, by its
    /// low bits, updating it, its neighbour or the generator.
    fn walk(&mut self, steps: usize) {
        let table = black_box(&mut self.table);
        // Opaque trip count: the loop compiles the same in every build.
        let steps = black_box(steps);
        let mask = table.len() - 1;
        let mut s = self.state;
        for _ in 0..steps {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let i = (s as usize) & mask;
            let v = table[i];
            if v & 1 == 0 {
                table[i] = v.wrapping_add(s as u32);
            } else if v & 2 == 0 {
                table[(i + 1) & mask] ^= v;
            } else {
                s = s.wrapping_add(u64::from(v));
            }
        }
        self.state = black_box(s);
    }
}

/// The factor that turns a time measured between probes reading `before`
/// and `after` into a calibrated one.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * NOMINAL_NS / (before + after)
}
