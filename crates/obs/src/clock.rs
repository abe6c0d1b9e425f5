//! A cheap monotonic nanosecond clock for hot-path telemetry.
//!
//! `Instant::now()` costs a `clock_gettime` call (~20–25 ns even via the
//! vDSO) — too much to spend several times inside a ~300 ns serving
//! request. On x86-64 this module reads the invariant TSC instead
//! (`rdtsc`, ~6–8 ns) and converts cycles to nanoseconds with a factor
//! calibrated once against `Instant` at first use; other architectures
//! fall back to `Instant` against a process-wide epoch.
//!
//! The clock is for **measurement only**: readings are never fed into
//! control flow (the serving engine's batching decisions are driven by
//! logical ticks), so TSC quirks (migration across very old sockets,
//! virtualized rate changes) can skew a latency sample but never a
//! result. Resolution/accuracy is more than enough for the log₂ latency
//! buckets in [`crate::hist`].

use std::sync::OnceLock;
use std::time::Instant;

struct Calib {
    #[cfg(not(target_arch = "x86_64"))]
    epoch: Instant,
    #[cfg(target_arch = "x86_64")]
    tsc_base: u64,
    /// Nanoseconds per 2^20 TSC cycles (fixed-point, avoids float math
    /// on the read path).
    #[cfg(target_arch = "x86_64")]
    ns_per_mi_cycles: u64,
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn rdtsc() -> u64 {
    // SAFETY: RDTSC is unprivileged baseline x86-64 ISA, so every CPU
    // this code runs on has it, and it touches no memory.
    unsafe { core::arch::x86_64::_rdtsc() }
}

fn calib() -> &'static Calib {
    static CALIB: OnceLock<Calib> = OnceLock::new();
    CALIB.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            // Calibrate cycles→ns over a short spin; 2 ms keeps first-use
            // cost negligible while bounding the rate error well under
            // the 1.5× bucket resolution of the latency histograms.
            let tsc_base = rdtsc();
            let t0 = Instant::now();
            while t0.elapsed().as_micros() < 2_000 {
                std::hint::spin_loop();
            }
            let cycles = (rdtsc() - tsc_base).max(1);
            let ns = t0.elapsed().as_nanos() as u64;
            Calib {
                tsc_base,
                ns_per_mi_cycles: (ns << 20) / cycles,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Calib {
                epoch: Instant::now(),
            }
        }
    })
}

/// Force calibration now (e.g. at engine construction) so the first
/// measured request does not absorb the one-time calibration spin.
pub fn init() {
    let _ = calib();
}

/// Monotonic nanoseconds since an arbitrary process-local epoch.
#[inline]
pub fn now_ns() -> u64 {
    let c = calib();
    #[cfg(target_arch = "x86_64")]
    {
        let cycles = rdtsc().wrapping_sub(c.tsc_base);
        (cycles >> 20).wrapping_mul(c.ns_per_mi_cycles)
            + (((cycles & 0xFFFFF) * c.ns_per_mi_cycles) >> 20)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        c.epoch.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_and_roughly_calibrated() {
        init();
        let a = now_ns();
        let t0 = Instant::now();
        while t0.elapsed().as_micros() < 5_000 {
            std::hint::spin_loop();
        }
        let b = now_ns();
        assert!(b > a, "clock must advance");
        let measured = (b - a) as f64;
        let wall = t0.elapsed().as_nanos() as f64;
        let ratio = measured / wall;
        // Within the histogram bucket resolution of the wall clock.
        assert!(
            (0.5..2.0).contains(&ratio),
            "clock rate off: measured {measured} ns vs wall {wall} ns"
        );
    }
}
