//! Deterministic fault injection (`MGA_FAULT`).
//!
//! Every recovery path in the training stack — NaN-gradient backoff,
//! worker-panic reporting, corrupted-checkpoint rejection, degraded-
//! sample imputation — must be exercisable on demand, repeatably, in CI.
//! This module arms *injection sites* compiled into the hot paths from a
//! single environment variable:
//!
//! ```text
//! MGA_FAULT=<site>:<kind>:<prob>:<seed>[,<site>:<kind>:<prob>:<seed>...]
//! ```
//!
//! | site     | kinds                  | effect at the site |
//! |----------|------------------------|--------------------|
//! | `grad`   | `nan`                  | poison a gradient with NaN after the backward pass |
//! | `pool`   | `panic`                | panic inside a worker-pool task body |
//! | `ckpt`   | `truncate`, `bitflip`  | corrupt checkpoint bytes before they reach disk |
//! | `sample` | `empty`                | pack an empty graph in a kernel's slot of a prepared batch |
//! | `shard`  | `crash`, `stall`       | kill or stall a serving-cluster shard at a tick boundary |
//! | `route`  | `misdirect`            | route a request to the wrong shard (`mga-serve`) |
//! | `swap`   | `corrupt`              | corrupt hot-swap checkpoint bytes after the read |
//!
//! e.g. `MGA_FAULT=grad:nan:0.05:7` poisons gradients on ~5 % of epochs,
//! deterministically: the n-th check of a site fires iff
//! `splitmix64(seed, n) < prob·2⁶⁴`, so a given spec always fires on the
//! same calls regardless of timing or thread interleaving at the call
//! site (sites are checked from deterministic points in the code).
//!
//! Cost model (mirrors [`crate::trace`]): with `MGA_FAULT` unset a site
//! check is a single relaxed atomic load returning `None` — no lock, no
//! allocation, no RNG. Armed runs take a short mutex on each check.
//!
//! Every fire bumps a `fault.fired.<site>` metrics counter so a harness
//! (the `validate_faults` binary) can assert each site actually fired.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Injection sites compiled into the workspace's hot paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// After the backward pass, before gradient clipping (`mga-core`).
    Grad,
    /// Inside a worker-pool task body (`mga-nn`).
    Pool,
    /// On the serialized checkpoint bytes before writing (`mga-core`).
    Ckpt,
    /// Per distinct kernel while preparing a batch (`mga-core`).
    Sample,
    /// Per serving-cluster shard, once per cluster tick (`mga-serve`).
    Shard,
    /// Per routed request at cluster admission (`mga-serve`).
    Route,
    /// On hot-swap checkpoint bytes after the read (`mga-serve`).
    Swap,
}

impl Site {
    fn parse(s: &str) -> Option<Site> {
        Some(match s {
            "grad" => Site::Grad,
            "pool" => Site::Pool,
            "ckpt" => Site::Ckpt,
            "sample" => Site::Sample,
            "shard" => Site::Shard,
            "route" => Site::Route,
            "swap" => Site::Swap,
            _ => return None,
        })
    }

    fn fired_counter(self) -> &'static crate::metrics::Counter {
        match self {
            Site::Grad => crate::metrics::counter("fault.fired.grad"),
            Site::Pool => crate::metrics::counter("fault.fired.pool"),
            Site::Ckpt => crate::metrics::counter("fault.fired.ckpt"),
            Site::Sample => crate::metrics::counter("fault.fired.sample"),
            Site::Shard => crate::metrics::counter("fault.fired.shard"),
            Site::Route => crate::metrics::counter("fault.fired.route"),
            Site::Swap => crate::metrics::counter("fault.fired.swap"),
        }
    }
}

/// What to inject when a site fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Poison a value with NaN (`grad`).
    Nan,
    /// Panic in the task body (`pool`).
    Panic,
    /// Truncate the byte stream (`ckpt`).
    Truncate,
    /// Flip one bit (`ckpt`).
    BitFlip,
    /// Pack an empty graph in place of the kernel's graph; it reads out
    /// as a zero graph embedding (`sample`).
    Empty,
    /// Take the shard down hard; its queue must be evacuated (`shard`).
    Crash,
    /// Freeze the shard's dispatch loop for a few ticks (`shard`).
    Stall,
    /// Send the request to a shard other than its hash owner (`route`).
    Misdirect,
    /// Flip a bit in the candidate checkpoint bytes (`swap`).
    Corrupt,
}

impl Kind {
    fn parse(s: &str) -> Option<Kind> {
        Some(match s {
            "nan" => Kind::Nan,
            "panic" => Kind::Panic,
            "truncate" => Kind::Truncate,
            "bitflip" => Kind::BitFlip,
            "empty" => Kind::Empty,
            "crash" => Kind::Crash,
            "stall" => Kind::Stall,
            "misdirect" => Kind::Misdirect,
            "corrupt" => Kind::Corrupt,
            _ => return None,
        })
    }
}

/// A fired fault: what to inject, plus a deterministic draw the site can
/// use to pick *where* (e.g. which byte to flip).
#[derive(Debug, Clone, Copy)]
pub struct Shot {
    pub kind: Kind,
    /// Uniform `u64` derived from the spec's seed and fire ordinal.
    pub draw: u64,
}

struct Spec {
    site: Site,
    kind: Kind,
    /// Fire threshold: fires iff the per-check hash < `threshold`.
    threshold: u64,
    seed: u64,
    /// How many times this spec has been checked.
    checks: u64,
}

static ARMED: AtomicBool = AtomicBool::new(false);

fn specs() -> &'static Mutex<Vec<Spec>> {
    static SPECS: OnceLock<Mutex<Vec<Spec>>> = OnceLock::new();
    SPECS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Is any fault spec armed? One relaxed load; the disabled path of every
/// injection site.
#[inline(always)]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Parse and arm a fault spec (see the module docs for the grammar).
/// Replaces any previously armed specs. An empty string disarms.
pub fn set_spec(spec: &str) -> Result<(), String> {
    let mut parsed = Vec::new();
    for part in spec.split([',', ';']) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let fields: Vec<&str> = part.split(':').collect();
        if fields.len() != 4 {
            return Err(format!(
                "fault spec `{part}`: expected <site>:<kind>:<prob>:<seed>"
            ));
        }
        let site = Site::parse(fields[0])
            .ok_or_else(|| format!("fault spec `{part}`: unknown site `{}`", fields[0]))?;
        let kind = Kind::parse(fields[1])
            .ok_or_else(|| format!("fault spec `{part}`: unknown kind `{}`", fields[1]))?;
        let prob: f64 = fields[2]
            .parse()
            .ok()
            .filter(|p| (0.0..=1.0).contains(p))
            .ok_or_else(|| format!("fault spec `{part}`: bad probability `{}`", fields[2]))?;
        let seed: u64 = fields[3]
            .parse()
            .map_err(|_| format!("fault spec `{part}`: bad seed `{}`", fields[3]))?;
        let threshold = if prob >= 1.0 {
            u64::MAX
        } else {
            (prob * u64::MAX as f64) as u64
        };
        parsed.push(Spec {
            site,
            kind,
            threshold,
            seed,
            checks: 0,
        });
    }
    let armed = !parsed.is_empty();
    *specs().lock().unwrap() = parsed;
    ARMED.store(armed, Ordering::Relaxed);
    Ok(())
}

/// Disarm all fault specs.
pub fn clear() {
    specs().lock().unwrap().clear();
    ARMED.store(false, Ordering::Relaxed);
}

/// Read `MGA_FAULT` and arm it. Unset/empty leaves injection off.
pub fn init_from_env() {
    if let Ok(v) = std::env::var("MGA_FAULT") {
        if let Err(e) = set_spec(&v) {
            crate::error!("MGA_FAULT: {e}");
        } else if armed() {
            crate::warn!("fault injection armed: MGA_FAULT={}", v.trim());
        }
    }
}

/// Check the injection site: `None` when disarmed or this check's
/// deterministic draw does not fire. When it fires, the
/// `fault.fired.<site>` counter is bumped and the [`Shot`] carries the
/// kind plus a positional draw.
#[inline]
pub fn fire(site: Site) -> Option<Shot> {
    if !armed() {
        return None;
    }
    fire_armed(site)
}

#[cold]
fn fire_armed(site: Site) -> Option<Shot> {
    let mut specs = specs().lock().unwrap();
    for spec in specs.iter_mut() {
        if spec.site != site {
            continue;
        }
        let n = spec.checks;
        spec.checks += 1;
        let h = splitmix64(spec.seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(n));
        if h <= spec.threshold {
            let kind = spec.kind;
            let draw = splitmix64(h);
            drop(specs);
            site.fired_counter().inc();
            crate::warn!("fault injected: {site:?}/{kind:?} (check #{n})");
            return Some(Shot { kind, draw });
        }
        return None;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fault state is process-global, so all fault tests share one
    /// function (the same pattern as the trace tests).
    #[test]
    fn specs_parse_arm_and_fire_deterministically() {
        assert!(!armed(), "fault injection must default to off");
        assert!(fire(Site::Grad).is_none());

        assert!(set_spec("grad:nan:bad:1").is_err());
        assert!(set_spec("grad:frobnicate:0.5:1").is_err());
        assert!(set_spec("nope:nan:0.5:1").is_err());
        assert!(set_spec("grad:nan:0.5").is_err());
        assert!(!armed(), "failed parses must not arm");

        set_spec("grad:nan:1.0:42").unwrap();
        assert!(armed());
        let shot = fire(Site::Grad).expect("prob 1 always fires");
        assert_eq!(shot.kind, Kind::Nan);
        assert!(fire(Site::Pool).is_none(), "other sites stay quiet");

        // Deterministic fire pattern: same spec, same sequence.
        set_spec("ckpt:bitflip:0.3:7").unwrap();
        let a: Vec<bool> = (0..64).map(|_| fire(Site::Ckpt).is_some()).collect();
        set_spec("ckpt:bitflip:0.3:7").unwrap();
        let b: Vec<bool> = (0..64).map(|_| fire(Site::Ckpt).is_some()).collect();
        assert_eq!(a, b);
        let fired = a.iter().filter(|&&f| f).count();
        assert!(fired > 5 && fired < 30, "~30% of 64 checks, got {fired}");

        // Zero probability never fires.
        set_spec("pool:panic:0:1").unwrap();
        assert!((0..100).all(|_| fire(Site::Pool).is_none()));

        clear();
        assert!(!armed());
        assert!(fire(Site::Ckpt).is_none());
    }
}
