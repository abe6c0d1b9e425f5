//! `mga-obs` — dependency-free observability for the MGA tuner stack.
//!
//! The paper's value claim is quantitative (tuning cost, per-epoch
//! convergence), so every experiment must be *measurable*: where does an
//! epoch's wall time go, how balanced is the worker pool, what exactly
//! did a run train on. This crate provides the four layers the rest of
//! the workspace builds on:
//!
//! * [`trace`] — a hierarchical span tracer: RAII [`span!`] guards feed
//!   per-thread span stacks that aggregate into a wall-time tree (call
//!   counts + total nanoseconds per path), optionally mirrored as JSONL
//!   events to the file named by `MGA_TRACE`. Disabled (the default),
//!   a span is a single relaxed atomic load and **no allocation**.
//! * [`metrics`] — a process-wide registry of counters, gauges and
//!   log₂ histograms (always on: increments are single relaxed atomic
//!   ops). `MGA_METRICS_OUT=path` dumps a JSONL snapshot at
//!   [`finish`].
//! * [`log`] — leveled logging to stderr (`MGA_LOG=error|warn|info|debug`,
//!   default `info`) behind the [`error!`]/[`warn!`]/[`info!`]/[`debug!`]
//!   macros, so experiment binaries can narrate progress without
//!   polluting their stdout tables and can run silently in CI.
//! * [`json`] + [`manifest`] — a minimal JSON value type with an emitter
//!   *and* a parser (used by the sink round-trip tests and the CI trace
//!   validator), and [`manifest::RunManifest`]: the machine-readable run
//!   record (seed, thread count, dataset sizes, per-fold timings, final
//!   metrics) every experiment binary writes next to its text output.
//!
//! The serving engine (`mga-serve`) adds a production-telemetry layer on
//! top:
//!
//! * [`hist`] — log₂-bucketed histograms over nanosecond latencies and
//!   counts: lock-free `observe`, diffable snapshots, and a `percentile`
//!   estimator with a proven 1.5× bound. Registered via
//!   [`metrics::log_histogram`].
//! * [`drift`] — deterministic, tick-driven EWMA drift detectors
//!   (new-kernel rate, cache-miss rate, head-confidence collapse)
//!   emitting typed [`drift::DriftEvent`]s — the triggers for
//!   telemetry-driven continual fine-tuning.
//! * [`export`] — Prometheus text-exposition rendering of the whole
//!   registry (`MGA_PROM_OUT=path` snapshots it at [`finish`]).
//! * [`clock`] — a cheap monotonic nanosecond clock (TSC-based on
//!   x86-64) for hot paths where `Instant::now` is too expensive.
//!
//! Environment variables (all read by [`init_from_env`], which the
//! experiment harness calls once at startup):
//!
//! | Variable | Effect |
//! |---|---|
//! | `MGA_TRACE=path` | enable span tracing; write span-close events as JSONL to `path` (`MGA_TRACE=1` aggregates without a file) |
//! | `MGA_METRICS_OUT=path` | write a JSONL metrics snapshot at [`finish`] |
//! | `MGA_PROM_OUT=path` | write a Prometheus text-format snapshot at [`finish`] |
//! | `MGA_LOG=level` | stderr log level (`error`, `warn`, `info`, `debug`) |
//! | `MGA_FAULT=spec` | arm deterministic fault injection (see [`fault`]) |
//!
//! (`MGA_FLIGHT=path` — the serving flight-recorder dump — is read by
//! `mga-serve`, not here; it is listed in that crate's docs.)

pub mod clock;
pub mod drift;
pub mod export;
pub mod fault;
pub mod hist;
pub mod json;
pub mod log;
pub mod manifest;
pub mod metrics;
pub mod trace;

/// Configure tracing, logging, and fault injection from the environment.
/// Idempotent; safe to call more than once (later calls re-read the
/// variables).
pub fn init_from_env() {
    log::init_from_env();
    trace::init_from_env();
    fault::init_from_env();
}

/// End-of-run hook: flush the trace sink, print the aggregated span tree
/// (stderr, only when tracing is enabled), and write the metrics
/// snapshot to `MGA_METRICS_OUT` if set. Binaries call this last.
pub fn finish() {
    trace::flush_sink();
    if trace::enabled() {
        let summary = trace::render_summary();
        if !summary.is_empty() {
            eprintln!("\n── span tree (wall time) ──\n{summary}");
        }
    }
    if let Ok(path) = std::env::var("MGA_METRICS_OUT") {
        let path = path.trim();
        if !path.is_empty() && path != "0" {
            match std::fs::write(path, metrics::to_jsonl()) {
                Ok(()) => info!("metrics snapshot written to {path}"),
                Err(e) => error!("cannot write metrics snapshot {path}: {e}"),
            }
        }
    }
    export::write_prom_if_enabled();
}
