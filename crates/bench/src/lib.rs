//! `mga-bench` — experiment harness shared by the per-figure binaries.
//!
//! Every binary regenerates one table or figure of the paper (see
//! DESIGN.md's per-experiment index) and accepts `--quick` for a reduced
//! dataset/epoch budget, printing the same rows/series the paper reports.

use mga_core::model::{Modality, ModelConfig};
use mga_core::OmpDataset;
use mga_dae::DaeConfig;
use mga_gnn::GnnConfig;
use mga_kernels::inputs::openmp_input_sizes;
use mga_kernels::KernelSpec;
use mga_sim::cpu::CpuSpec;
use mga_sim::openmp::OmpConfig;

/// Typed failure of an experiment binary's evaluation/report path —
/// replaces ad-hoc `unwrap()`s so a malformed dataset or an empty result
/// set exits with a named cause instead of a panic backtrace.
#[derive(Debug)]
pub enum BenchError {
    /// Filesystem failure writing or reading a report artifact.
    Io(std::io::Error),
    /// An eval invariant did not hold (empty result set, missing series
    /// entry, unknown configuration) — the message names what and where.
    MissingData(String),
    /// A hard correctness invariant was violated (e.g. serving diverged
    /// from the training-side predict) — always a bug, never noise.
    Invariant(String),
}

impl BenchError {
    /// Shorthand for the pervasive "this collection should not have been
    /// empty / this key should have existed" case.
    pub fn missing(what: impl Into<String>) -> BenchError {
        BenchError::MissingData(what.into())
    }
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Io(e) => write!(f, "I/O error: {e}"),
            BenchError::MissingData(what) => write!(f, "missing data: {what}"),
            BenchError::Invariant(what) => write!(f, "invariant violated: {what}"),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Io(e) => Some(e),
            BenchError::MissingData(_) | BenchError::Invariant(_) => None,
        }
    }
}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> BenchError {
        BenchError::Io(e)
    }
}

/// Exit path for experiment `main`s: print the error with the binary's
/// name and exit 1, so CI logs name the failing experiment.
pub fn exit_on_error(bin: &str, result: Result<(), BenchError>) {
    if let Err(e) = result {
        eprintln!("{bin}: {e}");
        std::process::exit(1);
    }
}

/// Common command-line options.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Reduced dataset and epochs (CI-friendly).
    pub quick: bool,
    pub seed: u64,
    /// Suppress stderr narration (errors only); result tables on stdout
    /// are unaffected.
    pub quiet: bool,
}

/// Parse `--quick` / `--seed N` / `--quiet` from `std::env::args`, and
/// initialize observability from the environment (`MGA_LOG`, `MGA_TRACE`,
/// `MGA_METRICS_OUT`) — every experiment binary calls this first.
pub fn parse_opts() -> RunOpts {
    mga_obs::init_from_env();
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let quiet = args.iter().any(|a| a == "--quiet");
    if quiet {
        mga_obs::log::set_level(mga_obs::log::Level::Error);
    }
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    RunOpts { quick, seed, quiet }
}

/// The machine shape a run's numbers depend on: available cores, the
/// active SIMD backend (`"avx2"` or `"scalar"`) and the pool's thread
/// count (`MGA_THREADS`).
fn machine_shape() -> (usize, &'static str, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let simd = if mga_nn::simd::simd_enabled() {
        "avx2"
    } else {
        "scalar"
    };
    (nproc, simd, mga_nn::pool::num_threads())
}

/// Start a run manifest for experiment `name`, pre-stamped with the
/// shared run parameters (seed, quick/full) and the machine shape: pool
/// thread count (`MGA_THREADS`), available cores and the active SIMD
/// backend.
pub fn manifest(name: &str, opts: RunOpts) -> mga_obs::manifest::RunManifest {
    let (nproc, simd, threads) = machine_shape();
    let mut m = mga_obs::manifest::RunManifest::new(name);
    m.set_int("seed", opts.seed as i64)
        .set_bool("quick", opts.quick)
        .set_int("threads", threads as i64)
        .set_int("nproc", nproc as i64)
        .set_str("simd", simd);
    m
}

/// One `BENCH_*.json` record line: `{name, iters, ns_per_iter}`, then the
/// machine shape that measured it, as in [`manifest`]: `nproc`, `simd`
/// and `threads`. A within-run ratio is a record too, its per-mille value
/// in `ns_per_iter`. `bench_check` reads `name` and `ns_per_iter` and
/// ignores the other keys.
pub fn bench_record(name: &str, iters: u64, ns_per_iter: f64) -> String {
    let (nproc, simd, threads) = machine_shape();
    format!(
        "{{\"name\": \"{name}\", \"iters\": {iters}, \"ns_per_iter\": {ns_per_iter:.1}, \
         \"nproc\": {nproc}, \"simd\": \"{simd}\", \"threads\": {threads}}}"
    )
}

/// Finish an experiment run: stamp the pool's job and chunk totals into
/// the manifest, write it under `results/manifests/`, then flush the
/// observability sinks (span-tree summary, `MGA_METRICS_OUT`).
pub fn finish_run(m: &mut mga_obs::manifest::RunManifest) {
    let total = |name| mga_obs::metrics::counter(name).get() as i64;
    m.set_int("pool_jobs", total("pool.jobs"))
        .set_int("pool_chunks", total("pool.chunks"));
    let path = std::path::Path::new("results/manifests").join(format!("{}.json", m.name()));
    match m.write(&path) {
        Ok(()) => mga_obs::info!("manifest written to {}", path.display()),
        Err(e) => mga_obs::error!("cannot write manifest {}: {e}", path.display()),
    }
    mga_obs::finish();
}

/// The IR2Vec-style vector width used across experiments.
pub fn vec_dim(opts: RunOpts) -> usize {
    if opts.quick {
        16
    } else {
        48
    }
}

/// The model configuration for a given modality/feature setting.
pub fn model_cfg(opts: RunOpts, modality: Modality, use_aux: bool) -> ModelConfig {
    let dim = vec_dim(opts);
    if opts.quick {
        ModelConfig {
            modality,
            use_aux,
            gnn: GnnConfig {
                dim: 12,
                layers: 2,
                update: mga_gnn::UpdateKind::Gru,
                homogeneous: false,
            },
            dae: DaeConfig {
                input_dim: dim,
                hidden_dim: 14,
                code_dim: 10,
                epochs: 40,
                ..DaeConfig::default()
            },
            hidden: 24,
            epochs: 25,
            lr: 0.02,
            seed: opts.seed,
        }
    } else {
        ModelConfig {
            modality,
            use_aux,
            gnn: GnnConfig {
                dim: 32,
                layers: 2,
                update: mga_gnn::UpdateKind::Gru,
                homogeneous: false,
            },
            dae: DaeConfig {
                input_dim: dim,
                hidden_dim: 32,
                code_dim: 16,
                epochs: 80,
                ..DaeConfig::default()
            },
            hidden: 64,
            epochs: 70,
            lr: 0.012,
            seed: opts.seed,
        }
    }
}

/// Model configuration for the device-mapping task (§4.2). The task is
/// binary and converges fast, so it uses a lighter GNN than the OpenMP
/// experiments but trains longer (the paper's near-98% regime).
pub fn devmap_model_cfg(opts: RunOpts, modality: Modality) -> ModelConfig {
    let dim = vec_dim(opts);
    if opts.quick {
        let mut cfg = model_cfg(opts, modality, true);
        cfg.epochs = 35;
        cfg
    } else {
        ModelConfig {
            modality,
            use_aux: true,
            gnn: GnnConfig {
                dim: 16,
                layers: 2,
                update: mga_gnn::UpdateKind::Gru,
                homogeneous: false,
            },
            dae: DaeConfig {
                input_dim: dim,
                hidden_dim: 24,
                code_dim: 12,
                epochs: 60,
                ..DaeConfig::default()
            },
            hidden: 32,
            epochs: 90,
            lr: 0.015,
            seed: opts.seed,
        }
    }
}

/// The thread-prediction dataset of §4.1.3 (45 loops × 30 inputs on Comet
/// Lake, threads 1–8). `--quick` trims to 12 loops × 6 inputs.
pub fn thread_dataset(opts: RunOpts) -> OmpDataset {
    let cpu = CpuSpec::comet_lake();
    let mut specs = mga_kernels::catalog::openmp_thread_dataset();
    let mut sizes = openmp_input_sizes();
    if opts.quick {
        specs = pick_every(specs, 45 / 12);
        sizes = sizes.into_iter().step_by(5).collect();
    }
    let space = mga_sim::openmp::thread_space(&cpu);
    OmpDataset::build(specs, sizes, space, cpu, vec_dim(opts), opts.seed)
}

/// The large-search-space dataset of §4.1.4 (30 apps on Skylake 4114,
/// Table 2's 147 configurations).
pub fn large_space_dataset(opts: RunOpts) -> OmpDataset {
    let cpu = CpuSpec::skylake_4114();
    let mut specs = mga_kernels::catalog::large_space_apps();
    let mut sizes = openmp_input_sizes();
    if opts.quick {
        specs.truncate(10);
        sizes = sizes.into_iter().step_by(6).collect();
    } else {
        // The paper evaluates per-app; 10 input sizes keep the full run
        // tractable while still exercising the cache ladder.
        sizes = sizes.into_iter().step_by(3).collect();
    }
    let space = mga_sim::openmp::large_space();
    OmpDataset::build(specs, sizes, space, cpu, vec_dim(opts), opts.seed)
}

fn pick_every(specs: Vec<KernelSpec>, stride: usize) -> Vec<KernelSpec> {
    specs.into_iter().step_by(stride.max(1)).collect()
}

/// Render a labeled ASCII bar (for figure-like terminal output).
pub fn bar(label: &str, value: f64, max: f64, width: usize) -> String {
    let frac = (value / max).clamp(0.0, 1.0);
    let filled = (frac * width as f64).round() as usize;
    format!(
        "{label:<28} {:>6.3} |{}{}|",
        value,
        "█".repeat(filled),
        " ".repeat(width - filled)
    )
}

/// Print a section heading.
pub fn heading(title: &str) {
    println!("\n=== {title} ===");
}

/// Write a CSV alongside the textual output (under `results/csv/`), so
/// the figures can be re-plotted. Errors are reported but non-fatal —
/// experiments still print their tables.
pub fn csv_write(name: &str, header: &str, rows: &[String]) {
    let dir = std::path::Path::new("results/csv");
    if let Err(e) = std::fs::create_dir_all(dir) {
        mga_obs::error!("csv: cannot create {dir:?}: {e}");
        return;
    }
    let path = dir.join(format!("{name}.csv"));
    let mut body = String::with_capacity(rows.len() * 32 + header.len() + 1);
    body.push_str(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    match std::fs::write(&path, body) {
        Ok(()) => mga_obs::info!("csv written to {}", path.display()),
        Err(e) => mga_obs::error!("csv: cannot write {path:?}: {e}"),
    }
}

/// Geometric mean helper re-exported for binaries.
pub use mga_core::metrics::geomean;

/// Format an `OmpConfig` compactly.
pub fn cfg_str(c: &OmpConfig) -> String {
    format!(
        "{} threads, {} schedule, chunk {}",
        c.threads,
        c.schedule.name(),
        if c.chunk == 0 {
            "default".to_string()
        } else {
            c.chunk.to_string()
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_datasets_build() {
        let opts = RunOpts {
            quick: true,
            seed: 1,
            quiet: false,
        };
        let ds = thread_dataset(opts);
        assert!(ds.specs.len() >= 10);
        assert_eq!(ds.sizes.len(), 6);
        assert_eq!(ds.space.len(), 8);
        let ds2 = large_space_dataset(opts);
        assert_eq!(ds2.specs.len(), 10);
        assert_eq!(ds2.space.len(), 147);
    }

    #[test]
    fn bar_renders_bounded() {
        let s = bar("x", 0.5, 1.0, 10);
        assert!(s.contains("█████"));
        let s2 = bar("x", 2.0, 1.0, 10);
        assert!(s2.contains(&"█".repeat(10)));
    }
}
