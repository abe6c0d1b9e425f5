//! `mga-perfbench` — the end-to-end benchmark of the MGA system.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|serve_hot|devmap_churn> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Workloads (every input is generated from `--seed`):
//!
//! * `train` — full-batch training epochs of the Fig. 4 thread-prediction
//!   model (heterogeneous GNN + DAE fusion) over the quick thread
//!   dataset. One operation is one epoch.
//! * `serve_hot` — the batched serving engine answering thread-prediction
//!   requests for kernels whose static embeddings are all resident in the
//!   cache: every lookup hits, so time goes to scaling, trunk and heads.
//!   One operation is one request.
//! * `devmap_churn` — the serving engine answering CPU/GPU device-mapping
//!   requests drawn uniformly from 64 kernels through an 8-entry cache:
//!   most lookups miss and pay the GNN + DAE slow path. One operation is
//!   one request.
//!
//! A run is a sequence of identical rounds, repeated until the measured
//! time reaches `--seconds` (and at least [`MIN_ROUNDS`] times). A round
//! sets the workload up from scratch (dataset, model, engine; timed as
//! set-up), warms it up, then runs a fixed amount of work in sessions of
//! [`SESSION`] operations. Repeating the same work, rather than running
//! for a fixed time, keeps a faster or slower host from changing what is
//! measured: training cost depends on where in its trajectory the model
//! is.
//!
//! End-to-end metrics (`--trace 0`):
//!
//! * `cal_latency_p50_us` — each session's median operation latency,
//!   calibrated to the host's quiet speed (see [`hostspeed`]); the run
//!   reports the median over its sessions.
//! * `setup_s` — median over the run's rounds of the set-up time,
//!   calibrated the same way by probes taken just before and after it.
//!
//! Why calibrated: on a shared two-vCPU host the same work runs at one
//! speed in quiet phases and up to twice as slowly when neighbours contend
//! for the core, in phases from milliseconds to minutes long. Measured
//! latencies of runs minutes apart spread by up to half their median; no
//! percentile taken within a run removes a phase that outlasts the run.
//! Scaling by a reference loop timed in the same sessions cancels most of
//! the host's speed. Measured (uncalibrated) latency, throughput and each
//! session's 90th percentile are printed to standard error.
//!
//! Warm-up and measured sessions run inside `mga_nn::pool::inline_scope`,
//! on the calling thread alone: with two pool threads on two vCPUs every
//! data-parallel epoch waits for the slower vCPU, which tripled the
//! run-to-run spread of epoch latency. Set-up uses the pool as the
//! program does, which halved the spread of `setup_s`.
//!
//! Every output is checked: training losses must stay finite and fall,
//! training-set predictions must beat the majority class, every round
//! must set up (and train) bitwise-identical weights, every served response
//! must equal the model's batch prediction for that sample, and each
//! serving workload must show the cache behaviour it exists for. With
//! `--trace 1` the run measures the same rounds with span tracing on and
//! reports the per-layer ledger instead (see [`ledger`]). The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`.

mod hostspeed;
mod ledger;
mod serve;
mod train;

use std::process::ExitCode;

/// Fewest rounds in a run, so `setup_s` is always a median of several.
pub const MIN_ROUNDS: usize = 3;

/// Operations per session, the unit latency percentiles are taken over.
pub const SESSION: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Train,
    ServeHot,
    DevmapChurn,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "train" => Some(Workload::Train),
            "serve_hot" => Some(Workload::ServeHot),
            "devmap_churn" => Some(Workload::DevmapChurn),
            _ => None,
        }
    }
}

/// Command-line options, checked where they enter.
pub struct Args {
    workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<u32>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=600"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: f64::from(seconds),
        trace,
    })
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Calibrated seconds of each round's set-up.
    pub setup_s: Vec<f64>,
    /// Each session's median and 90th-percentile operation latency as
    /// measured, and its median calibrated to the host's quiet speed, ns.
    p50_ns: Vec<f64>,
    p90_ns: Vec<f64>,
    cal_p50_ns: Vec<f64>,
    /// Operations completed in the measured sessions, and their wall time.
    pub ops: u64,
    pub wall_ns: f64,
    /// Operations whose output was wrong or that returned an error.
    pub failed: u64,
    /// Failed whole-run checks, by name.
    pub problems: Vec<String>,
    /// Per-layer metrics (`--trace 1` only).
    pub layers: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Should another round run?
    pub fn wants_round(&self, args: &Args) -> bool {
        self.setup_s.len() < MIN_ROUNDS || self.wall_ns < args.seconds * 1e9
    }

    /// Book one session: its operations' latencies (ns), the host-speed
    /// probes taken through it (at least one), and its wall time without
    /// them.
    pub fn add_session(&mut self, latencies_ns: &mut [f64], probes: &[f64], wall_ns: f64) {
        assert_eq!(
            latencies_ns.len(),
            SESSION,
            "a session is SESSION operations"
        );
        latencies_ns.sort_by(f64::total_cmp);
        let p50 = percentile(latencies_ns, 50.0);
        self.p50_ns.push(p50);
        self.p90_ns.push(percentile(latencies_ns, 90.0));
        self.cal_p50_ns
            .push(p50 * hostspeed::NOMINAL_NS / quantile(probes, 50.0));
        self.ops += SESSION as u64;
        self.wall_ns += wall_ns;
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of unordered samples.
fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

/// Deterministic input stream: SplitMix64 over the run's seed.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The result line, and whether the run was correct.
fn render(outcome: &Outcome, trace: bool) -> (bool, String) {
    let mut correct = outcome.failed == 0 && outcome.problems.is_empty() && outcome.ops > 0;
    let mut metrics: Vec<(&str, f64, &str)> = if trace {
        outcome.layers.clone()
    } else if outcome.ops == 0 {
        Vec::new()
    } else {
        vec![
            (
                "cal_latency_p50_us",
                quantile(&outcome.cal_p50_ns, 50.0) / 1e3,
                "us",
            ),
            ("setup_s", quantile(&outcome.setup_s, 50.0), "s"),
        ]
    };
    for (name, v, _) in metrics.iter_mut() {
        if !v.is_finite() {
            eprintln!("perfbench: metric {name} is not finite");
            correct = false;
            *v = 0.0;
        }
    }
    let body: Vec<String> = metrics
        .iter()
        // `{}` prints the shortest representation that reads back exactly.
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.ops.max(1),
        outcome.failed,
        body.join(", ")
    );
    (correct, line)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <train|serve_hot|devmap_churn> --seed N --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Workload::Train => train::run(&args),
        Workload::ServeHot => serve::run(&args, serve::Traffic::Hot),
        Workload::DevmapChurn => serve::run(&args, serve::Traffic::Churn),
    };
    for p in &outcome.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    eprintln!(
        "perfbench: {} rounds, {} sessions of {SESSION}, {} ops in {:.3} s, {} failed; {} cores, {} pool threads",
        outcome.setup_s.len(),
        outcome.p50_ns.len(),
        outcome.ops,
        outcome.wall_ns / 1e9,
        outcome.failed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        mga_nn::pool::num_threads()
    );
    if !outcome.p90_ns.is_empty() {
        eprintln!(
            "perfbench: measured {:.1} ops/s; median over sessions of the session p50 {:.3} us, p90 {:.3} us",
            outcome.ops as f64 / (outcome.wall_ns / 1e9),
            quantile(&outcome.p50_ns, 50.0) / 1e3,
            quantile(&outcome.p90_ns, 50.0) / 1e3
        );
    }
    let (correct, line) = render(&outcome, args.trace);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
