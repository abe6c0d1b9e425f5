//! Bench-regression gate (CI helper): compare a freshly measured
//! `BENCH_train.json` against the committed baseline and fail on
//! regression.
//!
//! Usage: `bench_check BASELINE CURRENT [--max-regression PCT] [--gate NAMES]`.
//!
//! Both files are `bench_report`/`serve_bench` output (one `{name,
//! iters, ns_per_iter}` record per line; other keys on a line, such as
//! the machine shape, are ignored). By default only the training
//! steady-state hot paths are gated — `train_epoch` and
//! `inference_one_sample` — because the other entries (fold
//! preparation, whole-fold inference) are dominated by one-off work too
//! noisy for a shared CI runner; `--gate a,b,c` overrides the gated set
//! (e.g. `--gate serve_one_request,serve_throughput,serve_p99` against
//! `BENCH_serve.json` baselines). A gated entry fails if its current
//! ns/iter exceeds the
//! baseline by more than the allowed regression (default 15%).
//! Improvements always pass (and are reported, so the baseline can be
//! refreshed).

const GATED: [&str; 2] = ["train_epoch", "inference_one_sample"];

/// Extract `name → ns_per_iter` from the bench_report JSONL at `path`.
fn read_report(path: &str) -> Result<Vec<(String, f64)>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_report(path, &body)
}

/// Extract `name → ns_per_iter` from bench_report JSONL read from `path`.
fn parse_report(path: &str, body: &str) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    for (i, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = mga_obs::json::parse(line)
            .map_err(|e| format!("{path}:{}: invalid JSON: {e}", i + 1))?;
        let mga_obs::json::Json::Obj(obj) = doc else {
            return Err(format!("{path}:{}: line must be a JSON object", i + 1));
        };
        let get = |k: &str| obj.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        let (Some(mga_obs::json::Json::Str(name)), Some(mga_obs::json::Json::Num(ns))) =
            (get("name"), get("ns_per_iter"))
        else {
            return Err(format!("{path}:{}: record missing name/ns_per_iter", i + 1));
        };
        out.push((name.clone(), *ns));
    }
    if out.is_empty() {
        return Err(format!("{path}: no benchmark records found"));
    }
    Ok(out)
}

fn lookup(report: &[(String, f64)], name: &str) -> Option<f64> {
    report.iter().find(|(n, _)| n == name).map(|(_, ns)| *ns)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut max_regression = 0.15f64;
    let mut gated: Vec<String> = GATED.iter().map(|s| s.to_string()).collect();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--max-regression" {
            let pct = args
                .get(i + 1)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or_else(|| {
                    eprintln!("--max-regression requires a numeric percentage");
                    std::process::exit(2);
                });
            max_regression = pct / 100.0;
            i += 2;
        } else if args[i] == "--gate" {
            let names = args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("--gate requires a comma-separated benchmark-name list");
                std::process::exit(2);
            });
            gated = names
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            if gated.is_empty() {
                eprintln!("--gate requires at least one benchmark name");
                std::process::exit(2);
            }
            i += 2;
        } else {
            positional.push(args[i].clone());
            i += 1;
        }
    }
    let [baseline_path, current_path] = positional.as_slice() else {
        eprintln!("usage: bench_check BASELINE CURRENT [--max-regression PCT] [--gate NAMES]");
        std::process::exit(2);
    };

    let baseline = read_report(baseline_path).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let current = read_report(current_path).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });

    let mut failed = false;
    for name in &gated {
        let (Some(base), Some(cur)) = (lookup(&baseline, name), lookup(&current, name)) else {
            eprintln!("bench_check: \"{name}\" missing from baseline or current report");
            failed = true;
            continue;
        };
        let ratio = cur / base;
        let delta_pct = (ratio - 1.0) * 100.0;
        let verdict = if ratio > 1.0 + max_regression {
            failed = true;
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "{name:<24} baseline {base:>14.1} ns  current {cur:>14.1} ns  {delta_pct:>+7.1}%  {verdict}"
        );
    }
    if failed {
        eprintln!(
            "bench_check: regression beyond {:.0}% on a gated benchmark",
            max_regression * 100.0
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A line stamped with the machine shape reads like one without it.
    #[test]
    fn reads_records_that_carry_the_machine_shape() {
        let stamped = mga_bench::bench_record("matmul_pair_ratio", 1, 688.0);
        assert!(stamped.contains("\"simd\"") && stamped.contains("\"nproc\""));
        let body = format!(
            "{{\"name\": \"train_epoch\", \"iters\": 48, \"ns_per_iter\": 10289963.0}}\n{stamped}\n"
        );
        let report = parse_report("BENCH_train.json", &body).expect("both lines parse");
        assert_eq!(lookup(&report, "train_epoch"), Some(10289963.0));
        assert_eq!(lookup(&report, "matmul_pair_ratio"), Some(688.0));
    }
}
