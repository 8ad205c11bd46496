//! CI perf-smoke gate: compares a fresh `--json` results file against
//! the committed baseline and fails on large regressions.
//!
//! ```text
//! perfgate --baseline BENCH_s1.json --current fresh.json
//! ```
//!
//! Exit codes: `0` pass, `1` regression detected, `2` usage/parse error.
//! The rules are [`GateConfig::default`]: only rows whose engine starts
//! with `FDB` are gated; timing fails past 3× the baseline (clamped up
//! to a 1 ms noise floor) — deliberately generous so that shared CI
//! runners don't flake the build, since the gate exists to catch
//! order-of-magnitude storage regressions, not single-digit percents.
//! Rows carrying an `ibytes=` note (intermediate bytes allocated by the
//! staged plan execution) are additionally gated on memory at 1.2×,
//! since allocation is deterministic.

use fdb_bench::perf::{compare, parse_results, GateConfig};

const USAGE: &str = "usage: perfgate --baseline PATH --current PATH";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path: Option<String> = None;
    let mut current_path: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        let value = || -> String {
            argv.get(i + 1)
                .unwrap_or_else(|| {
                    eprintln!("missing value for {}", argv[i]);
                    std::process::exit(2);
                })
                .clone()
        };
        match argv[i].as_str() {
            "--baseline" => baseline_path = Some(value()),
            "--current" => current_path = Some(value()),
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag `{other}`; {USAGE}");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    let (Some(baseline_path), Some(current_path)) = (baseline_path, current_path) else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let read = |path: &str| -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    let parse = |path: &str, text: &str| {
        parse_results(text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(2);
        })
    };
    let baseline = parse(&baseline_path, &read(&baseline_path));
    let current = parse(&current_path, &read(&current_path));
    let cfg = GateConfig::default();
    let verdicts = compare(&baseline, &current, &cfg);
    if verdicts.is_empty() {
        eprintln!(
            "no gated rows matched engine prefix `{}` — refusing to pass an empty gate",
            cfg.engine_prefix
        );
        std::process::exit(2);
    }
    let mut failed = false;
    println!(
        "# perf gate: max-ratio {}, floor {} ms, max-mem-ratio {}, prefix `{}`",
        cfg.max_ratio,
        cfg.floor_secs * 1000.0,
        cfg.max_mem_ratio,
        cfg.engine_prefix
    );
    for v in &verdicts {
        let status = if v.failed { "FAIL" } else { "ok  " };
        failed |= v.failed;
        println!(
            "{status} {key} [{metric}]: baseline {base:.6} current {cur:.6} ratio {ratio:.2}",
            key = v.key,
            metric = v.metric.label(),
            base = v.baseline,
            cur = v.current,
            ratio = v.ratio,
        );
    }
    if failed {
        eprintln!(
            "perf gate FAILED: at least one gated row regressed past {}x",
            cfg.max_ratio
        );
        std::process::exit(1);
    }
    println!("# perf gate passed ({} rows)", verdicts.len());
}
