//! `suite` — the repo's benchmark: five seeded workloads, six
//! end-to-end figures each, per-layer numbers from a traced run.
//!
//! ```text
//! suite [--workload <name>] [--seed <n>] [--seconds <n>] [--trace [0|1]]
//!       [--verify] [--quick] [--repeat <n>] [--regen-golden]
//! ```
//!
//! One workload runs in one process; without `--workload` the five run
//! in turn. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` for the (last)
//! workload run; the line before it is the run record. See README.md.

mod calib;
mod check;
mod data;
mod json;
mod layers;
mod ops;
mod oracle;
mod rng;
mod run;
mod serve;
mod stats;
mod trace;

use check::{fingerprint, golden_path, golden_to_json, load_golden, Fingerprint, GoldenSet};
use data::{build_env, Workload, DEFAULT_SEED};
use json::Json;
use oracle::{same_response, stable_statements, Oracle};
use run::{Metric, Windows};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use trace::Tracer;

const USAGE: &str = "\
suite — seeded end-to-end benchmark of the factorised engine

  --workload <name>   agg_fo | agg_flat | order_page | view_churn | serve_mixed
                      (default: all five in turn)
  --seed <n>          dataset seed and op-sequence seed (default 4059)
  --seconds <n>       measured window of a timed run (default 20)
  --trace [0|1]       1: the traced run (per-layer metrics, writes
                      out/<workload>.trace.json); 0 or absent: the timed run
  --verify            first check every distinct statement at s=1 against
                      the relational oracle
  --quick             s=1, 2 s windows, --verify on
  --repeat <n>        run the set n times, print median and quartiles
  --regen-golden      rewrite golden/seed-4059.json from the oracle at full scale
";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    verify: bool,
    quick: bool,
    repeat: usize,
    regen_golden: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: 20,
        trace: false,
        verify: false,
        quick: false,
        repeat: 1,
        regen_golden: false,
    };
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = Workload::from_name(&name)
                    .ok_or_else(|| format!("unknown workload `{name}`"))?;
                args.workloads = vec![w];
            }
            "--seed" => {
                let v = value("a number")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| format!("bad --seconds `{v}`"))?;
                seconds_given = true;
            }
            "--repeat" => {
                let v = value("a number")?;
                args.repeat = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("bad --repeat `{v}`"))?;
            }
            "--trace" => {
                // A bare flag, or the driver's `--trace 0|1`.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--verify" => args.verify = true,
            "--quick" => args.quick = true,
            "--regen-golden" => args.regen_golden = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.quick {
        args.verify = true;
        if !seconds_given {
            args.seconds = 2;
        }
    }
    Ok(args)
}

/// Warm-up before the window: 3 s, shorter under short windows.
fn warmup_for(seconds: u64) -> Duration {
    Duration::from_secs_f64((seconds as f64 / 4.0).min(3.0))
}

/// Set-ups per timed run (`setup_s` is their median).
fn setups_for(quick: bool) -> usize {
    if quick {
        2
    } else {
        5
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// What every output carries: where the numbers came from.
fn run_record(args: &Args, workload: Workload, scale: u32, golden: bool) -> Vec<(String, Json)> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    vec![
        ("suite".into(), Json::str(env!("CARGO_PKG_VERSION"))),
        (
            "commit".into(),
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "rustc".into(),
            Json::str(command_line("rustc", &["--version"])),
        ),
        ("nproc".into(), Json::Int(nproc as i64)),
        ("workload".into(), Json::str(workload.name())),
        ("why".into(), Json::str(workload.why())),
        ("seed".into(), Json::Int(args.seed as i64)),
        ("scale".into(), Json::Int(i64::from(scale))),
        ("trace".into(), Json::Bool(args.trace)),
        (
            "checked_against".into(),
            Json::str(if golden {
                "golden file (relational oracle)"
            } else {
                "first response per statement"
            }),
        ),
        ("claim".into(), Json::Null),
    ]
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// In report order.
    metrics: Vec<Metric>,
}

impl Outcome {
    /// The contract line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
    }
}

fn print_metrics(workload: Workload, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{:<12} {:<36} {:>16.6} {:<6} n={}",
            workload.name(),
            m.name,
            m.value,
            m.unit,
            m.samples
        );
    }
}

fn run_one(args: &Args, workload: Workload) -> Result<Outcome, String> {
    let scale = workload.scale(args.quick);
    let golden = (args.seed == DEFAULT_SEED)
        .then(|| load_golden(args.seed, workload, scale))
        .flatten()
        .map(Arc::new);
    let mut record = run_record(args, workload, scale, golden.is_some());
    run::reset_peak_rss();

    if args.trace {
        record.push((
            "trace_ops".into(),
            Json::Int(layers::trace_ops(workload) as i64),
        ));
        let layered = layers::run_traced(
            workload,
            args.seed,
            scale,
            golden,
            Json::Obj(record.clone()),
        )?;
        for f in &layered.failures {
            eprintln!("{}: FAILED {f}", workload.name());
        }
        record.push((
            "trace_file".into(),
            Json::str(layered.trace_path.display().to_string()),
        ));
        let metrics = layered.metrics;
        print_metrics(workload, &metrics);
        println!("{}", Json::Obj(record).render());
        return Ok(Outcome {
            correct: layered.failed == 0,
            attempted: layered.attempted.max(1),
            failed: layered.failed,
            metrics,
        });
    }

    let windows = Windows {
        warmup: warmup_for(args.seconds),
        measure: Duration::from_secs(args.seconds),
    };
    let timed = run::run_timed(
        workload,
        args.seed,
        scale,
        windows,
        setups_for(args.quick),
        golden,
    );
    for f in &timed.failures {
        eprintln!("{}: FAILED {f}", workload.name());
    }
    let e2e = run::end_to_end(&timed)?;
    let n = e2e.samples;
    let metrics = e2e.metrics(timed.setup_s.len());
    print_metrics(workload, &metrics);
    print_metrics(
        workload,
        &[Metric {
            name: "failed_ops_ratio",
            unit: "ratio",
            value: e2e.failed_ops_ratio,
            samples: timed.attempted as usize,
        }],
    );
    record.extend([
        (
            "warmup_s".to_string(),
            Json::Num(windows.warmup.as_secs_f64()),
        ),
        (
            "window_s".to_string(),
            Json::Num(windows.measure.as_secs_f64()),
        ),
        ("measured_s".to_string(), Json::Num(timed.elapsed_s)),
        ("setups".to_string(), Json::Int(timed.setup_s.len() as i64)),
        (
            "connections".to_string(),
            Json::Int(timed.connections as i64),
        ),
        ("samples".to_string(), Json::Int(n as i64)),
        ("warmup_ops".to_string(), Json::Int(timed.warmup_ops as i64)),
        (
            "tail_percentile".to_string(),
            Json::Num(e2e.tail_percentile * 100.0),
        ),
        (
            "failed_ops_ratio".to_string(),
            Json::Num(e2e.failed_ops_ratio),
        ),
        ("speed_factor".to_string(), Json::Num(e2e.speed_factor)),
        (
            "speed_factor_range".to_string(),
            Json::Arr(vec![
                Json::Num(timed.factors.iter().copied().fold(f64::MAX, f64::min)),
                Json::Num(timed.factors.iter().copied().fold(0.0, f64::max)),
            ]),
        ),
        ("raw_setup_s".to_string(), Json::Num(e2e.raw_setup_s)),
        (
            "raw_throughput_ops_s".to_string(),
            Json::Num(e2e.raw_throughput_ops_s),
        ),
        ("raw_op_p50_ms".to_string(), Json::Num(e2e.raw_op_p50_ms)),
        ("raw_op_p95_ms".to_string(), Json::Num(e2e.raw_op_tail_ms)),
        (
            "view_singletons".to_string(),
            Json::Int(timed.summary.view_singletons as i64),
        ),
        (
            "flat_tuples".to_string(),
            Json::Int(timed.summary.flat_tuples as i64),
        ),
    ]);
    if let Some(s) = &timed.server {
        let ratio = s.cache_hits as f64 / (s.cache_hits + s.cache_misses).max(1) as f64;
        record.push(("cache_hit_ratio".into(), Json::Num(ratio)));
    }
    println!("{}", Json::Obj(record).render());
    Ok(Outcome {
        correct: timed.correct(),
        attempted: timed.attempted.max(1),
        failed: timed.failed + timed.warmup_failed,
        metrics,
    })
}

/// The statements of `workload` whose answers the oracle can give:
/// every connection's cycle for `serve_mixed`, plus the reference
/// statement.
fn oracle_statements(
    workload: Workload,
    seed: u64,
    summary: &data::Summary,
) -> Vec<(String, ops::Stmt)> {
    let mut all: Vec<ops::Op> = if workload == Workload::ServeMixed {
        (0..4)
            .flat_map(|c| ops::serve_ops(seed, c, summary))
            .collect()
    } else {
        ops::library_ops(workload, seed, summary)
    };
    all.push(ops::Op {
        stmts: vec![ops::reference_stmt()],
    });
    stable_statements(&all)
        .into_iter()
        .map(|(sql, st)| (sql, st.clone()))
        .collect()
}

/// `--verify`: at s=1, every distinct statement through the engine and
/// through the relational oracle on the same snapshot.
fn verify(workload: Workload, seed: u64) -> Result<usize, String> {
    let env = build_env(workload, seed, 1, &mut Tracer::new());
    let statements = oracle_statements(workload, seed, &env.summary);
    let mut oracle = Oracle::new(&env.db);
    let mut session = env.db.session();
    let mut bad = Vec::new();
    for (sql, st) in &statements {
        let want = oracle.lines(st)?;
        match session.query(sql) {
            Ok(out) => {
                let got = fdb_server::proto::render_outcome(&out);
                if !same_response(st.ordered, &got, &want) {
                    bad.push(format!(
                        "`{sql}`: engine {} rows, oracle {} rows",
                        got.len() - 1,
                        want.len() - 1
                    ));
                }
            }
            Err(e) => bad.push(format!("`{sql}`: {e}")),
        }
    }
    if bad.is_empty() {
        Ok(statements.len())
    } else {
        Err(format!(
            "{}: {} of {} statements differ from the oracle, first: {}",
            workload.name(),
            bad.len(),
            statements.len(),
            bad[0]
        ))
    }
}

/// `doc` rendered with a line break between the entries of its lists, so
/// that a committed file diffs entry by entry.
fn entry_per_line(doc: &Json) -> String {
    doc.render().replace("}, {", "},\n{") + "\n"
}

/// `--regen-golden`: the oracle's fingerprints at each workload's full
/// scale, for the default seed.
fn regen_golden() -> Result<(), String> {
    let mut sets = Vec::new();
    for workload in Workload::ALL {
        let scale = workload.scale(false);
        let env = build_env(workload, DEFAULT_SEED, scale, &mut Tracer::new());
        let statements = oracle_statements(workload, DEFAULT_SEED, &env.summary);
        let mut oracle = Oracle::new(&env.db);
        let mut entries: Vec<(String, Fingerprint)> = Vec::with_capacity(statements.len());
        for (sql, st) in &statements {
            entries.push((sql.clone(), fingerprint(&oracle.lines(st)?)));
        }
        eprintln!(
            "golden: {} at s={scale}: {} statements",
            workload.name(),
            entries.len()
        );
        sets.push(GoldenSet {
            workload,
            scale,
            entries,
        });
    }
    let path = golden_path(DEFAULT_SEED);
    std::fs::create_dir_all(path.parent().expect("golden/ directory"))
        .and_then(|()| std::fs::write(&path, entry_per_line(&golden_to_json(DEFAULT_SEED, &sets))))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("golden: wrote {}", path.display());
    Ok(())
}

/// `--repeat`: median and quartiles per (metric, workload), printed and
/// written to `out/noise.json`.
fn report_spread(
    samples: &BTreeMap<(Workload, &'static str), (&'static str, Vec<f64>)>,
) -> Result<(), String> {
    println!("\n# spread over the repeats: median [q1, q3], (q3 - q1) / median");
    let mut rows = Vec::new();
    for ((workload, name), (unit, values)) in samples {
        let [q1, q2, q3] = stats::quartiles(values);
        let spread = stats::quartile_spread(values);
        println!(
            "{:<12} {:<36} {:>14.6} [{:.6}, {:.6}] {:<6} spread={:.4} n={}",
            workload.name(),
            name,
            q2,
            q1,
            q3,
            unit,
            spread,
            values.len()
        );
        rows.push(Json::obj([
            ("workload", Json::str(workload.name())),
            ("metric", Json::str(*name)),
            ("unit", Json::str(*unit)),
            ("median", Json::Num(q2)),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            ("spread", Json::Num(spread)),
            ("runs", Json::Int(values.len() as i64)),
        ]));
    }
    let path = data::out_dir().join("noise.json");
    std::fs::write(&path, entry_per_line(&Json::Arr(rows)))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if cfg!(debug_assertions) {
        return Err("this is a debug build; the benchmark only measures --release builds".into());
    }
    if args.regen_golden {
        regen_golden()?;
        return Ok(true);
    }
    if args.verify {
        for &w in &args.workloads {
            let n = verify(w, args.seed)?;
            println!(
                "{:<12} verify: {n} distinct statements match the relational oracle at s=1",
                w.name()
            );
        }
    }
    let mut all_correct = true;
    let mut last = None;
    let mut samples: BTreeMap<(Workload, &'static str), (&'static str, Vec<f64>)> = BTreeMap::new();
    for _ in 0..args.repeat {
        for &w in &args.workloads {
            let outcome = run_one(&args, w)?;
            all_correct &= outcome.correct;
            for m in &outcome.metrics {
                samples
                    .entry((w, m.name))
                    .or_insert_with(|| (m.unit, Vec::new()))
                    .1
                    .push(m.value);
            }
            println!("{}", outcome.to_json().render());
            last = Some(outcome);
        }
    }
    if args.repeat > 1 {
        report_spread(&samples)?;
        // Keep the contract: the last line is a result object.
        println!("{}", last.expect("at least one run").to_json().render());
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("suite: at least one response was wrong (see FAILED lines)");
            ExitCode::from(1)
        }
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("suite: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is the contract: its workloads, end-to-end and
    /// per-layer lists must be exactly what the suite runs and prints.
    #[test]
    fn benchmark_json_lists_what_the_suite_prints() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let listed = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("a list")
                .iter()
                .map(|e| {
                    e.get(field)
                        .and_then(Json::as_str)
                        .expect("a string")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(
            listed("workloads", "name"),
            Workload::ALL.map(|w| w.name().to_string())
        );
        assert_eq!(
            listed("workloads", "why"),
            Workload::ALL.map(|w| w.why().to_string())
        );
        let paths = listed_strings(&doc, "paths");
        assert_eq!(paths, ["suite"]);
        assert!(listed_strings(&doc, "command").contains(&"suite/Cargo.toml".to_string()));

        let e2e = run::EndToEnd {
            setup_s: 1.0,
            throughput_ops_s: 1.0,
            op_p50_ms: 1.0,
            op_tail_ms: 1.0,
            tail_percentile: 0.95,
            failed_ops_ratio: 0.0,
            peak_rss_mb: 1.0,
            samples: 200,
            raw_setup_s: 1.0,
            raw_throughput_ops_s: 1.0,
            raw_op_p50_ms: 1.0,
            raw_op_tail_ms: 1.0,
            speed_factor: 1.0,
        };
        let printed: Vec<(String, String)> = e2e
            .metrics(5)
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        let want: Vec<(String, String)> = listed("end_to_end", "name")
            .into_iter()
            .zip(listed("end_to_end", "unit"))
            .collect();
        assert_eq!(printed, want);

        let layered = layers::run_traced(Workload::AggFo, 3, 1, None, Json::Null).unwrap();
        assert_eq!(layered.failed, 0, "{:?}", layered.failures);
        let printed: Vec<(String, String)> = layered
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        let want: Vec<(String, String)> = listed("per_layer", "name")
            .into_iter()
            .zip(listed("per_layer", "unit"))
            .collect();
        assert_eq!(printed, want);
        // Every timing has samples behind it on a workload with no
        // writes and no server of its own: the probes cover the rest.
        for m in &layered.metrics {
            assert!(m.samples > 0, "{} has no samples", m.name);
        }
    }

    fn listed_strings(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("a list")
            .iter()
            .map(|s| s.as_str().expect("a string").to_string())
            .collect()
    }
}
