//! The timed (untraced) run: set-up, warm-up, a fixed measured window
//! of closed-loop operations, every response checked.

use crate::calib::{Calibrator, Speed};
use crate::check::{write_lines, Checker, GoldenMap};
use crate::data::{build_env, Env, Workload};
use crate::ops::{self, Op, Stmt, Verb};
use crate::serve::{fetch_stats, ServerStats};
use crate::stats;
use crate::trace::Tracer;
use fdb::{Db, Session};
use fdb_server::Client;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A statement with its texts built ahead of the timed loop: composing
/// SQL is the generator's work, not the engine's.
pub struct Prepared {
    pub stmt: Stmt,
    /// Library form (and the key of the golden file).
    pub sql: String,
    /// Wire form.
    pub wire: String,
}

pub type PreparedOp = Vec<Prepared>;

pub fn prepare(ops: Vec<Op>) -> Vec<PreparedOp> {
    ops.into_iter()
        .map(|op| {
            op.stmts
                .into_iter()
                .map(|stmt| Prepared {
                    sql: stmt.sql(),
                    wire: stmt.wire(),
                    stmt,
                })
                .collect()
        })
        .collect()
}

/// One statement through the library: SQL text in, rendered payload
/// lines out — for a read the same `Session::query` + `render_outcome`
/// the server's miss path runs, for a write `Db::execute`.
pub fn exec_library(db: &Db, session: &mut Session, p: &Prepared) -> Result<Vec<String>, String> {
    match p.stmt.verb {
        Verb::Query | Verb::Row => session
            .query(&p.sql)
            .map(|out| fdb_server::proto::render_outcome(&out))
            .map_err(|e| e.to_string()),
        Verb::Insert | Verb::Delete => db
            .execute(&p.sql)
            .map(|r| write_lines(r.inserted, r.deleted))
            .map_err(|e| e.to_string()),
    }
}

/// One statement over the wire, transport failures folded into the
/// engine-error side (both are a failed operation).
pub fn exec_wire(client: &mut Client, p: &Prepared) -> Result<Vec<String>, String> {
    client
        .request(&p.wire)
        .map_err(|e| format!("transport: {e}"))?
}

/// Connections `serve_mixed` drives: `min(nproc, 4)`.
pub fn serve_connections() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(4)
}

#[derive(Clone, Copy, Debug)]
pub struct Windows {
    pub warmup: Duration,
    pub measure: Duration,
}

/// What one closed loop (one session or one connection) measured.
#[derive(Default)]
struct LoopResult {
    /// The correct operations of the window.
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    warmup_ops: u64,
    warmup_failed: u64,
    /// First failing statements, for the report.
    failures: Vec<String>,
    /// Start of the first measured op and end of the last one.
    span: Option<(Instant, Instant)>,
    /// The measured part of the window at reference speed: each
    /// iteration's wall time (op + response check, calibration taken
    /// out) divided by the speed factor then in force.
    busy_s: f64,
    /// Every speed factor measured during the loop.
    factors: Vec<f64>,
}

/// One correct operation of the measured window.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// When it completed, in seconds since the window opened.
    pub at_s: f64,
    /// Its latency in ms at reference speed, and as the wall clock
    /// read it.
    pub ms: f64,
    pub raw_ms: f64,
}

/// One iteration of a closed loop, as [`LoopResult::record`] takes it.
struct Iteration {
    measuring: bool,
    /// When the measured window opened.
    window_open: Instant,
    started: Instant,
    latency: Duration,
    /// Wall time of the whole iteration, calibration excluded.
    work: Duration,
    factor: f64,
    bad: Option<String>,
}

impl LoopResult {
    fn record(&mut self, it: Iteration) {
        let ended = it.started + it.latency;
        if it.measuring {
            self.span = Some((self.span.map_or(it.started, |(s, _)| s), ended));
            self.attempted += 1;
            self.busy_s += it.work.as_secs_f64() / it.factor;
        } else {
            self.warmup_ops += 1;
        }
        match it.bad {
            None if it.measuring => {
                let raw_ms = it.latency.as_secs_f64() * 1e3;
                self.samples.push(Sample {
                    at_s: (ended - it.window_open).as_secs_f64(),
                    ms: raw_ms / it.factor,
                    raw_ms,
                });
            }
            None => {}
            Some(what) => {
                if it.measuring {
                    self.failed += 1;
                } else {
                    self.warmup_failed += 1;
                }
                if self.failures.len() < 5 {
                    self.failures.push(what);
                }
            }
        }
    }
}

/// Runs `body` on successive ops of the cycle until the window closes.
/// `body` returns the op's latency and, if a response was wrong, which.
fn closed_loop(
    ops: &[PreparedOp],
    windows: Windows,
    start: Instant,
    mut body: impl FnMut(usize, &PreparedOp) -> (Duration, Option<String>),
) -> LoopResult {
    let warm_end = start + windows.warmup;
    let end = warm_end + windows.measure;
    let mut out = LoopResult::default();
    let mut speed = Speed::start();
    for i in 0.. {
        let started = Instant::now();
        if started >= end {
            break;
        }
        let (latency, bad) = body(i, &ops[i % ops.len()]);
        let done = Instant::now();
        out.record(Iteration {
            measuring: started >= warm_end,
            window_open: warm_end,
            started,
            latency,
            work: done - started,
            factor: speed.now(),
            bad,
        });
    }
    out.factors = speed.factors;
    out
}

/// The result of a timed run, before it is turned into metrics.
pub struct Timed {
    /// Each set-up's seconds at reference speed, and by the wall clock.
    pub setup_s: Vec<f64>,
    pub raw_setup_s: Vec<f64>,
    /// The correct operations of the window, of all loops.
    pub samples: Vec<Sample>,
    /// The window's nominal length in seconds.
    pub window_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub warmup_ops: u64,
    pub warmup_failed: u64,
    /// Length of the measured part: by the wall clock, and at
    /// reference speed (mean over the loops).
    pub elapsed_s: f64,
    pub busy_s: f64,
    /// Every speed factor measured in the window's loops.
    pub factors: Vec<f64>,
    pub failures: Vec<String>,
    pub connections: usize,
    /// `serve_mixed`: the server's counters after the window.
    pub server: Option<ServerStats>,
    pub summary: crate::data::Summary,
}

impl Timed {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.warmup_failed == 0 && self.failures.is_empty()
    }
}

/// Builds the environment `setups` times (dropping each before the
/// next, so memory does not pile up) and keeps the last; returns every
/// set-up's seconds, at reference speed and raw.
pub fn repeated_setup(
    workload: Workload,
    seed: u64,
    scale: u32,
    setups: usize,
) -> (Env, Vec<f64>, Vec<f64>) {
    let mut calibrator = Calibrator::new();
    calibrator.factor();
    let mut times = Vec::with_capacity(setups);
    let mut raw = Vec::with_capacity(setups);
    let mut env: Option<Env> = None;
    for _ in 0..setups.max(1) {
        drop(env.take());
        let before = calibrator.factor();
        let t0 = Instant::now();
        let built = build_env(workload, seed, scale, &mut Tracer::new());
        let secs = t0.elapsed().as_secs_f64();
        let factor = (before + calibrator.factor()) / 2.0;
        raw.push(secs);
        times.push(secs / factor);
        env = Some(built);
    }
    (env.expect("at least one set-up"), times, raw)
}

pub fn run_timed(
    workload: Workload,
    seed: u64,
    scale: u32,
    windows: Windows,
    setups: usize,
    golden: Option<Arc<GoldenMap>>,
) -> Timed {
    let (env, setup_s, raw_setup_s) = repeated_setup(workload, seed, scale, setups);
    // `peak_rss_mb` is the peak from here on: the loaded inputs plus
    // what queries and serving add, not the transients of building
    // the inputs several times over.
    reset_peak_rss();
    let mut timed = Timed {
        setup_s,
        raw_setup_s,
        samples: Vec::new(),
        window_s: windows.measure.as_secs_f64(),
        attempted: 0,
        failed: 0,
        warmup_ops: 0,
        warmup_failed: 0,
        elapsed_s: 0.0,
        busy_s: 0.0,
        factors: Vec::new(),
        failures: Vec::new(),
        connections: 1,
        server: None,
        summary: env.summary.clone(),
    };
    let loops: Vec<LoopResult> = if workload == Workload::ServeMixed {
        timed.connections = serve_connections();
        run_serve(&env, seed, windows, golden, timed.connections, &mut timed)
    } else {
        vec![run_library(&env, seed, windows, golden, &mut timed)]
    };

    let mut span: Option<(Instant, Instant)> = None;
    let n_loops = loops.len() as f64;
    for l in loops {
        timed.samples.extend(l.samples);
        timed.busy_s += l.busy_s / n_loops;
        timed.factors.extend(l.factors);
        timed.attempted += l.attempted;
        timed.failed += l.failed;
        timed.warmup_ops += l.warmup_ops;
        timed.warmup_failed += l.warmup_failed;
        timed.failures.extend(l.failures);
        if let Some((s, e)) = l.span {
            span = Some(span.map_or((s, e), |(s0, e0)| (s0.min(s), e0.max(e))));
        }
    }
    timed.elapsed_s = span.map_or(0.0, |(s, e)| (e - s).as_secs_f64());
    timed
}

fn run_library(
    env: &Env,
    seed: u64,
    windows: Windows,
    golden: Option<Arc<GoldenMap>>,
    timed: &mut Timed,
) -> LoopResult {
    let workload = env.workload;
    let ops = prepare(ops::library_ops(workload, seed, &env.summary));
    let mut checker = Checker::new(golden);
    let db = &env.db;
    let churn = workload == Workload::ViewChurn;
    // view_churn: the view before any write, and a session cut then.
    let initial_view = churn.then(|| {
        db.session()
            .engine_mut()
            .view_arc("R1")
            .expect("R1 registered")
    });
    let snapshot_stmt = prepare(vec![Op {
        stmts: vec![ops::reference_stmt()],
    }])
    .remove(0)
    .remove(0);
    let mut snapshot_session = db.session();
    let mut session = db.session();

    let result = closed_loop(&ops, windows, Instant::now(), |i, op| {
        let mut responses = Vec::with_capacity(op.len());
        let t0 = Instant::now();
        for p in op {
            if churn && !p.stmt.is_write() {
                // Read-backs run on a session cut after the write.
                session = db.session();
            }
            responses.push(exec_library(db, &mut session, p));
        }
        let latency = t0.elapsed();
        let mut bad = op
            .iter()
            .zip(&responses)
            .find(|(p, r)| !checker.check(&p.stmt, &p.sql, r))
            .map(|(p, r)| describe_failure(p, r));
        if churn && i % ops::CHURN_SNAPSHOT_EVERY == 0 {
            // The pre-churn snapshot must keep answering as it did.
            let r = exec_library(db, &mut snapshot_session, &snapshot_stmt);
            if !checker.check(&snapshot_stmt.stmt, &snapshot_stmt.sql, &r) {
                bad = bad.or(Some(format!(
                    "pre-churn session changed: {}",
                    describe_failure(&snapshot_stmt, &r)
                )));
            }
        }
        (latency, bad)
    });

    if let Some(initial) = initial_view {
        let now = db
            .session()
            .engine_mut()
            .view_arc("R1")
            .expect("R1 registered");
        if !now.same_data(&initial) {
            timed
                .failures
                .push("view R1 differs from its initial state after the churn".into());
        }
    }
    result
}

fn run_serve(
    env: &Env,
    seed: u64,
    windows: Windows,
    golden: Option<Arc<GoldenMap>>,
    connections: usize,
    timed: &mut Timed,
) -> Vec<LoopResult> {
    let addr = env.addr();
    let cycles: Vec<Vec<PreparedOp>> = (0..connections)
        .map(|c| prepare(ops::serve_ops(seed, c, &env.summary)))
        .collect();
    let start = Instant::now();
    let (results, checkers): (Vec<LoopResult>, Vec<Checker>) = std::thread::scope(|scope| {
        let handles: Vec<_> = cycles
            .iter()
            .map(|ops| {
                let golden = golden.clone();
                scope.spawn(move || {
                    let mut checker = Checker::new(golden);
                    let mut client = Client::connect(addr).expect("connect to the server");
                    let result = closed_loop(ops, windows, start, |_, op| {
                        let t0 = Instant::now();
                        let responses: Vec<_> =
                            op.iter().map(|p| exec_wire(&mut client, p)).collect();
                        let latency = t0.elapsed();
                        let bad = op
                            .iter()
                            .zip(&responses)
                            .find(|(p, r)| !checker.check(&p.stmt, &p.sql, r))
                            .map(|(p, r)| describe_failure(p, r));
                        (latency, bad)
                    });
                    client.quit().expect("close the connection");
                    (result, checker)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .unzip()
    });
    let disagreements = Checker::merge_disagreements(&checkers);
    if disagreements > 0 {
        timed.failures.push(format!(
            "{disagreements} statement(s) answered differently on different connections"
        ));
    }
    let mut client = Client::connect(addr).expect("connect for STATS");
    match fetch_stats(&mut client) {
        Ok(stats) => {
            if stats.errors > 0 {
                timed
                    .failures
                    .push(format!("server counted {} errors", stats.errors));
            }
            timed.server = Some(stats);
        }
        Err(e) => timed.failures.push(e),
    }
    client.quit().expect("close the STATS connection");
    results
}

pub fn describe_failure(p: &Prepared, response: &Result<Vec<String>, String>) -> String {
    match response {
        Err(e) => format!("`{}` failed: {e}", p.wire),
        Ok(lines) => format!(
            "`{}` answered {} line(s) that do not match the expected response",
            p.wire,
            lines.len()
        ),
    }
}

/// One reported figure.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples (spans, operations, set-ups) the value was computed from.
    pub samples: usize,
}

/// The six end-to-end figures of one run. Times are at reference
/// speed (see [`crate::calib`]); `raw_*` are the wall clock's.
pub struct EndToEnd {
    pub setup_s: f64,
    pub throughput_ops_s: f64,
    pub op_p50_ms: f64,
    /// The tail latency and which percentile it is (0.95 whenever the
    /// window holds ≥ 200 samples).
    pub op_tail_ms: f64,
    pub tail_percentile: f64,
    pub failed_ops_ratio: f64,
    pub peak_rss_mb: f64,
    pub samples: usize,
    pub raw_setup_s: f64,
    pub raw_throughput_ops_s: f64,
    pub raw_op_p50_ms: f64,
    pub raw_op_tail_ms: f64,
    /// Median speed factor over the window (1.0 = reference speed).
    pub speed_factor: f64,
}

impl EndToEnd {
    /// The `BENCHMARK.json` end-to-end metrics; `setups` is how many
    /// set-ups `setup_s` is the median of.
    pub fn metrics(&self, setups: usize) -> Vec<Metric> {
        [
            ("setup_s", "s", self.setup_s, setups),
            (
                "throughput_ops_s",
                "ops/s",
                self.throughput_ops_s,
                self.samples,
            ),
            ("op_p50_ms", "ms", self.op_p50_ms, self.samples),
            ("op_p95_ms", "ms", self.op_tail_ms, self.samples),
            ("peak_rss_mb", "MB", self.peak_rss_mb, 1),
        ]
        .into_iter()
        .map(|(name, unit, value, samples)| Metric {
            name,
            unit,
            value,
            samples,
        })
        .collect()
    }
}

pub fn end_to_end(timed: &Timed) -> Result<EndToEnd, String> {
    let n = timed.samples.len();
    let tail = stats::tail_percentile(n).ok_or_else(|| {
        format!("only {n} correct operations in the window; 20 are the least a percentile needs")
    })?;
    // Percentiles are medians over the window's time slices, so that a
    // burst of outside disturbance spoils one slice, not the figure.
    let points = |value: fn(&Sample) -> f64| -> Vec<(f64, f64)> {
        timed.samples.iter().map(|s| (s.at_s, value(s))).collect()
    };
    let (norm, raw) = (points(|s| s.ms), points(|s| s.raw_ms));
    let sliced = |points: &[(f64, f64)], p| stats::sliced_percentile(points, timed.window_s, p);
    Ok(EndToEnd {
        setup_s: stats::median(&timed.setup_s).expect("at least one set-up"),
        throughput_ops_s: n as f64 / timed.busy_s,
        op_p50_ms: sliced(&norm, 0.50),
        op_tail_ms: sliced(&norm, tail),
        tail_percentile: tail,
        failed_ops_ratio: timed.failed as f64 / timed.attempted.max(1) as f64,
        peak_rss_mb: peak_rss_mb(),
        samples: n,
        raw_setup_s: stats::median(&timed.raw_setup_s).expect("at least one set-up"),
        raw_throughput_ops_s: n as f64 / timed.elapsed_s,
        raw_op_p50_ms: sliced(&raw, 0.50),
        raw_op_tail_ms: sliced(&raw, tail),
        speed_factor: stats::median(&timed.factors).unwrap_or(1.0),
    })
}

/// Restarts the kernel's peak-RSS watermark (`VmHWM`) at the current
/// RSS, so that a workload run after others in one process reports its
/// own peak. Best effort: where `/proc/self/clear_refs` is not
/// writable the watermark simply keeps the process-wide peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MB (0 where `/proc` does not offer it).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DEFAULT_SEED;

    fn quick() -> Windows {
        Windows {
            warmup: Duration::from_millis(100),
            measure: Duration::from_millis(600),
        }
    }

    #[test]
    fn every_workload_runs_clean_at_scale_one() {
        for w in Workload::ALL {
            let timed = run_timed(w, DEFAULT_SEED + 1, 1, quick(), 1, None);
            assert!(
                timed.correct(),
                "{}: {} failed, warm-up {} failed, {:?}",
                w.name(),
                timed.failed,
                timed.warmup_failed,
                timed.failures
            );
            assert!(timed.attempted > 0 && timed.elapsed_s > 0.0, "{}", w.name());
            assert_eq!(timed.samples.len() as u64, timed.attempted);
        }
    }

    #[test]
    fn a_wrong_response_is_counted_not_ignored() {
        // A golden map that knows no statement: every read must fail.
        let empty = Some(Arc::new(GoldenMap::new()));
        let timed = run_timed(Workload::AggFo, 5, 1, quick(), 1, empty);
        assert!(!timed.correct());
        assert_eq!(timed.failed, timed.attempted);
        assert!(timed.samples.is_empty());
        assert!(end_to_end(&timed).is_err());
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 1.0);
    }
}
