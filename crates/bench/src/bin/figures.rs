//! The paper's evaluation (§6), Figures 4–8 — one figure per run.
//!
//! * **4** — the effect of dataset scale (Experiment 1): the AGG queries
//!   Q2 and Q3 on the materialised view `R1` at scales 1, 2, 4, … up to
//!   `--max-scale`. FDB (factorised view, flat output) against the
//!   sort-based and hash-based relational baselines (standing in for
//!   SQLite and PostgreSQL — see DESIGN.md §3.4); the gap must widen with
//!   scale, tracking the succinctness gap between the representations.
//! * **5** — all AGG queries on the view at a fixed scale (Experiment 1):
//!   Q1–Q5 with four engine flavours, `FDB f/o` (factorised output — for
//!   Q1 the win over flat output is the enumeration cost of the large
//!   result), `FDB` (flat output, like the relational engines) and the
//!   two relational baselines. The extended aggregate surface
//!   (QD/QP/QB/QK/QG: distinct, product, quantifiers, top-k-per-group,
//!   ROLLUP) runs through the same sweep, so figure 5's claims cover its
//!   evaluators.
//! * **6** — AGG queries on flat input, no materialised view
//!   (Experiment 2). FDB factorises on the fly (product + merge
//!   selections + partial aggregation); the relational baselines run
//!   both their own lazy plans and the manually optimised
//!   eager-aggregation plans ("man" in the paper, automated here by the
//!   Yan–Larson planner).
//! * **7** — AGG+ORD queries on the view (Experiment 3). Q6's order by
//!   customer is already realised by Q2's result structure, Q7 re-orders
//!   by the aggregation result via consolidation plus one swap, and
//!   Q8/Q9 are two different orders over Q3's result: ordering should
//!   add little to the aggregate's cost for FDB.
//! * **8** — ORD queries with and without `LIMIT 10` (Experiment 4:
//!   partial sorting via restructuring). Q10 asks for the stored order;
//!   Q11 for a different order the f-tree *also* supports; Q12 needs one
//!   swap for FDB (the `RDB` rows are the flatten-and-sort alternative);
//!   Q13 re-sorts the Orders relation, where FDB swaps date and customer
//!   and keeps the package lists sorted. The `lim` variants return the
//!   first 10 tuples: constant-delay enumeration makes them nearly free
//!   for FDB after restructuring, while the baselines pay the full sort.
//!
//! Every run then checks its figure's claims, each a ratio between rows
//! timed in the same process (so independent of the machine), prints
//! one `claim=<name> ratio=<r> bound=<b> ok|FAIL` line per claim, and
//! exits 1 when a claim fails or names a row the run did not print (2 on
//! a usage error). The bounds come from runs on a 2-core Xeon (release
//! build, seed `0xFDB`, 100 customers; EXPERIMENTS.md "The reproduction
//! asserts the paper").
//!
//! ```text
//! figures --fig {4,5,6,7,8} [--scale N] [--max-scale N] [--repeats N]
//!         [--customers N]
//! ```
//!
//! Default scale: 4, except figure 6 (2); figure 4 sweeps up to
//! `--max-scale` (default 4, at least 2) and ignores `--scale`.
//!
//! `cargo run --release -p fdb-bench --bin figures -- --fig 5 --scale 8`

use fdb_bench::queries::flat_input_agg_queries;
use fdb_bench::{
    check, exit_code, figure5_queries, median_secs, paper_queries, Args, BenchEnv, BenchSetup,
    Claim, Emitter, QueryClass,
};
use fdb_relational::engine::PlanMode;
use fdb_relational::GroupStrategy;
use fdb_workload::orders::OrdersConfig;

const USAGE: &str = "usage: figures --fig {4,5,6,7,8} [--scale N] [--max-scale N] \
                     [--repeats N] [--customers N]";

/// One figure's sweep, writing its rows to the emitter.
type Run = fn(&Args, &mut Emitter);

/// Claims at one scale, as `(query, slower engine, faster engine,
/// bound)`: `slower ÷ faster` on the query reaches the bound.
type Table = &'static [(&'static str, &'static str, &'static str, f64)];

/// Figure 4, at every scale of the sweep: FDB beats `RDB hash`.
const FIG4: Table = &[
    ("Q2", "RDB hash", "FDB", 28.0),
    ("Q3", "RDB hash", "FDB", 6.5),
];

/// Figure 5 below scale 4: FDB, with flat and with factorised output,
/// beats `RDB hash` on every query, and factorised output beats flat
/// output on Q1, whose result is large. Each `RDB hash` bound is the
/// geometric middle of a third of the highest ratio measured (so a 3×
/// slowdown of the FDB row fails it) and two thirds of the lowest (so
/// the measured ratio clears it by 1.5×). Where the runs spread more
/// than 2× (Q5 and QK here, Q4 at s=4) the two margins are equal and
/// under 1.5×.
#[rustfmt::skip]
const FIG5_S1: Table = &[
    ("Q1", "FDB", "FDB f/o", 1.2),
    ("Q1", "RDB hash", "FDB", 30.0), ("Q1", "RDB hash", "FDB f/o", 78.0),
    ("Q2", "RDB hash", "FDB", 38.0), ("Q2", "RDB hash", "FDB f/o", 36.0),
    ("Q3", "RDB hash", "FDB", 9.8), ("Q3", "RDB hash", "FDB f/o", 13.0),
    ("Q4", "RDB hash", "FDB", 160.0), ("Q4", "RDB hash", "FDB f/o", 160.0),
    ("Q5", "RDB hash", "FDB", 120.0), ("Q5", "RDB hash", "FDB f/o", 120.0),
    ("QD", "RDB hash", "FDB", 8.2), ("QD", "RDB hash", "FDB f/o", 8.2),
    ("QP", "RDB hash", "FDB", 46.0), ("QP", "RDB hash", "FDB f/o", 36.0),
    ("QB", "RDB hash", "FDB", 400.0), ("QB", "RDB hash", "FDB f/o", 370.0),
    ("QK", "RDB hash", "FDB", 12.0), ("QK", "RDB hash", "FDB f/o", 13.0),
    ("QG", "RDB hash", "FDB", 10.0), ("QG", "RDB hash", "FDB f/o", 11.0),
];

/// Figure 5 from scale 4 up: the same claims, with bounds set the same
/// way from s=4 runs (the gap widens with scale, figure 4).
#[rustfmt::skip]
const FIG5_S4: Table = &[
    ("Q1", "FDB", "FDB f/o", 1.2),
    ("Q1", "RDB hash", "FDB", 43.0), ("Q1", "RDB hash", "FDB f/o", 120.0),
    ("Q2", "RDB hash", "FDB", 76.0), ("Q2", "RDB hash", "FDB f/o", 72.0),
    ("Q3", "RDB hash", "FDB", 17.0), ("Q3", "RDB hash", "FDB f/o", 23.0),
    ("Q4", "RDB hash", "FDB", 220.0), ("Q4", "RDB hash", "FDB f/o", 210.0),
    ("Q5", "RDB hash", "FDB", 230.0), ("Q5", "RDB hash", "FDB f/o", 220.0),
    ("QD", "RDB hash", "FDB", 20.0), ("QD", "RDB hash", "FDB f/o", 23.0),
    ("QP", "RDB hash", "FDB", 92.0), ("QP", "RDB hash", "FDB f/o", 87.0),
    ("QB", "RDB hash", "FDB", 960.0), ("QB", "RDB hash", "FDB f/o", 910.0),
    ("QK", "RDB hash", "FDB", 37.0), ("QK", "RDB hash", "FDB f/o", 36.0),
    ("QG", "RDB hash", "FDB", 16.0), ("QG", "RDB hash", "FDB f/o", 16.0),
];

/// Figure 6: FDB on flat input beats the naive `RDB hash` plan on Q1–Q5
/// and the eager `RDB hash man` plan (the faster `man`) on Q1–Q3. On Q4
/// and Q5 the eager plans win here, against the paper; that gap is an
/// open ROADMAP item, not a claim.
#[rustfmt::skip]
const FIG6: Table = &[
    ("Q1", "RDB hash", "FDB", 6.5), ("Q1", "RDB hash man", "FDB", 7.0),
    ("Q2", "RDB hash", "FDB", 4.5), ("Q2", "RDB hash man", "FDB", 1.2),
    ("Q3", "RDB hash", "FDB", 4.0), ("Q3", "RDB hash man", "FDB", 3.5),
    ("Q4", "RDB hash", "FDB", 9.5),
    ("Q5", "RDB hash", "FDB", 6.5),
];

/// Figure 7: FDB beats `RDB hash` on Q6–Q9, so ordering adds little to
/// its aggregate.
#[rustfmt::skip]
const FIG7: Table = &[
    ("Q6", "RDB hash", "FDB", 30.0), ("Q7", "RDB hash", "FDB", 28.0),
    ("Q8", "RDB hash", "FDB", 5.0), ("Q9", "RDB hash", "FDB", 8.0),
];

/// Figure 8: `FDB lim` beats both FDB's full order and `RDB lim` on
/// Q10–Q13, and FDB's full order beats `RDB`'s on Q11–Q13. On Q10 `RDB`
/// only scans its stored copy, which already has the order, and wins,
/// as the paper expects (Experiment 4), so Q10 has no full-order claim.
#[rustfmt::skip]
const FIG8: Table = &[
    ("Q10", "FDB", "FDB lim", 1000.0), ("Q10", "RDB lim", "FDB lim", 150.0),
    ("Q11", "FDB", "FDB lim", 1000.0), ("Q11", "RDB lim", "FDB lim", 4000.0),
    ("Q11", "RDB", "FDB", 1.7),
    ("Q12", "FDB", "FDB lim", 23.0), ("Q12", "RDB lim", "FDB lim", 48.0),
    ("Q12", "RDB", "FDB", 1.2),
    ("Q13", "FDB", "FDB lim", 1.2), ("Q13", "RDB lim", "FDB lim", 2.8),
    ("Q13", "RDB", "FDB", 1.2),
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        std::process::exit(0);
    }
    let args = Args::parse_from(&argv).unwrap_or_else(|e| {
        eprintln!("{e}; {USAGE}");
        std::process::exit(2);
    });
    let mut emit = Emitter::new(args.fig);
    figure(args.fig)(&args, &mut emit);
    let outcomes = check(&claims(&args), &emit.rows);
    for outcome in &outcomes {
        println!("{outcome}");
    }
    std::process::exit(exit_code(&outcomes));
}

fn figure(fig: u32) -> Run {
    match fig {
        4 => fig4,
        5 => fig5,
        6 => fig6,
        7 => fig7,
        8 => fig8,
        _ => unreachable!("Args::parse_from admits figures 4 to 8"),
    }
}

/// The claims of this run's figure. Figure 4's also include that the
/// gap widens from the first scale of the sweep to the last, claimed
/// over Q2 and Q3 together: at `--max-scale 2` the sub-millisecond Q2
/// rows alone spread from 0.8× to 1.9×.
fn claims(args: &Args) -> Vec<Claim> {
    let beats = |scale, table: Table| -> Vec<Claim> {
        let claim = |&(q, slower, faster, bound)| Claim::beats(scale, q, slower, faster, bound);
        table.iter().map(claim).collect()
    };
    match args.fig {
        4 => {
            let sweep = args.sweep();
            let (first, last) = (sweep[0], sweep[sweep.len() - 1]);
            let mut claims: Vec<Claim> = sweep.iter().flat_map(|&s| beats(s, FIG4)).collect();
            let widens = Claim::widens(first, last, &["Q2", "Q3"], "RDB hash", "FDB", 1.1);
            claims.push(widens);
            claims
        }
        5 if args.scale >= 4 => beats(args.scale, FIG5_S4),
        5 => beats(args.scale, FIG5_S1),
        6 => beats(args.scale, FIG6),
        7 => beats(args.scale, FIG7),
        8 => beats(args.scale, FIG8),
        _ => unreachable!("Args::parse_from admits figures 4 to 8"),
    }
}

/// Both engine families over the Orders dataset at `scale`.
fn env_at(args: &Args, scale: u32, materialise_flat: bool) -> BenchEnv {
    BenchSetup {
        config: OrdersConfig {
            scale,
            customers: args.customers,
            seed: 0xFDB,
        },
        materialise_flat,
    }
    .build()
}

/// The two relational baselines' rows for `task`, one per plan mode:
/// `RDB sort` and `RDB hash` for the naive plans, suffixed ` man` for
/// the eager ones.
fn rdb_rows(
    env: &mut BenchEnv,
    args: &Args,
    emit: &mut Emitter,
    q: &str,
    task: &fdb_relational::planner::JoinAggTask,
    modes: &[PlanMode],
) {
    for (engine, strategy) in [
        ("RDB sort", GroupStrategy::Sort),
        ("RDB hash", GroupStrategy::Hash),
    ] {
        for &mode in modes {
            let (n, t) = median_secs(args.repeats, || env.run_rdb(task, strategy, mode));
            let suffix = if mode == PlanMode::Eager { " man" } else { "" };
            emit.row(
                env.scale,
                q,
                &format!("{engine}{suffix}"),
                t,
                &format!("rows={n}"),
            );
        }
    }
}

fn fig4(args: &Args, emit: &mut Emitter) {
    println!("# Figure 4: wall-clock time vs database scale for Q2 and Q3");
    println!("# engines: FDB (factorised view) | RDB sort (SQLite-like) | RDB hash (PSQL-like)");
    for scale in args.sweep() {
        let mut env = env_at(args, scale, true);
        println!(
            "# scale {scale}: flat view {} tuples, factorised view {} singletons",
            env.flat_tuples, env.view_singletons
        );
        let attrs = env.attrs;
        let queries = paper_queries(&mut env.fdb.catalog, &attrs);
        env.share_catalog();
        for q in queries.iter().filter(|q| q.name == "Q2" || q.name == "Q3") {
            let (n, t) = median_secs(args.repeats, || env.run_fdb_flat(&q.task));
            emit.row(scale, q.name, "FDB", t, &format!("rows={n}"));
            rdb_rows(&mut env, args, emit, q.name, &q.task, &[PlanMode::Naive]);
        }
    }
}

fn fig5(args: &Args, emit: &mut Emitter) {
    let scale = args.scale;
    println!("# Figure 5: AGG queries on the materialised view R1 at scale {scale}");
    let mut env = env_at(args, scale, true);
    println!(
        "# flat view {} tuples, factorised view {} singletons ({} arena bytes)",
        env.flat_tuples, env.view_singletons, env.view_bytes
    );
    let attrs = env.attrs;
    let queries = figure5_queries(&mut env.fdb.catalog, &attrs);
    env.share_catalog();
    for q in &queries {
        let (res, t) = median_secs(args.repeats, || env.run_fdb_fo(&q.task));
        let (st, exec) = (res.rep().stats(), res.exec_stats());
        emit.row(
            scale,
            q.name,
            "FDB f/o",
            t,
            &format!(
                "singletons={} bytes={} ibytes={} copies_avoided={}",
                st.singletons, st.bytes, exec.intermediate_bytes, exec.copies_avoided
            ),
        );
        let (n, t) = median_secs(args.repeats, || env.run_fdb_flat(&q.task));
        emit.row(scale, q.name, "FDB", t, &format!("rows={n}"));
        rdb_rows(&mut env, args, emit, q.name, &q.task, &[PlanMode::Naive]);
    }
}

fn fig6(args: &Args, emit: &mut Emitter) {
    let scale = args.scale;
    println!("# Figure 6: AGG queries on flat input (no materialised view) at scale {scale}");
    let mut env = env_at(args, scale, false);
    let attrs = env.attrs;
    let queries = flat_input_agg_queries(&mut env.fdb.catalog, &attrs);
    env.share_catalog();
    for q in &queries {
        let (res, t) = median_secs(args.repeats, || env.run_fdb_fo(&q.task));
        let note = format!("singletons={}", res.singleton_count());
        emit.row(scale, q.name, "FDB f/o", t, &note);
        let (n, t) = median_secs(args.repeats, || env.run_fdb_flat(&q.task));
        emit.row(scale, q.name, "FDB", t, &format!("rows={n}"));
        let modes = [PlanMode::Naive, PlanMode::Eager];
        rdb_rows(&mut env, args, emit, q.name, &q.task, &modes);
    }
}

fn fig7(args: &Args, emit: &mut Emitter) {
    let scale = args.scale;
    println!("# Figure 7: AGG+ORD queries on the materialised view R1 at scale {scale}");
    let mut env = env_at(args, scale, true);
    let attrs = env.attrs;
    let queries = paper_queries(&mut env.fdb.catalog, &attrs);
    env.share_catalog();
    for q in queries.iter().filter(|q| q.class == QueryClass::AggOrd) {
        let (n, t) = median_secs(args.repeats, || env.run_fdb_flat(&q.task));
        emit.row(scale, q.name, "FDB", t, &format!("rows={n}"));
        rdb_rows(&mut env, args, emit, q.name, &q.task, &[PlanMode::Naive]);
    }
}

fn fig8(args: &Args, emit: &mut Emitter) {
    let scale = args.scale;
    println!("# Figure 8: ORD queries ± LIMIT 10 on materialised views at scale {scale}");
    let mut env = env_at(args, scale, true);
    let attrs = env.attrs;
    let queries = paper_queries(&mut env.fdb.catalog, &attrs);
    env.share_catalog();
    for q in queries.iter().filter(|q| q.class == QueryClass::Ord) {
        for limit in [None, Some(10usize)] {
            let mut task = q.task.clone();
            task.limit = limit;
            let suffix = if limit.is_some() { " lim" } else { "" };
            let ((_, n), t) = env.run_fdb_flat_fresh(&task, args.repeats);
            emit.row(
                scale,
                q.name,
                &format!("FDB{suffix}"),
                t,
                &format!("rows={n}"),
            );
            let keys = task.order_by.clone();
            let (n, t) = median_secs(args.repeats, || env.run_rdb_ord(q.input, &keys, limit));
            emit.row(
                scale,
                q.name,
                &format!("RDB{suffix}"),
                t,
                &format!("rows={n}"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny run of every figure prints every row its claims name. No
    /// timing is asserted: at 8 customers the ratios mean nothing.
    #[test]
    fn every_claim_finds_its_rows() {
        for fig in 4..=8 {
            let args = Args {
                fig,
                scale: 1,
                max_scale: 2,
                repeats: 1,
                customers: 8,
            };
            let mut emit = Emitter::new(fig);
            figure(fig)(&args, &mut emit);
            let outcomes = check(&claims(&args), &emit.rows);
            assert!(!outcomes.is_empty(), "figure {fig} claims nothing");
            for outcome in outcomes {
                assert!(outcome.ratio.is_ok(), "figure {fig}: {outcome}");
            }
        }
    }
}
