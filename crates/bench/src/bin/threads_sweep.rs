//! Threads sweep — the multi-core campaign (scale fixed, worker count
//! varied) plus a skewed-workload scheduler row.
//!
//! Runs the AGG queries Q1–Q5 through both FDB flavours at `--threads`
//! 1, 2, 4 and 0 (= the machine), tagging each configuration's rows
//! (`t1`/`t2`/`t4`/`t0`) so they gate independently under `perfgate`.
//! `BENCH_threads_s1.json` in the repository root is the recorded
//! `--scale 1` baseline.
//!
//! The `SKEW` row times the morsel-driven work-stealing scheduler on a
//! skewed per-group aggregation: one group holds ~90% of the entries,
//! the rest spread over many small groups — the shape that would
//! serialise a one-chunk-per-worker carve behind the giant group's
//! worker. Each group is folded by the slice kernel.
//!
//! `cargo run --release -p fdb-bench --bin threads_sweep -- --scale 1 \
//!    --json BENCH_threads_s1.json`

use fdb_bench::{median_secs, paper_queries, Args, BenchSetup, QueryClass};
use fdb_relational::{Number, Value};
use fdb_workload::orders::OrdersConfig;

/// Skewed grouping: one giant group with ~90% of the values, the rest
/// split over `small` equal groups. Returns the value buffer and the
/// per-group `(start, len)` ranges, giant first.
fn skewed_groups(total: usize, small: usize) -> (Vec<Value>, Vec<(usize, usize)>) {
    let giant = total * 9 / 10;
    let values: Vec<Value> = (0..total as i64).map(Value::Int).collect();
    let mut ranges = vec![(0usize, giant)];
    let rest = total - giant;
    let per = rest.div_ceil(small).max(1);
    let mut at = giant;
    while at < total {
        let len = per.min(total - at);
        ranges.push((at, len));
        at += len;
    }
    (values, ranges)
}

/// The slice-kernel inner loop: branch-predictable scan, wrapping adds.
fn kernel_sum(vals: &[Value]) -> Number {
    let mut acc = 0i64;
    for v in vals {
        if let Value::Int(x) = v {
            acc = acc.wrapping_add(*x);
        }
    }
    Number::Int(acc)
}

fn main() {
    let args = Args::parse(1, 1);
    let scale = args.scale;
    let mut emit = args.emitter();
    println!("# Threads sweep: AGG queries at scale {scale}, workers 1/2/4/machine");
    for threads in [1usize, 2, 4, 0] {
        let tag = format!("t{threads}");
        let mut env = BenchSetup {
            config: OrdersConfig {
                scale,
                customers: args.customers,
                seed: 0xFDB,
            },
            materialise_flat: true,
            threads,
        }
        .build();
        println!(
            "# {tag}: resolved {} worker thread(s), flat view {} tuples",
            env.threads, env.flat_tuples
        );
        let attrs = env.attrs;
        let queries = paper_queries(&mut env.fdb.catalog, &attrs);
        for q in queries.iter().filter(|q| q.class == QueryClass::Agg) {
            let ((st, exec), t) = median_secs(args.repeats, || env.run_fdb_fo_report(&q.task));
            emit.row_tagged(
                "T",
                scale,
                q.name,
                "FDB f/o",
                &tag,
                t,
                &format!(
                    "workers={} singletons={} ibytes={}",
                    env.threads, st.singletons, exec.intermediate_bytes
                ),
            );
            let (n, t) = median_secs(args.repeats, || env.run_fdb_flat(&q.task));
            emit.row_tagged(
                "T",
                scale,
                q.name,
                "FDB",
                &tag,
                t,
                &format!("workers={} rows={n}", env.threads),
            );
        }
    }

    // Skewed-workload scheduler row at 4 requested workers: one group
    // holds 90% of the entries.
    let total = 200_000 * scale as usize;
    let (values, ranges) = skewed_groups(total, 63);
    let groups = ranges.len();
    println!("# SKEW: {total} entries, {groups} groups, giant group = 90%");
    let (sums, t_morsel) = median_secs(args.repeats, || {
        fdb_exec::parallel_map(4, ranges.clone(), |(at, len)| {
            kernel_sum(&values[at..at + len])
        })
    });
    let serial: Vec<Number> = ranges
        .iter()
        .map(|&(at, len)| kernel_sum(&values[at..at + len]))
        .collect();
    assert_eq!(sums, serial, "scheduler changed the results");
    emit.row_tagged(
        "T",
        scale,
        "SKEW",
        "FDB",
        "morsel-t4",
        t_morsel,
        &format!("groups={groups} entries={total}"),
    );
    emit.finish();
}
