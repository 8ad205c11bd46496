//! The allocation gate of figure 5: the intermediate arena bytes each
//! `FDB f/o` plan allocates (`ExecStats::intermediate_bytes`, printed as
//! `ibytes=` in the figure's rows) are deterministic, so they are
//! checked here, at s=1 with 100 customers and seed `0xFDB`, against the
//! bound recorded per query. A query fails above `1.2 × max(bound,
//! 64 KiB)`: the slack absorbs record-layout and allocator differences
//! across toolchains, and the floor keeps a bound of a few hundred bytes
//! from failing on tens of bytes of growth.

use fdb_bench::{figure5_queries, BenchSetup};
use fdb_workload::orders::OrdersConfig;

/// Intermediate bytes per figure-5 query, in the figure's order.
const BOUNDS: [(&str, usize); 10] = [
    ("Q1", 2_756),
    ("Q2", 9_060),
    ("Q3", 1_084_036),
    ("Q4", 6_376),
    ("Q5", 368),
    ("QD", 1_124_476),
    ("QP", 9_060),
    ("QB", 6_376),
    ("QK", 649_544),
    // The sum over ROLLUP (customer, date)'s three sets: 695 084 + 9 060
    // + 368.
    ("QG", 704_512),
];

fn within(ibytes: usize, bound: usize) -> bool {
    ibytes as f64 <= 1.2 * bound.max(64 * 1024) as f64
}

#[test]
fn figure5_plans_allocate_within_their_bounds() {
    let mut env = BenchSetup {
        config: OrdersConfig {
            scale: 1,
            customers: 100,
            seed: 0xFDB,
        },
        materialise_flat: false,
    }
    .build();
    let attrs = env.attrs;
    let queries = figure5_queries(&mut env.fdb.catalog, &attrs);
    // A query without a bound, or a bound without its query, fails.
    let names: Vec<&str> = queries.iter().map(|q| q.name).collect();
    assert_eq!(names, BOUNDS.map(|(q, _)| q));
    let over: Vec<String> = queries
        .iter()
        .zip(BOUNDS)
        .filter_map(|(q, (_, bound))| {
            let ibytes = env.run_fdb_fo(&q.task).exec_stats().intermediate_bytes;
            (!within(ibytes, bound)).then(|| format!("{}: {ibytes} B, bound {bound} B", q.name))
        })
        .collect();
    assert!(over.is_empty(), "intermediate bytes past 1.2x: {over:?}");
}

#[test]
fn growth_past_the_slack_fails() {
    assert!(within(1_100_000, 1_000_000));
    assert!(within(1_200_000, 1_000_000));
    assert!(!within(1_300_000, 1_000_000));
}

#[test]
fn the_floor_absorbs_tiny_bounds() {
    assert!(within(900, 368));
    assert!(within(78_643, 368));
    assert!(!within(78_644, 368));
}
