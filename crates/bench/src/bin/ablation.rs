//! Ablations of FDB's design choices (DESIGN.md per-experiment index):
//!
//! 1. **Partial aggregation on/off** — Q2 evaluated (a) with the greedy
//!    plan's partial aggregation operators, vs (b) a single final
//!    aggregation operator per group with no pre-reduction (the grouped
//!    evaluation over raw subtrees). Partial aggregation shrinks the
//!    intermediate factorisations (§3.1).
//! 2. **Restructure vs re-sort** — Q12's order needs one swap on the
//!    factorised view; the ablation compares the swap against flattening
//!    the view and sorting it from scratch (what a relational engine must
//!    do).
//! 3. **Greedy vs exhaustive** — plan costs and planning time on the
//!    pizzeria query (the benchmark queries are in the exhaustive
//!    optimiser's comfortable range too, at tiny scale).
//!
//! `cargo run --release -p fdb-bench --bin ablation -- --scale 4`

use fdb_bench::{median_secs, paper_queries, Args, BenchSetup};
use fdb_core::engine::{ConsolidateMode, RunOptions};
use fdb_core::ftree::AggOp;
use fdb_core::optim::{exhaustive, greedy, tree_cost, ExhaustiveConfig, QuerySpec, Stats};
use fdb_core::plan::apply_to_tree;
use fdb_relational::SortKey;
use fdb_workload::orders::OrdersConfig;

fn main() {
    let args = Args::parse(2, 2);
    let scale = args.scale;
    let mut emit = args.emitter();
    println!("# Ablations at scale {scale}");
    let mut env = BenchSetup {
        config: OrdersConfig {
            scale,
            customers: args.customers,
            seed: 0xFDB,
        },
        materialise_flat: true,
        threads: args.threads,
    }
    .build();
    let attrs = env.attrs;
    let queries = paper_queries(&mut env.fdb.catalog, &attrs);

    // --- 1. Partial aggregation on/off (Q2) -------------------------
    let q2 = queries.iter().find(|q| q.name == "Q2").unwrap();
    let (_, t_partial) = median_secs(args.repeats, || {
        env.fdb
            .run(
                &q2.task,
                RunOptions::new()
                    .consolidate(ConsolidateMode::Never)
                    .threads(env.threads),
            )
            .unwrap()
            .to_relation()
            .unwrap()
            .len()
    });
    emit.row(
        "ablation",
        scale,
        "Q2",
        "partial aggregation",
        t_partial,
        "",
    );
    // Without partial aggregation: group directly on the raw view — walk
    // customer groups of the *restructured but unreduced* factorisation
    // and aggregate each group's subtree from scratch.
    let (_, t_raw) = median_secs(args.repeats, || {
        let rep = env.fdb.view("R1").unwrap().clone();
        let rep = fdb_core::orderby::restructure_for_group(rep, &[attrs.customer]).unwrap();
        let spec =
            fdb_core::enumerate::EnumSpec::group_prefix(rep.ftree(), &[attrs.customer]).unwrap();
        let mut cur = fdb_core::enumerate::GroupCursor::new(&rep, &spec).unwrap();
        let mut n = 0usize;
        while let Some((_, dangling)) = cur.next_group() {
            let _ = fdb_core::agg::eval_funcs(rep.ftree(), dangling, &[AggOp::Sum(attrs.price)])
                .unwrap();
            n += 1;
        }
        n
    });
    emit.row("ablation", scale, "Q2", "no partial aggregation", t_raw, "");

    // --- 2. Restructure vs re-sort (Q12's order) --------------------
    let order = vec![
        SortKey::asc(attrs.date),
        SortKey::asc(attrs.package),
        SortKey::asc(attrs.item),
    ];
    let (_, t_swap) = median_secs(args.repeats, || {
        let rep = env.fdb.view("R1").unwrap().clone();
        let rep = fdb_core::orderby::restructure_for_order(rep, &order).unwrap();
        rep.singleton_count()
    });
    emit.row("ablation", scale, "Q12", "restructure (swap)", t_swap, "");
    let (_, t_sort) = median_secs(args.repeats, || {
        let rep = env.fdb.view("R1").unwrap();
        let mut flat = rep.flatten();
        flat.sort_by_keys(&order);
        flat.len()
    });
    emit.row("ablation", scale, "Q12", "flatten + full sort", t_sort, "");

    // --- 3. Greedy vs exhaustive plan cost --------------------------
    let rep = env.fdb.view("R1").unwrap().clone();
    let mut stats = Stats::new();
    for edge in rep.ftree().deps() {
        stats.add_relation(edge.iter().copied(), env.flat_tuples);
    }
    let revenue = env.fdb.catalog.fresh("revenue_ablation");
    let mut spec = QuerySpec {
        group_by: vec![attrs.customer],
        final_funcs: vec![AggOp::Sum(attrs.price)],
        final_outputs: vec![revenue],
        consolidate: false,
        ..Default::default()
    };
    let plan_cost = |plan: &fdb_core::FPlan| {
        let mut tree = rep.ftree().clone();
        let mut total = 0.0;
        for op in &plan.ops {
            apply_to_tree(&mut tree, op).unwrap();
            total += tree_cost(&tree, &stats);
        }
        total
    };
    let (gplan, t_g) = median_secs(args.repeats, || {
        greedy(rep.ftree(), &spec, &stats, &mut env.fdb.catalog).unwrap()
    });
    emit.row(
        "ablation",
        scale,
        "Q2-plan",
        "greedy",
        t_g,
        &format!("cost={:.1} ops={}", plan_cost(&gplan), gplan.len()),
    );
    spec.final_outputs = vec![env.fdb.catalog.fresh("revenue_ablation")];
    let (xplan, t_x) = median_secs(args.repeats, || {
        exhaustive(
            rep.ftree(),
            &spec,
            &stats,
            &mut env.fdb.catalog,
            ExhaustiveConfig::default(),
        )
        .unwrap()
    });
    emit.row(
        "ablation",
        scale,
        "Q2-plan",
        "exhaustive",
        t_x,
        &format!("cost={:.1} ops={}", plan_cost(&xplan), xplan.len()),
    );
    emit.finish();
}
