//! Workload identities and set-up: from a seed to a populated
//! [`fdb::Db`] (and, for `serve_mixed`, a running in-process server).

use crate::trace::{Tracer, NO_OP};
use fdb::core::{FRep, FTree};
use fdb::relational::SortKey;
use fdb::workload::orders::{generate, OrdersConfig};
use fdb::{Catalog, Db, FdbEngine};
use fdb_server::{Client, ServerHandle, ServerOptions};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The seed the golden file was made for (`OrdersConfig::default`'s).
pub const DEFAULT_SEED: u64 = 0xFDB;

/// The generator's customer count at every scale (unpublished in the
/// paper; the repo fixes 100).
const CUSTOMERS: u32 = 100;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Workload {
    AggFo,
    AggFlat,
    OrderPage,
    ViewChurn,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::AggFo,
        Workload::AggFlat,
        Workload::OrderPage,
        Workload::ViewChurn,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AggFo => "agg_fo",
            Workload::AggFlat => "agg_flat",
            Workload::OrderPage => "order_page",
            Workload::ViewChurn => "view_churn",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists — which layers do its work.
    pub fn why(self) -> &'static str {
        match self {
            Workload::AggFo => {
                "small-output aggregates on view R1: plan search, f-plan execution and \
                 aggregation do the work, flatten and render almost none (the paper's FDB f/o)"
            }
            Workload::AggFlat => {
                "large-output aggregates on R1 (10^4-10^5 rows): enumeration to a Relation and \
                 rendering dominate, so a flatten or render win shows here and not on agg_fo"
            }
            Workload::OrderPage => {
                "ORDER BY ... LIMIT/OFFSET pages: restructuring, count-index seeks, heap top-k \
                 and the ordering cost model carry it; output is tiny"
            }
            Workload::ViewChurn => {
                "INSERT/DELETE on view R1 with read-backs on fresh sessions: the write path \
                 (delta update, copy-on-write clone, predicate delete) beside snapshot reads"
            }
            Workload::ServeMixed => {
                "TCP server, Zipf-skewed reads with ~2% writes: protocol, plan cache hits and \
                 misses, worker hand-off, snapshot refresh and epoch purges do the work"
            }
        }
    }

    /// The paper's scale parameter `s` the workload runs at; `--quick`
    /// and `--verify` run everything at 1.
    pub fn scale(self, quick: bool) -> u32 {
        if quick {
            return 1;
        }
        match self {
            Workload::AggFo | Workload::AggFlat | Workload::OrderPage => 4,
            Workload::ViewChurn => 2,
            Workload::ServeMixed => 1,
        }
    }
}

/// What the op generator needs to know about the data: key-space
/// sizes for seeded constants and result sizes for seeded offsets.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub scale: u32,
    pub customers: u32,
    pub packages: u32,
    pub items: u32,
    pub dates: u32,
    /// `|Orders|` = rows of `R3`.
    pub orders: usize,
    /// `|R1|` as flat tuples.
    pub flat_tuples: usize,
    /// Distinct `(date, package)` pairs — groups of Q3/Q8/Q9.
    pub date_package_groups: usize,
    pub view_singletons: usize,
    /// Capacity-aware arena footprint of `R1`.
    pub view_bytes: usize,
}

/// A populated database ready for its first warm-up operation.
pub struct Env {
    pub workload: Workload,
    pub seed: u64,
    pub db: Db,
    pub summary: Summary,
    /// `serve_mixed` only: the server the clients connect to.
    pub server: Option<ServerHandle>,
}

impl Env {
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server
            .as_ref()
            .expect("only serve_mixed runs a server")
            .addr()
    }
}

/// Directory for files the benchmark writes (`trace.json`, run
/// records, the serialised view): `out/` beside this package's
/// manifest, so every write stays inside the checkout.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the benchmark's output directory");
    dir
}

/// Builds everything between process start and the first warm-up
/// operation — `setup_s` times exactly this call.
///
/// Every workload registers the base relations and the factorised view
/// `R1`; `order_page` adds the Orders trie `R3`; `serve_mixed` writes
/// `R1` to an `fdbv1` file, spawns the server with product defaults
/// (`workers(0)` = auto) and registers the view through the `LOAD`
/// verb, so its set-up covers `core::io` too.
pub fn build_env(workload: Workload, seed: u64, scale: u32, tr: &mut Tracer) -> Env {
    let setup = tr.enter("setup", NO_OP);
    let mut catalog = Catalog::new();
    let cfg = OrdersConfig {
        scale,
        customers: CUSTOMERS,
        seed,
    };
    let ds = tr.leaf("workload.generate", NO_OP, || generate(&mut catalog, &cfg));
    let a = ds.attrs;
    let view = tr.leaf("workload.factorised_view", NO_OP, || ds.factorised_view());
    let view_stats = view.stats();
    let date_package_groups = {
        let (d, p) = (
            ds.orders.schema().position(a.date).expect("Orders.date"),
            ds.orders
                .schema()
                .position(a.package)
                .expect("Orders.package"),
        );
        ds.orders
            .rows()
            .map(|r| (r[d].as_int(), r[p].as_int()))
            .collect::<BTreeSet<_>>()
            .len()
    };
    let summary = Summary {
        scale,
        customers: cfg.customers,
        packages: cfg.packages(),
        items: cfg.items(),
        dates: cfg.dates(),
        orders: ds.orders.len(),
        flat_tuples: ds.flat_join_size(),
        date_package_groups,
        view_singletons: view_stats.singletons,
        view_bytes: view_stats.bytes,
    };

    let r3 = (workload == Workload::OrderPage).then(|| {
        // R3 = o_{date,customer,package}(Orders): the trie in exactly
        // that attribute order, as the figure benches build it.
        let mut flat = ds.orders.project_cols(&[a.date, a.customer, a.package]);
        flat.sort_by_keys(&[
            SortKey::asc(a.date),
            SortKey::asc(a.customer),
            SortKey::asc(a.package),
        ]);
        tr.leaf("core.frep.build", NO_OP, || {
            FRep::from_relation_with(&flat, FTree::path(&[a.date, a.customer, a.package]), 1)
                .expect("Orders factorises over its trie")
        })
    });

    let mut env = Env {
        workload,
        seed,
        db: Db::open(),
        summary,
        server: None,
    };
    if workload == Workload::ServeMixed {
        let path = out_dir().join(format!("R1-{}.fdbv1", std::process::id()));
        tr.leaf("setup.write_view", NO_OP, || {
            let file = std::fs::File::create(&path).expect("create the view file");
            let mut w = std::io::BufWriter::new(file);
            fdb::core::io::write_frep(&view, &catalog, &mut w).expect("serialise R1");
            std::io::Write::flush(&mut w).expect("flush the view file");
        });
        drop(view);
        let mut engine = FdbEngine::new(catalog);
        engine.register_relation("Orders", ds.orders);
        engine.register_relation("Packages", ds.packages);
        engine.register_relation("Items", ds.items);
        env.db = Db::from_engine(engine);
        let server = fdb_server::spawn(
            env.db.clone(),
            "127.0.0.1:0",
            ServerOptions::new().workers(0),
        )
        .expect("spawn the in-process server");
        let mut client = Client::connect(server.addr()).expect("connect to the server");
        tr.leaf("setup.load_view", NO_OP, || {
            client
                .request(&format!("LOAD R1 {}", path.display()))
                .expect("LOAD transport")
                .expect("LOAD R1 succeeds");
        });
        client.quit().expect("close the set-up connection");
        let _ = std::fs::remove_file(&path);
        env.server = Some(server);
    } else {
        let mut engine = FdbEngine::new(catalog);
        engine.register_view("R1", view);
        if let Some(r3) = r3 {
            engine.register_view("R3", r3);
        }
        engine.register_relation("Orders", ds.orders);
        engine.register_relation("Packages", ds.packages);
        engine.register_relation("Items", ds.items);
        env.db = Db::from_engine(engine);
    }
    tr.exit(setup);
    env
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(
                w.why().len() <= 200,
                "`why` must fit BENCHMARK.json's limit"
            );
            assert_eq!(w.scale(true), 1);
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn same_seed_builds_the_same_dataset_and_another_seed_does_not() {
        let build = |seed| {
            let env = build_env(Workload::OrderPage, seed, 1, &mut Tracer::new());
            let mut s = env.db.session();
            let view = s.engine_mut().view_arc("R1").expect("R1 registered");
            let r3 = s.engine_mut().view_arc("R3").expect("R3 registered");
            (env.summary, view, r3)
        };
        let (sum_a, view_a, r3_a) = build(11);
        let (sum_b, view_b, r3_b) = build(11);
        assert_eq!(sum_a, sum_b);
        assert!(view_a.same_data(&view_b) && r3_a.same_data(&r3_b));
        let (sum_c, view_c, _) = build(12);
        assert!(sum_a != sum_c || !view_a.same_data(&view_c));
        assert_eq!(sum_a.flat_tuples, view_a.tuple_count());
        assert_eq!(sum_a.orders, r3_a.tuple_count());
    }

    #[test]
    fn serve_mixed_loads_the_view_through_the_server() {
        let env = build_env(Workload::ServeMixed, 3, 1, &mut Tracer::new());
        let (relations, views) = env.db.input_names();
        assert_eq!(relations, ["Items", "Orders", "Packages"]);
        assert_eq!(views, ["R1"]);
    }
}
