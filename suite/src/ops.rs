//! From a seed to an operation sequence. The engine sees only the SQL
//! text generated here.
//!
//! Every workload's sequence is a fixed-length **cycle** derived from
//! the seed: the timed run walks it round and round, the traced run
//! takes a prefix of it. A finite cycle bounds the set of distinct
//! statements, which is what lets a golden file cover the default
//! seed, and a fixed template rotation (not a random template choice)
//! keeps the latency mix — and so the percentiles — the same from seed
//! to seed while the constants vary.

use crate::data::{Summary, Workload};
use crate::rng::{Rng, Zipf};

/// Operations per cycle of the library workloads.
pub const CYCLE: usize = 300;

/// Operations per connection cycle of `serve_mixed`.
pub const SERVE_CYCLE: usize = 2000;

/// Each `serve_mixed` connection writes one INSERT + DELETE pair per
/// this many of its operations (2 %). The two come back to back: a
/// client adds an order and cancels it, and the cache — purged by each
/// epoch bump — then gets ~98 reads to fill before the next pair.
const WRITE_PAIR_EVERY: usize = 100;

/// Zipf exponent of the `serve_mixed` constants. Tuned once — with the
/// template rotation, key spaces and write pairs of this file and the
/// server's default 64-entry cache — so that `server.cache.hit_ratio`
/// lands mid-way in 0.60–0.80 (0.70 in simulation), then frozen. The
/// skew has to be this steep because every write purges the cache:
/// only repeats within one ~98-read epoch can hit.
const SERVE_ZIPF_S: f64 = 1.7;

/// Tuples per `view_churn` insert statement.
pub const CHURN_TUPLES: usize = 4;

/// The long-lived `view_churn` session is re-queried every this many
/// cycles.
pub const CHURN_SNAPSHOT_EVERY: usize = 50;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// A `SELECT`: `Session::query` in the library, `QUERY` on the wire.
    Query,
    /// The server's `ROW <i> <sql>` point lookup; in the library the
    /// same `LIMIT 1 OFFSET i` the server appends.
    Row,
    Insert,
    Delete,
}

/// What a correct response looks like.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// A pure function of the statement over the initial snapshot:
    /// checked against the golden file (default seed) or against the
    /// first response seen for the same text (other seeds).
    Stable,
    /// The harness knows the exact payload lines (read-backs of rows it
    /// wrote itself).
    Lines(Vec<String>),
    /// A write: the reported change counts.
    Write { inserted: usize, deleted: usize },
}

#[derive(Clone, Debug, PartialEq)]
pub struct Stmt {
    pub verb: Verb,
    /// The statement without its page clause.
    pub base: String,
    pub limit: Option<usize>,
    pub offset: usize,
    /// The `ORDER BY` fixes the row order completely, so responses can
    /// be compared line by line with another engine's.
    pub ordered: bool,
    pub expect: Expect,
}

impl Stmt {
    pub fn select(base: impl Into<String>, ordered: bool) -> Stmt {
        Stmt {
            verb: Verb::Query,
            base: base.into(),
            limit: None,
            offset: 0,
            ordered,
            expect: Expect::Stable,
        }
    }

    fn page(mut self, limit: Option<usize>, offset: usize) -> Stmt {
        self.limit = limit;
        self.offset = offset;
        self
    }

    /// The SQL text as the library runs it (page clause appended).
    pub fn sql(&self) -> String {
        let mut sql = self.base.clone();
        if let Some(k) = self.limit {
            sql.push_str(&format!(" LIMIT {k}"));
        }
        if self.offset > 0 || self.verb == Verb::Row {
            sql.push_str(&format!(" OFFSET {}", self.offset));
        }
        sql
    }

    /// The request line as the wire protocol carries it.
    pub fn wire(&self) -> String {
        match self.verb {
            Verb::Query => format!("QUERY {}", self.sql()),
            Verb::Row => format!("ROW {} {}", self.offset, self.base),
            Verb::Insert | Verb::Delete => self.base.clone(),
        }
    }

    pub fn is_write(&self) -> bool {
        matches!(self.verb, Verb::Insert | Verb::Delete)
    }
}

/// One benchmark operation: the statements issued back to back whose
/// total latency is one sample.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    pub stmts: Vec<Stmt>,
}

impl Op {
    fn one(stmt: Stmt) -> Op {
        Op { stmts: vec![stmt] }
    }
}

/// The op cycle of a library workload (`serve_mixed` has one cycle per
/// connection: [`serve_ops`]).
pub fn library_ops(workload: Workload, seed: u64, s: &Summary) -> Vec<Op> {
    let rng = Rng::new(seed).fork(workload as u64 + 1);
    match workload {
        Workload::AggFo => agg_fo(rng, s),
        Workload::AggFlat => agg_flat(),
        Workload::OrderPage => order_page(rng, s),
        Workload::ViewChurn => churn_cycles(rng, s, 1_000_000, CYCLE),
        Workload::ServeMixed => serve_ops(seed, 0, s),
    }
}

/// One fixed statement every workload can answer: what the long-lived
/// `view_churn` session repeats, and what the traced run's server pass
/// repeats to see a miss and its hits.
pub fn reference_stmt() -> Stmt {
    Stmt::select(
        "SELECT package, SUM(price) AS sum_price FROM R1 GROUP BY package ORDER BY package",
        true,
    )
}

/// Small-output aggregates: the Q2/Q4/Q5/Q6/Q7 shapes of Figure 3 plus
/// the extended surface QD/QP/QB/QK. Every second round the first five
/// carry a seeded `<>` selection — it drops about one key in a hundred,
/// so the constant varies the input without moving the cost.
fn agg_fo(mut rng: Rng, s: &Summary) -> Vec<Op> {
    const TEMPLATES: usize = 9;
    (0..CYCLE)
        .map(|i| {
            let filtered = (i / TEMPLATES) % 2 == 1;
            let mut filter = |attr: &str, space: u32| {
                if filtered {
                    format!(" WHERE {attr} <> {}", rng.below(u64::from(space)))
                } else {
                    String::new()
                }
            };
            let stmt = match i % TEMPLATES {
                0 => Stmt::select(
                    format!(
                        "SELECT customer, SUM(price) AS revenue FROM R1{} GROUP BY customer",
                        filter("package", s.packages)
                    ),
                    false,
                ),
                1 => Stmt::select(
                    format!(
                        "SELECT package, SUM(price) AS sum_price FROM R1{} GROUP BY package",
                        filter("customer", s.customers)
                    ),
                    false,
                ),
                2 => Stmt::select(
                    format!(
                        "SELECT SUM(price) AS sum_price FROM R1{}",
                        filter("date", s.dates)
                    ),
                    false,
                ),
                3 => Stmt::select(
                    format!(
                        "SELECT customer, SUM(price) AS revenue FROM R1{} \
                         GROUP BY customer ORDER BY customer",
                        filter("item", s.items)
                    ),
                    true,
                ),
                4 => Stmt::select(
                    format!(
                        "SELECT customer, SUM(price) AS revenue FROM R1{} \
                         GROUP BY customer ORDER BY revenue, customer",
                        filter("package", s.packages)
                    ),
                    true,
                ),
                5 => Stmt::select(
                    "SELECT customer, COUNT(DISTINCT item) AS u_items FROM R1 GROUP BY customer",
                    false,
                ),
                6 => Stmt::select(
                    "SELECT customer, PRODUCT(price) AS p_price FROM R1 GROUP BY customer",
                    false,
                ),
                7 => Stmt::select(
                    "SELECT package, EXISTS(price > 8) AS e_price, FORALL(price >= 1) AS f_price \
                     FROM R1 GROUP BY package",
                    false,
                ),
                _ => Stmt::select(
                    "SELECT customer, TOP_K(price, 3) AS top_price FROM R1 GROUP BY customer",
                    false,
                ),
            };
            Op::one(stmt)
        })
        .collect()
}

/// Large-output aggregates: Q1/Q3/Q8/Q9 and the QG rollup. No
/// constants — the seed varies the data.
fn agg_flat() -> Vec<Op> {
    let q3 = "SELECT date, package, SUM(price) AS sum_price FROM R1 GROUP BY date, package";
    let templates = [
        Stmt::select(
            "SELECT package, date, customer, SUM(price) AS sum_price FROM R1 \
             GROUP BY package, date, customer",
            false,
        ),
        Stmt::select(q3, false),
        Stmt::select(format!("{q3} ORDER BY date, package"), true),
        Stmt::select(format!("{q3} ORDER BY package, date"), true),
        Stmt::select(
            "SELECT customer, date, SUM(price) AS gs_sum_price FROM R1 \
             GROUP BY ROLLUP (customer, date)",
            false,
        ),
    ];
    (0..CYCLE)
        .map(|i| Op::one(templates[i % templates.len()].clone()))
        .collect()
}

/// Pages of ordered results. Ten templates in rotation so that every
/// physical ordering strategy occurs: stored-order pages (stream at
/// offset 0, direct access below it), orders that need a swap first
/// (Q12, and Q13 on `R3`), order-by-aggregate pages, an order only a
/// heap can serve under a LIMIT (by `AVG`, a computed column) and the
/// same order without a LIMIT (collect-sort-cut).
///
/// Order keys are extended until they determine the whole row, so a
/// page is one well-defined list of rows for every strategy and for
/// the relational oracle.
fn order_page(mut rng: Rng, s: &Summary) -> Vec<Op> {
    const TEMPLATES: usize = 10;
    let spj = "SELECT package, date, customer, item, price FROM R1";
    let revenue = "SELECT customer, SUM(price) AS revenue FROM R1 GROUP BY customer";
    let avg = "SELECT customer, AVG(price) AS mean_price FROM R1 GROUP BY customer";
    let customers = s.customers as usize;
    (0..CYCLE)
        .map(|i| {
            let k = if rng.below(2) == 0 { 10 } else { 100 };
            // Uniform over the result, one page past its end included.
            let mut within = |rows: usize| rng.below((rows + k) as u64 + 1) as usize;
            let stmt = match i % TEMPLATES {
                0 => Stmt::select(
                    format!("{spj} ORDER BY package, date, item, customer"),
                    true,
                )
                .page(Some(k), 0),
                1 => Stmt::select(
                    format!("{spj} ORDER BY package, date, item, customer"),
                    true,
                )
                .page(Some(k), within(s.flat_tuples)),
                2 => Stmt::select(
                    format!("{spj} ORDER BY package, item, date, customer"),
                    true,
                )
                .page(Some(k), within(s.flat_tuples)),
                3 => Stmt::select(
                    format!("{spj} ORDER BY date, package, item, customer"),
                    true,
                )
                .page(Some(k), within(s.flat_tuples)),
                4 => Stmt::select(
                    format!("{spj} ORDER BY date, package, item, customer"),
                    true,
                )
                .page(Some(k), 0),
                5 => Stmt::select(
                    "SELECT customer, date, package FROM R3 ORDER BY customer, date, package",
                    true,
                )
                .page(Some(k), within(s.orders)),
                6 => Stmt::select(format!("{revenue} ORDER BY revenue DESC, customer"), true)
                    .page(Some(k), within(customers)),
                7 => Stmt::select(
                    "SELECT date, package, SUM(price) AS sum_price FROM R1 \
                     GROUP BY date, package ORDER BY package, date",
                    true,
                )
                .page(Some(k), within(s.date_package_groups)),
                8 => Stmt::select(format!("{avg} ORDER BY mean_price DESC, customer"), true)
                    .page(Some(k), within(customers) / 2),
                // The tail of the same ranking, no LIMIT: at most the
                // last hundred rows, so the output stays a page.
                _ => Stmt::select(format!("{avg} ORDER BY mean_price DESC, customer"), true).page(
                    None,
                    customers.saturating_sub(100) + rng.below(110) as usize + 1,
                ),
            };
            Op::one(stmt)
        })
        .collect()
}

/// Churn cycles on view `R1`: insert four fresh tuples, read them
/// back, delete them by predicate, read back their absence.
///
/// The four tuples share a fresh package, one date and one item and
/// differ in the customer. On `R1`'s branching f-tree
/// (`package → {date → customer, item → price}`) that is a shape both
/// the insert and the predicate delete maintain exactly, so the view
/// must return to its initial state after every cycle.
///
/// Cycle `i` uses package id `first_package + i` — far above the
/// generator's, distinct per op.
pub fn churn_cycles(mut rng: Rng, s: &Summary, first_package: usize, n: usize) -> Vec<Op> {
    (0..n)
        .map(|i| {
            let package = first_package + i;
            let date = rng.below(u64::from(s.dates));
            let item = rng.below(u64::from(s.items));
            let price = 1 + rng.below(20);
            let mut customers: Vec<u64> = Vec::new();
            while customers.len() < CHURN_TUPLES {
                let c = rng.below(u64::from(s.customers));
                if !customers.contains(&c) {
                    customers.push(c);
                }
            }
            customers.sort_unstable();
            let tuples: Vec<String> = customers
                .iter()
                .map(|c| format!("({package}, {date}, {c}, {item}, {price})"))
                .collect();
            let insert = Stmt {
                verb: Verb::Insert,
                base: format!(
                    "INSERT INTO R1 (package, date, customer, item, price) VALUES {}",
                    tuples.join(", ")
                ),
                limit: None,
                offset: 0,
                ordered: false,
                expect: Expect::Write {
                    inserted: CHURN_TUPLES,
                    deleted: 0,
                },
            };
            let delete = Stmt {
                verb: Verb::Delete,
                base: format!("DELETE FROM R1 WHERE package = {package}"),
                limit: None,
                offset: 0,
                ordered: false,
                expect: Expect::Write {
                    inserted: 0,
                    deleted: CHURN_TUPLES,
                },
            };
            let read_back = |present: bool| {
                let mut lines = vec!["customer\tspent".to_string()];
                if present {
                    lines.extend(customers.iter().map(|c| format!("{c}\t{price}")));
                }
                Stmt {
                    expect: Expect::Lines(lines),
                    ..Stmt::select(
                        format!(
                            "SELECT customer, SUM(price) AS spent FROM R1 \
                             WHERE package = {package} GROUP BY customer ORDER BY customer"
                        ),
                        true,
                    )
                }
            };
            let (seen, gone) = (read_back(true), read_back(false));
            Op {
                stmts: vec![insert, seen, delete, gone],
            }
        })
        .collect()
}

/// The read templates of `serve_mixed`, with the size of each one's
/// key space. Together ≈ 256 distinct statements: four times the
/// server's default 64-entry cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ServeTemplate {
    /// Per-package top-10 revenue on `R1`.
    TopRevenue,
    /// Per-customer `date, package` sums on `R1` (hundreds of rows).
    CustomerSums,
    /// `ROW i` point lookup into `R1` in its stored order.
    RowLookup,
    /// The per-package aggregate over `Orders, Packages, Items` — the
    /// join happens at query time.
    JoinAggregate,
    /// One fixed `COUNT(*)`.
    CountAll,
}

/// Rotation of the read templates: 30 % top-revenue, 25 % row lookups,
/// 15 % each of the other three.
const SERVE_ROTATION: [ServeTemplate; 20] = {
    use ServeTemplate::*;
    [
        TopRevenue,
        RowLookup,
        CustomerSums,
        TopRevenue,
        JoinAggregate,
        RowLookup,
        CountAll,
        TopRevenue,
        CustomerSums,
        RowLookup,
        TopRevenue,
        JoinAggregate,
        CountAll,
        RowLookup,
        TopRevenue,
        CustomerSums,
        JoinAggregate,
        RowLookup,
        TopRevenue,
        CountAll,
    ]
};

/// Row-lookup key space (distinct seeded indices into `R1`).
const ROW_KEYS: usize = 75;

/// Seeded rank → constant mapping per template plus the Zipf samplers;
/// shared by every connection so that they compete for the same hot
/// keys in the server's cache.
struct ServeKeys {
    packages: Vec<u64>,
    customers: Vec<u64>,
    rows: Vec<u64>,
    zipf_packages: Zipf,
    zipf_customers: Zipf,
    zipf_rows: Zipf,
}

impl ServeKeys {
    fn new(seed: u64, s: &Summary) -> ServeKeys {
        let mut rng = Rng::new(seed).fork(0x5E21);
        let mut packages: Vec<u64> = (0..u64::from(s.packages)).collect();
        let mut customers: Vec<u64> = (0..u64::from(s.customers)).collect();
        rng.shuffle(&mut packages);
        rng.shuffle(&mut customers);
        let rows: Vec<u64> = (0..ROW_KEYS)
            .map(|_| rng.below(s.flat_tuples.max(1) as u64))
            .collect();
        ServeKeys {
            zipf_packages: Zipf::new(packages.len(), SERVE_ZIPF_S),
            zipf_customers: Zipf::new(customers.len(), SERVE_ZIPF_S),
            zipf_rows: Zipf::new(rows.len(), SERVE_ZIPF_S),
            packages,
            customers,
            rows,
        }
    }

    fn stmt(&self, template: ServeTemplate, rng: &mut Rng) -> Stmt {
        match template {
            ServeTemplate::TopRevenue => {
                let p = self.packages[self.zipf_packages.sample(rng)];
                Stmt::select(
                    format!(
                        "SELECT customer, SUM(price) AS revenue FROM R1 WHERE package = {p} \
                         GROUP BY customer ORDER BY revenue DESC, customer"
                    ),
                    true,
                )
                .page(Some(10), 0)
            }
            ServeTemplate::CustomerSums => {
                let c = self.customers[self.zipf_customers.sample(rng)];
                Stmt::select(
                    format!(
                        "SELECT date, package, SUM(price) AS spent FROM R1 WHERE customer = {c} \
                         GROUP BY date, package ORDER BY date, package"
                    ),
                    true,
                )
            }
            ServeTemplate::RowLookup => {
                let i = self.rows[self.zipf_rows.sample(rng)];
                Stmt {
                    verb: Verb::Row,
                    ..Stmt::select(
                        "SELECT package, date, customer, item, price FROM R1 \
                         ORDER BY package, date, item, customer",
                        true,
                    )
                    .page(Some(1), i as usize)
                }
            }
            ServeTemplate::JoinAggregate => {
                let p = self.packages[self.zipf_packages.sample(rng)];
                Stmt::select(
                    format!(
                        "SELECT package, SUM(price) AS revenue FROM Orders, Packages, Items \
                         WHERE package = {p} GROUP BY package"
                    ),
                    true,
                )
            }
            ServeTemplate::CountAll => Stmt::select("SELECT COUNT(*) AS n FROM R1", true),
        }
    }
}

/// The op cycle of `serve_mixed` connection `conn`.
///
/// Writes alternate insert/delete of an `Orders` row whose customer id
/// is the connection's own and whose package joins with nothing: each
/// one bumps the epoch and purges the cache — what the workload is
/// there to exercise — yet leaves every read's answer unchanged, so
/// reads on every connection stay checkable whatever the interleaving.
pub fn serve_ops(seed: u64, conn: usize, s: &Summary) -> Vec<Op> {
    let keys = ServeKeys::new(seed, s);
    let mut rng = Rng::new(seed).fork(0xC0_0000 + conn as u64);
    let customer = 1_000_000 + conn;
    let mut reads = 0usize;
    let mut writes = 0usize;
    (0..SERVE_CYCLE)
        .map(|i| {
            let slot = i % WRITE_PAIR_EVERY;
            if slot == WRITE_PAIR_EVERY / 2 || slot == WRITE_PAIR_EVERY / 2 + 1 {
                let insert = slot == WRITE_PAIR_EVERY / 2;
                writes += 1;
                let stmt = if insert {
                    Stmt {
                        verb: Verb::Insert,
                        base: format!(
                            "INSERT INTO Orders (customer, date, package) \
                             VALUES ({customer}, {}, 999999)",
                            writes / 2
                        ),
                        limit: None,
                        offset: 0,
                        ordered: false,
                        expect: Expect::Write {
                            inserted: 1,
                            deleted: 0,
                        },
                    }
                } else {
                    Stmt {
                        verb: Verb::Delete,
                        base: format!("DELETE FROM Orders WHERE customer = {customer}"),
                        limit: None,
                        offset: 0,
                        ordered: false,
                        expect: Expect::Write {
                            inserted: 0,
                            deleted: 1,
                        },
                    }
                };
                return Op::one(stmt);
            }
            let template = SERVE_ROTATION[reads % SERVE_ROTATION.len()];
            reads += 1;
            Op::one(keys.stmt(template, &mut rng))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn summary() -> Summary {
        Summary {
            scale: 1,
            customers: 100,
            packages: 40,
            items: 100,
            dates: 800,
            orders: 16_000,
            flat_tuples: 300_000,
            date_package_groups: 14_000,
            view_singletons: 29_000,
            view_bytes: 1_400_000,
        }
    }

    #[test]
    fn same_seed_same_ops_and_another_seed_differs() {
        let s = summary();
        for w in Workload::ALL {
            let a = library_ops(w, 5, &s);
            assert_eq!(a, library_ops(w, 5, &s), "{}: not deterministic", w.name());
            // agg_flat has no constants: its seed sensitivity is the data's.
            if w != Workload::AggFlat {
                assert_ne!(a, library_ops(w, 6, &s), "{}: seed is ignored", w.name());
            }
            let want = if w == Workload::ServeMixed {
                SERVE_CYCLE
            } else {
                CYCLE
            };
            assert_eq!(a.len(), want);
        }
        assert_ne!(serve_ops(5, 0, &s), serve_ops(5, 1, &s));
    }

    #[test]
    fn page_clauses_compose() {
        let q = Stmt::select("SELECT a FROM T ORDER BY a", true);
        assert_eq!(q.sql(), "SELECT a FROM T ORDER BY a");
        assert_eq!(
            q.clone().page(Some(10), 0).sql(),
            "SELECT a FROM T ORDER BY a LIMIT 10"
        );
        assert_eq!(
            q.clone().page(Some(10), 7).sql(),
            "SELECT a FROM T ORDER BY a LIMIT 10 OFFSET 7"
        );
        assert_eq!(
            q.clone().page(None, 7).sql(),
            "SELECT a FROM T ORDER BY a OFFSET 7"
        );
        let row = Stmt {
            verb: Verb::Row,
            ..q.page(Some(1), 0)
        };
        // The library form is exactly what the server builds for ROW.
        assert_eq!(row.sql(), "SELECT a FROM T ORDER BY a LIMIT 1 OFFSET 0");
        assert_eq!(row.wire(), "ROW 0 SELECT a FROM T ORDER BY a");
    }

    #[test]
    fn order_page_offsets_cover_the_result_and_its_end() {
        let s = summary();
        let ops = library_ops(Workload::OrderPage, 1, &s);
        let offsets: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 10 == 1)
            .map(|(_, op)| op.stmts[0].offset)
            .collect();
        assert!(offsets.iter().any(|&m| m < s.flat_tuples / 2));
        assert!(offsets.iter().any(|&m| m > s.flat_tuples / 2));
        assert!(offsets.iter().all(|&m| m <= s.flat_tuples + 100));
        assert!(ops
            .iter()
            .step_by(10)
            .all(|op| op.stmts[0].offset == 0 && op.stmts[0].limit.is_some()));
        // The no-LIMIT tail pages return at most ~a hundred rows.
        assert!(ops
            .iter()
            .skip(9)
            .step_by(10)
            .all(|op| op.stmts[0].limit.is_none() && op.stmts[0].offset >= 1));
    }

    #[test]
    fn churn_cycle_reads_back_what_it_wrote() {
        let ops = library_ops(Workload::ViewChurn, 3, &summary());
        let op = &ops[17];
        assert_eq!(op.stmts.len(), 4);
        assert_eq!(op.stmts[0].verb, Verb::Insert);
        assert_eq!(op.stmts[2].verb, Verb::Delete);
        let Expect::Lines(seen) = &op.stmts[1].expect else {
            panic!("read-back must carry exact lines");
        };
        assert_eq!(seen.len(), 1 + CHURN_TUPLES);
        let mut sorted = seen[1..].to_vec();
        sorted.sort_by_key(|l| l.split('\t').next().unwrap().parse::<u64>().unwrap());
        assert_eq!(sorted, seen[1..], "rows come in customer order");
        assert_eq!(
            op.stmts[3].expect,
            Expect::Lines(vec!["customer\tspent".into()])
        );
        assert!(op.stmts[0].base.contains("1000017"));
        assert!(op.stmts[2].base.ends_with("package = 1000017"));
    }

    #[test]
    fn serve_mix_has_two_percent_paired_writes_and_a_bounded_key_space() {
        let s = summary();
        let ops = serve_ops(9, 0, &s);
        let writes: Vec<&Stmt> = ops
            .iter()
            .map(|op| &op.stmts[0])
            .filter(|st| st.is_write())
            .collect();
        assert_eq!(writes.len(), 2 * SERVE_CYCLE / WRITE_PAIR_EVERY);
        assert_eq!(writes.len() % 2, 0, "the cycle must end on a delete");
        for pair in writes.chunks(2) {
            assert_eq!(pair[0].verb, Verb::Insert);
            assert_eq!(pair[1].verb, Verb::Delete);
        }
        let distinct: BTreeSet<String> = (0..4)
            .flat_map(|c| serve_ops(9, c, &s))
            .map(|op| op.stmts[0].wire())
            .filter(|w| !w.starts_with("INSERT") && !w.starts_with("DELETE"))
            .collect();
        // 40 + 100 + 75 + 40 + 1 keys; Zipf's tail may leave some unseen.
        assert!(distinct.len() <= 256, "{} distinct reads", distinct.len());
        assert!(distinct.len() > 128, "{} distinct reads", distinct.len());
    }
}
