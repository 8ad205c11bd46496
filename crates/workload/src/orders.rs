//! The scalable benchmark dataset of §6: Orders, Packages, Items.
//!
//! The paper's generator (parameters from §6, Experimental Design):
//! * the number of dates on which orders are placed is `800·s`;
//! * the average number of order dates per customer is `80·s` and the
//!   average number of orders per order date is 2, both binomial;
//! * there are `100·√s` items and `40·√s` packages of `20·√s` items on
//!   average.
//!
//! The customer count is not published; we fix it (default 100) and
//! document the substitution in DESIGN.md. The flat join grows by a factor
//! `≈ 20·√s` (items per package) plus grouping savings over the
//! factorisation over the paper's f-tree `T`
//! (`package → {date → customer, item → price}`), which is the
//! succinctness gap Figures 4–8 measure.
//!
//! Besides the three base relations, the generator builds the factorised
//! materialised view `R1 = Orders ⋈ Packages ⋈ Items` over `T` *directly*
//! (in time linear in the factorisation size), exactly the read-optimised
//! scenario of the experiments — materialising the flat join first would
//! be pointless work the paper's setup also avoids.

use crate::rng::{binomial, distinct_sample};
use fdb_core::frep::{Entry, Union};
use fdb_core::ftree::{FTree, NodeLabel};
use fdb_core::{FRep, Stats};
use fdb_relational::{AttrId, Catalog, Relation, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Generator configuration.
#[derive(Clone, Copy, Debug)]
pub struct OrdersConfig {
    /// The paper's scale parameter `s`.
    pub scale: u32,
    /// Number of customers (not published in the paper; see DESIGN.md).
    pub customers: u32,
    /// RNG seed; generation is fully deterministic per seed.
    pub seed: u64,
}

impl Default for OrdersConfig {
    fn default() -> Self {
        OrdersConfig {
            scale: 1,
            customers: 100,
            seed: 0xFDB,
        }
    }
}

impl OrdersConfig {
    /// Convenience constructor at a given scale.
    pub fn at_scale(scale: u32) -> Self {
        OrdersConfig {
            scale,
            ..Default::default()
        }
    }

    pub fn dates(&self) -> u32 {
        800 * self.scale
    }

    pub fn packages(&self) -> u32 {
        (40.0 * (self.scale as f64).sqrt()).ceil() as u32
    }

    pub fn items(&self) -> u32 {
        (100.0 * (self.scale as f64).sqrt()).ceil() as u32
    }

    pub fn items_per_package(&self) -> f64 {
        20.0 * (self.scale as f64).sqrt()
    }
}

/// Attribute handles of the benchmark schema.
#[derive(Clone, Copy, Debug)]
pub struct OrdersAttrs {
    pub customer: AttrId,
    pub date: AttrId,
    pub package: AttrId,
    pub item: AttrId,
    pub price: AttrId,
}

/// The generated database: flat base relations plus the grouped structures
/// from which the factorised view is assembled.
#[derive(Clone, Debug)]
pub struct OrdersDataset {
    pub config: OrdersConfig,
    pub attrs: OrdersAttrs,
    /// Orders(customer, date, package).
    pub orders: Relation,
    /// Packages(package, item).
    pub packages: Relation,
    /// Items(item, price).
    pub items: Relation,
    /// package → date → customers (sorted), only non-empty groups.
    orders_grouped: BTreeMap<u32, BTreeMap<u32, Vec<u32>>>,
    /// package → sorted (item, price).
    package_items: BTreeMap<u32, Vec<(u32, i64)>>,
}

/// Generates the dataset.
pub fn generate(catalog: &mut Catalog, cfg: &OrdersConfig) -> OrdersDataset {
    let attrs = OrdersAttrs {
        customer: catalog.intern("customer"),
        date: catalog.intern("date"),
        package: catalog.intern("package"),
        item: catalog.intern("item"),
        price: catalog.intern("price"),
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n_items = cfg.items();
    let n_packages = cfg.packages();
    let n_dates = cfg.dates();

    // Items(item, price): prices 1..=20.
    let prices: Vec<i64> = (0..n_items).map(|_| rng.gen_range(1..=20)).collect();
    let items = Relation::from_rows(
        Schema::new(vec![attrs.item, attrs.price]),
        prices
            .iter()
            .enumerate()
            .map(|(i, &p)| vec![Value::Int(i as i64), Value::Int(p)]),
    );

    // Packages(package, item): binomial item counts, distinct items.
    let ipp = cfg.items_per_package();
    let p_item = (ipp / n_items as f64).min(1.0);
    let mut package_items: BTreeMap<u32, Vec<(u32, i64)>> = BTreeMap::new();
    let mut package_rows: Vec<Vec<Value>> = Vec::new();
    for p in 0..n_packages {
        let k = binomial(&mut rng, n_items, p_item).max(1);
        let chosen = distinct_sample(&mut rng, n_items, k);
        let entry: Vec<(u32, i64)> = chosen.iter().map(|&i| (i, prices[i as usize])).collect();
        for &(i, _) in &entry {
            package_rows.push(vec![Value::Int(p as i64), Value::Int(i as i64)]);
        }
        package_items.insert(p, entry);
    }
    let packages = Relation::from_rows(Schema::new(vec![attrs.package, attrs.item]), package_rows);

    // Orders(customer, date, package): per customer a binomial number of
    // order dates (mean 80·s = 10% of dates), two orders per order date on
    // average (Binomial(4, ½)).
    let mut orders_grouped: BTreeMap<u32, BTreeMap<u32, Vec<u32>>> = BTreeMap::new();
    let mut order_rows: Vec<Vec<Value>> = Vec::new();
    for c in 0..cfg.customers {
        let k = binomial(&mut rng, n_dates, 0.1);
        let dates = distinct_sample(&mut rng, n_dates, k);
        for d in dates {
            let n_orders = binomial(&mut rng, 4, 0.5);
            let mut chosen: BTreeSet<u32> = BTreeSet::new();
            for _ in 0..n_orders {
                chosen.insert(rng.gen_range(0..n_packages));
            }
            for p in chosen {
                order_rows.push(vec![
                    Value::Int(c as i64),
                    Value::Int(d as i64),
                    Value::Int(p as i64),
                ]);
                orders_grouped
                    .entry(p)
                    .or_default()
                    .entry(d)
                    .or_default()
                    .push(c);
            }
        }
    }
    for dates in orders_grouped.values_mut() {
        for customers in dates.values_mut() {
            customers.sort_unstable();
            customers.dedup();
        }
    }
    let orders = Relation::from_rows(
        Schema::new(vec![attrs.customer, attrs.date, attrs.package]),
        order_rows,
    );

    OrdersDataset {
        config: *cfg,
        attrs,
        orders,
        packages,
        items,
        orders_grouped,
        package_items,
    }
}

impl OrdersDataset {
    /// The paper's f-tree `T`: package → {date → customer, item → price}.
    pub fn paper_ftree(&self) -> FTree {
        let a = &self.attrs;
        let mut t = FTree::new();
        let n_package = t.add_node(NodeLabel::Atomic(vec![a.package]), None);
        let n_date = t.add_node(NodeLabel::Atomic(vec![a.date]), Some(n_package));
        t.add_node(NodeLabel::Atomic(vec![a.customer]), Some(n_date));
        let n_item = t.add_node(NodeLabel::Atomic(vec![a.item]), Some(n_package));
        t.add_node(NodeLabel::Atomic(vec![a.price]), Some(n_item));
        t.add_dep([a.customer, a.date, a.package]);
        t.add_dep([a.package, a.item]);
        t.add_dep([a.item, a.price]);
        t
    }

    /// The factorised materialised view `R1 = Orders ⋈ Packages ⋈ Items`
    /// over [`OrdersDataset::paper_ftree`], built directly from the
    /// generator's grouped structures in time linear in its size.
    pub fn factorised_view(&self) -> FRep {
        let tree = self.paper_ftree();
        let n_package = tree.roots()[0];
        let n_date = tree.node(n_package).children[0];
        let n_customer = tree.node(n_date).children[0];
        let n_item = tree.node(n_package).children[1];
        let n_price = tree.node(n_item).children[0];

        let mut package_entries: Vec<Entry> = Vec::new();
        for (&p, dates) in &self.orders_grouped {
            let Some(item_list) = self.package_items.get(&p) else {
                continue; // no items: dangling in the join
            };
            if item_list.is_empty() {
                continue;
            }
            let date_entries: Vec<Entry> = dates
                .iter()
                .map(|(&d, customers)| Entry {
                    value: Value::Int(d as i64),
                    children: vec![Union {
                        node: n_customer,
                        entries: customers
                            .iter()
                            .map(|&c| Entry {
                                value: Value::Int(c as i64),
                                children: vec![],
                            })
                            .collect(),
                    }],
                })
                .collect();
            let item_entries: Vec<Entry> = item_list
                .iter()
                .map(|&(i, price)| Entry {
                    value: Value::Int(i as i64),
                    children: vec![Union {
                        node: n_price,
                        entries: vec![Entry {
                            value: Value::Int(price),
                            children: vec![],
                        }],
                    }],
                })
                .collect();
            package_entries.push(Entry {
                value: Value::Int(p as i64),
                children: vec![
                    Union {
                        node: n_date,
                        entries: date_entries,
                    },
                    Union {
                        node: n_item,
                        entries: item_entries,
                    },
                ],
            });
        }
        FRep::new(
            tree,
            vec![Union {
                node: n_package,
                entries: package_entries,
            }],
        )
        .expect("generator emits a structurally valid factorisation")
    }

    /// Base-relation statistics for the optimiser's cost metric.
    pub fn stats(&self) -> Stats {
        let a = &self.attrs;
        let mut stats = Stats::new();
        stats.add_relation([a.customer, a.date, a.package], self.orders.len());
        stats.add_relation([a.package, a.item], self.packages.len());
        stats.add_relation([a.item, a.price], self.items.len());
        stats
    }

    /// Cardinality of the flat join, computed without materialising it.
    pub fn flat_join_size(&self) -> usize {
        self.orders_grouped
            .iter()
            .map(|(p, dates)| {
                let items = self.package_items.get(p).map_or(0, Vec::len);
                let orders: usize = dates.values().map(Vec::len).sum();
                orders * items
            })
            .sum()
    }

    /// Materialises the flat join (for the relational baselines), laid out
    /// as (package, date, customer, item, price) — the view column order.
    pub fn join(&self) -> Relation {
        let a = &self.attrs;
        let j1 = fdb_relational::ops::hash_join(&self.orders, &self.packages);
        let j2 = fdb_relational::ops::hash_join(&j1, &self.items);
        j2.project_cols(&[a.package, a.date, a.customer, a.item, a.price])
    }
}

/// The paper's queries over this schema, as `(name, SQL)`: Figure 3's
/// thirteen in order, then the extended aggregate surface.
///
/// ```text
/// R1 = Orders ⋈ Items ⋈ Packages                    (materialised view)
/// Q1 = ̟package,date,customer; sum(price)(R1)   ┐
/// Q2 = ̟customer; revenue←sum(price)(R1)        │
/// Q3 = ̟date,package; sum(price)(R1)            │ AGG
/// Q4 = ̟package; sum(price)(R1)                 │
/// Q5 = ̟sum(price)(R1)                          ┘
/// Q6 = o_customer(Q2)        ┐
/// Q7 = o_revenue(Q2)         │ AGG+ORD
/// Q8 = o_date,package(Q3)    │
/// Q9 = o_package,date(Q3)    ┘
/// R2 = o_package,date,item(R1); R3 = o_date,customer,package(Orders)
/// Q10 = R2                         ┐
/// Q11 = o_package,item,date(R2)    │ ORD
/// Q12 = o_date,package,item(R2)    │
/// Q13 = o_customer,date,package(R3)┘
/// ```
///
/// Q10–Q12 read `R1` for `R2`: a factorisation over the paper's f-tree
/// enumerates in `package, date, item` order. Q13 is printed in Figure 3
/// with an `item` attribute, but `R3` is a sort of `Orders`, which has
/// no `item`; the running text (Experiment 4) describes Q13 as re-sorting
/// `R3` by swapping `date` and `customer`, so it reads
/// `o_{customer,date,package}(R3)` (see DESIGN.md).
///
/// The extended surface (QD–QG) is not part of Figure 3: `QD` counts
/// distinct items per customer, `QP` takes the (wrapping) price product,
/// `QB` evaluates both boolean quantifiers per package, `QK` keeps the
/// three largest prices per customer and `QG` expands
/// `ROLLUP (customer, date)` over `SUM(price)`.
#[rustfmt::skip]
pub const QUERIES: &[(&str, &str)] = &[
    ("Q1", "SELECT package, date, customer, SUM(price) AS sum_price FROM R1 GROUP BY package, date, customer"),
    ("Q2", "SELECT customer, SUM(price) AS revenue FROM R1 GROUP BY customer"),
    ("Q3", "SELECT date, package, SUM(price) AS sum_price FROM R1 GROUP BY date, package"),
    ("Q4", "SELECT package, SUM(price) AS sum_price FROM R1 GROUP BY package"),
    ("Q5", "SELECT SUM(price) AS sum_price FROM R1"),
    ("Q6", "SELECT customer, SUM(price) AS revenue FROM R1 GROUP BY customer ORDER BY customer"),
    ("Q7", "SELECT customer, SUM(price) AS revenue FROM R1 GROUP BY customer ORDER BY revenue"),
    ("Q8", "SELECT date, package, SUM(price) AS sum_price FROM R1 GROUP BY date, package ORDER BY date, package"),
    ("Q9", "SELECT date, package, SUM(price) AS sum_price FROM R1 GROUP BY date, package ORDER BY package, date"),
    ("Q10", "SELECT package, date, customer, item, price FROM R1 ORDER BY package, date, item"),
    ("Q11", "SELECT package, date, customer, item, price FROM R1 ORDER BY package, item, date"),
    ("Q12", "SELECT package, date, customer, item, price FROM R1 ORDER BY date, package, item"),
    ("Q13", "SELECT customer, date, package FROM R3 ORDER BY customer, date, package"),
    ("QD", "SELECT customer, COUNT(DISTINCT item) AS u_items FROM R1 GROUP BY customer"),
    ("QP", "SELECT customer, PRODUCT(price) AS p_price FROM R1 GROUP BY customer"),
    ("QB", "SELECT package, EXISTS(price > 8) AS e_price, FORALL(price >= 1) AS f_price FROM R1 GROUP BY package"),
    ("QK", "SELECT customer, TOP_K(price, 3) AS top_price FROM R1 GROUP BY customer"),
    ("QG", "SELECT customer, date, SUM(price) AS gs_sum_price FROM R1 GROUP BY ROLLUP (customer, date)"),
];

/// Figure 6's flat-input variant of a query of [`QUERIES`] on `R1`: the
/// same statement over the three base relations instead of the view.
pub fn over_base_relations(sql: &str) -> String {
    sql.replace("FROM R1", "FROM Orders, Packages, Items")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Catalog, OrdersDataset) {
        let mut c = Catalog::new();
        let cfg = OrdersConfig {
            scale: 1,
            customers: 6,
            seed: 42,
        };
        let ds = generate(&mut c, &cfg);
        (c, ds)
    }

    #[test]
    fn deterministic_per_seed() {
        let mut c1 = Catalog::new();
        let mut c2 = Catalog::new();
        let cfg = OrdersConfig {
            scale: 1,
            customers: 4,
            seed: 7,
        };
        let a = generate(&mut c1, &cfg);
        let b = generate(&mut c2, &cfg);
        assert_eq!(a.orders, b.orders);
        assert_eq!(a.packages, b.packages);
        assert_eq!(a.items, b.items);
    }

    #[test]
    fn view_represents_the_join() {
        let (_, ds) = tiny();
        let rep = ds.factorised_view();
        rep.check_invariants().unwrap();
        assert_eq!(rep.tuple_count(), ds.flat_join_size());
        let flat = rep.flatten().canonical();
        let expected = ds.join().canonical();
        assert_eq!(flat, expected);
    }

    #[test]
    fn succinctness_gap_grows_with_scale() {
        let mut c = Catalog::new();
        let small = generate(
            &mut c,
            &OrdersConfig {
                scale: 1,
                customers: 20,
                seed: 1,
            },
        );
        let big = generate(
            &mut c,
            &OrdersConfig {
                scale: 4,
                customers: 20,
                seed: 1,
            },
        );
        let ratio = |ds: &OrdersDataset| {
            let flat_singletons = (ds.flat_join_size() * 5) as f64;
            flat_singletons / ds.factorised_view().singleton_count() as f64
        };
        let r_small = ratio(&small);
        let r_big = ratio(&big);
        assert!(
            r_big > r_small,
            "gap should widen with scale: {r_small} vs {r_big}"
        );
        assert!(r_small > 1.0, "factorisation must be smaller than flat");
    }

    #[test]
    fn cardinalities_track_parameters() {
        let mut c = Catalog::new();
        let cfg = OrdersConfig {
            scale: 1,
            customers: 50,
            seed: 3,
        };
        let ds = generate(&mut c, &cfg);
        // Orders ≈ customers × 80·s × 2 = 8000; binomial noise is small.
        let expected = 50.0 * 80.0 * 2.0;
        let actual = ds.orders.len() as f64;
        assert!(
            (actual - expected).abs() / expected < 0.2,
            "orders {actual} vs expected {expected}"
        );
        // Items per package averages 20·√s.
        let ipp = ds.packages.len() as f64 / cfg.packages() as f64;
        assert!((ipp - 20.0).abs() < 5.0, "items/package {ipp}");
    }

    #[test]
    fn stats_cover_all_attributes() {
        let (_, ds) = tiny();
        let stats = ds.stats();
        assert_eq!(stats.edges.len(), 3);
    }
}
