//! The relational oracle: every distinct statement of a workload run
//! on `RdbEngine` over the same snapshot's base relations, rendered
//! with the server's own renderer so responses compare byte for byte.
//!
//! `FROM R1` is rewritten to the three-way join the view materialises
//! (`FROM R3` to `Orders`, of which it is a sort), so the oracle shares
//! no factorised code with the engine under test — not the view, not
//! its f-tree, not the f-plan operators.

use crate::ops::{Expect, Op, Stmt};
use fdb::relational::engine::{PlanMode, RdbEngine};
use fdb::relational::GroupStrategy;
use fdb::{Db, QueryOutcome};
use std::collections::{BTreeMap, HashMap};

pub struct Oracle {
    rdb: RdbEngine,
    /// Full (un-paged) responses by rewritten base SQL: paged
    /// statements share one sort of their base.
    full: HashMap<String, Vec<String>>,
}

impl Oracle {
    /// An oracle over the base relations registered in `db`.
    pub fn new(db: &Db) -> Oracle {
        let mut session = db.session();
        let mut rdb = RdbEngine::new(session.catalog().clone(), GroupStrategy::Sort);
        for name in ["Orders", "Packages", "Items"] {
            let rel = session
                .engine_mut()
                .relation_arc(name)
                .unwrap_or_else(|| panic!("base relation `{name}` is not registered"));
            rdb.register(name, fdb::Relation::clone(&rel));
        }
        Oracle {
            rdb,
            full: HashMap::new(),
        }
    }

    /// The payload lines a correct engine returns for `stmt`. Paging is
    /// applied here, on the oracle's complete ordered result.
    pub fn lines(&mut self, stmt: &Stmt) -> Result<Vec<String>, String> {
        let base = stmt
            .base
            .replace(" FROM R1", " FROM Orders, Packages, Items")
            .replace(" FROM R3", " FROM Orders");
        if !self.full.contains_key(&base) {
            let lines = self.run(&base)?;
            self.full.insert(base.clone(), lines);
        }
        let full = &self.full[&base];
        let paged = stmt.limit.is_some() || stmt.offset > 0;
        if !paged {
            return Ok(full.clone());
        }
        if !stmt.ordered {
            return Err(format!(
                "a page of an unordered result is not well defined: {}",
                stmt.sql()
            ));
        }
        let rows = &full[1..];
        let start = stmt.offset.min(rows.len());
        let end = stmt
            .limit
            .map_or(rows.len(), |k| (start + k).min(rows.len()));
        let mut out = Vec::with_capacity(1 + end - start);
        out.push(full[0].clone());
        out.extend_from_slice(&rows[start..end]);
        Ok(out)
    }

    fn run(&mut self, sql: &str) -> Result<Vec<String>, String> {
        let schemas = self.rdb.schemas();
        let query = fdb::parse(sql, &mut self.rdb.catalog, &schemas)
            .map_err(|e| format!("oracle parse `{sql}`: {e}"))?;
        let rows = self
            .rdb
            .run(&query.to_task(), PlanMode::Naive)
            .map_err(|e| format!("oracle run `{sql}`: {e}"))?;
        let columns = rows
            .schema()
            .attrs()
            .iter()
            .map(|&a| self.rdb.catalog.name(a).to_string())
            .collect();
        Ok(fdb_server::proto::render_outcome(&QueryOutcome {
            rows,
            columns,
            explain: String::new(),
            strategy: Default::default(),
            exec: Default::default(),
            order: Default::default(),
        }))
    }
}

/// The distinct statements of `ops` whose response is a pure function
/// of the initial snapshot, keyed and sorted by library SQL text (a
/// `BTreeMap`, so the golden file's order is stable).
pub fn stable_statements<'a>(ops: impl IntoIterator<Item = &'a Op>) -> BTreeMap<String, &'a Stmt> {
    let mut out = BTreeMap::new();
    for op in ops {
        for st in &op.stmts {
            if st.expect == Expect::Stable {
                out.entry(st.sql()).or_insert(st);
            }
        }
    }
    out
}

/// Compares the engine's response with the oracle's: byte-equal lines
/// when the statement fixes the order, else equal header and equal
/// rows as a multiset.
pub fn same_response(ordered: bool, got: &[String], want: &[String]) -> bool {
    if ordered {
        return got == want;
    }
    if got.first() != want.first() || got.len() != want.len() {
        return false;
    }
    fn sorted(lines: &[String]) -> Vec<&String> {
        let mut rows: Vec<&String> = lines.iter().skip(1).collect();
        rows.sort_unstable();
        rows
    }
    sorted(got) == sorted(want)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{build_env, Workload};
    use crate::ops::library_ops;
    use crate::trace::Tracer;

    #[test]
    fn unordered_responses_compare_as_multisets() {
        let l = |rows: &[&str]| rows.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(same_response(
            false,
            &l(&["h", "b", "a"]),
            &l(&["h", "a", "b"])
        ));
        assert!(!same_response(
            true,
            &l(&["h", "b", "a"]),
            &l(&["h", "a", "b"])
        ));
        assert!(!same_response(
            false,
            &l(&["h", "a", "a"]),
            &l(&["h", "a", "b"])
        ));
        assert!(!same_response(false, &l(&["g", "a"]), &l(&["h", "a"])));
        assert!(!same_response(false, &l(&["h", "a"]), &l(&["h", "a", "a"])));
    }

    #[test]
    fn engine_matches_the_oracle_on_every_order_page_statement() {
        // The paging workload is the one where the oracle does the most
        // on its own (page cuts, three-way join for R1, Orders for R3).
        let env = build_env(Workload::OrderPage, 21, 1, &mut Tracer::new());
        let ops = library_ops(Workload::OrderPage, 21, &env.summary);
        let mut oracle = Oracle::new(&env.db);
        let mut session = env.db.session();
        for (sql, st) in stable_statements(ops.iter().take(40)) {
            let got = fdb_server::proto::render_outcome(&session.query(&sql).unwrap());
            let want = oracle.lines(st).unwrap();
            assert!(
                same_response(st.ordered, &got, &want),
                "diverged on `{sql}`"
            );
        }
    }
}
