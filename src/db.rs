//! The session API: a shared, registrable database ([`Db`]) handing out
//! cheap immutable snapshots ([`Session`]) that answer SQL with a full
//! result report ([`QueryOutcome`]).
//!
//! This is the facade the serving layer (`fdb-server`), the examples,
//! the benches and the integration tests route through. The design
//! follows the paper's build-once-query-many premise:
//!
//! * a [`Db`] owns one **template engine** whose registered inputs
//!   (factorised views and flat relations) live behind `Arc` — the flat
//!   arena of PR 3 makes an immutable snapshot four vector handles;
//! * [`Db::session`] clones the template under a short lock: the clone
//!   copies the catalog and the name tables but **shares** every arena
//!   and relation buffer. A session is therefore a consistent snapshot —
//!   registrations that happen later are invisible to it;
//! * many sessions, each on its own thread, read the same arenas
//!   concurrently;
//!   results are byte-identical to the single-threaded library run
//!   (pinned by `tests/shared_snapshot.rs` and the oracle sweep);
//! * [`Db`] tracks an **epoch** bumped on every registration, so a
//!   long-lived worker can cheaply detect staleness and re-snapshot.
//!   The bump happens under the template lock and a session reads the
//!   epoch under the same lock, so a session's epoch names exactly the
//!   data it holds.
//!
//! ```
//! use fdb::{Db, Value};
//! use fdb::relational::{Relation, Schema};
//!
//! let db = Db::open();
//! let (item, price) = {
//!     let mut cat = db.catalog();
//!     (cat.intern("item"), cat.intern("price"))
//! };
//! # let _ = item;
//! let rel = Relation::from_rows(
//!     Schema::new(vec![item, price]),
//!     [("base", 6), ("ham", 1)]
//!         .into_iter()
//!         .map(|(i, p)| vec![Value::str(i), Value::Int(p)]),
//! );
//! db.register_relation("Items", rel);
//! let mut session = db.session();
//! let out = session.query("SELECT SUM(price) AS total FROM Items").unwrap();
//! assert_eq!(out.rows.row(0)[0], Value::Int(7));
//! assert_eq!(out.columns, vec!["total"]);
//! assert!(out.explain.contains("f-plan"));
//! ```

use crate::core::engine::{FdbEngine, OrderStrategy, RunOptions};
use crate::core::error::FdbError;
use crate::core::{ExecStats, FRep, OrderRunStats, Result};
use crate::query::Statement;
use crate::relational::{Catalog, Predicate, Relation, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A shared database: the registration surface plus a template engine
/// from which immutable [`Session`] snapshots are cloned.
///
/// `Db` is `Clone` + `Send` + `Sync`; clones are handles to the same
/// underlying database (the serving layer passes one per worker).
#[derive(Clone, Debug)]
pub struct Db {
    inner: Arc<DbInner>,
}

#[derive(Debug)]
struct DbInner {
    /// The template engine. Mutated only by registrations; sessions
    /// clone it under the lock (cheap: inputs are `Arc`-shared).
    template: Mutex<FdbEngine>,
    /// Bumped on every registration, under the template lock; lets
    /// workers detect stale snapshots without taking the lock.
    epoch: AtomicU64,
}

impl Db {
    /// An empty database with a fresh catalog.
    pub fn open() -> Db {
        Db::from_engine(FdbEngine::new(Catalog::new()))
    }

    /// Wraps an already-populated engine (the benches and tests build
    /// their datasets through `FdbEngine` setup helpers).
    pub fn from_engine(engine: FdbEngine) -> Db {
        Db {
            inner: Arc::new(DbInner {
                template: Mutex::new(engine),
                epoch: AtomicU64::new(1),
            }),
        }
    }

    /// Locked access to the template engine's catalog (interning
    /// attributes before building relations by hand).
    pub fn catalog(&self) -> CatalogGuard<'_> {
        CatalogGuard { guard: self.lock() }
    }

    /// Locks the template, recovering it from a panic under the lock: a
    /// commit mutates private clones and publishes only after every
    /// fallible step (see [`WriteBatch::commit`]), so a panicking holder
    /// leaves the last published template, never a half-applied batch.
    fn lock(&self) -> MutexGuard<'_, FdbEngine> {
        self.inner
            .template
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a flat relation; visible to sessions opened afterwards.
    pub fn register_relation(&self, name: impl Into<String>, rel: Relation) {
        let mut engine = self.lock();
        engine.register_relation(name, rel);
        self.bump(&engine);
    }

    /// Registers a factorised view; visible to sessions opened afterwards.
    pub fn register_view(&self, name: impl Into<String>, rep: FRep) {
        let mut engine = self.lock();
        engine.register_view(name, rep);
        self.bump(&engine);
    }

    /// Loads a serialised view (the `fdbv1` format of `fdb_core::io`)
    /// and registers it under `name`.
    pub fn load_view(&self, name: impl Into<String>, r: impl std::io::BufRead) -> Result<()> {
        let mut engine = self.lock();
        engine.load_view(name, r)?;
        self.bump(&engine);
        Ok(())
    }

    /// The current registration epoch (starts at 1, bumped on every
    /// registration). A [`Session`] records the epoch it was cut at;
    /// `session.epoch() != db.epoch()` means the snapshot is stale.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// Bumps the epoch; takes the template guard to prove the lock is
    /// held, so no session can clone the new data under the old epoch.
    fn bump(&self, _held: &MutexGuard<'_, FdbEngine>) {
        self.inner.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Cuts an immutable snapshot: a [`Session`] holding its own cheap
    /// clone of the template engine (shared arenas, private catalog)
    /// and the epoch that data was published at.
    pub fn session(&self) -> Session {
        let template = self.lock();
        Session {
            engine: template.clone(),
            opts: RunOptions::default(),
            epoch: self.epoch(),
        }
    }

    /// Names of the registered relations and views `(relations, views)`,
    /// both sorted (the serving layer's `STATS` report).
    pub fn input_names(&self) -> (Vec<String>, Vec<String>) {
        let engine = self.lock();
        (engine.relation_names(), engine.view_names())
    }

    // -----------------------------------------------------------------
    // Write path (MVCC over copy-on-write snapshots)
    // -----------------------------------------------------------------
    //
    // A write never touches a published input in place. Under the
    // template lock it clones the target (for a factorised view the
    // clone shares the published arena base and copies only its tail;
    // the delta mutators then append the rewritten spine to the tail,
    // sharing every untouched fragment — see `fdb_core::update`),
    // re-registers the mutated copy, and bumps the epoch once. Sessions
    // cut before the write keep their own `Arc`s to the old snapshot
    // and are unaffected; the serving layer's plan cache is keyed by
    // epoch, so the bump retires every cached response built over the
    // pre-write state.

    /// Inserts `rows` (laid out per the table's registered schema) into
    /// a registered view or relation; returns how many were new (set
    /// semantics). One snapshot swap and one epoch bump however many
    /// rows are given.
    pub fn insert(
        &self,
        table: impl Into<String>,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<usize> {
        let mut batch = self.begin_batch();
        let table = table.into();
        for row in rows {
            batch.insert(&table, row);
        }
        Ok(batch.commit()?.inserted)
    }

    /// Deletes one exact row; returns whether it was present.
    pub fn delete_row(&self, table: impl Into<String>, row: Vec<Value>) -> Result<bool> {
        let mut batch = self.begin_batch();
        batch.delete_row(table, row);
        Ok(batch.commit()?.deleted > 0)
    }

    /// Deletes every row satisfying all `predicates` (an empty list
    /// deletes everything); returns how many went. On a view whose
    /// f-tree cannot represent the result the delete is refused and
    /// nothing changes (see [`FRep::delete_where`]).
    pub fn delete_where(
        &self,
        table: impl Into<String>,
        predicates: Vec<Predicate>,
    ) -> Result<usize> {
        let mut batch = self.begin_batch();
        batch.delete_where(table, predicates);
        Ok(batch.commit()?.deleted)
    }

    /// Starts a write batch: queued operations apply atomically on
    /// [`WriteBatch::commit`] — one template lock, one copy-on-write
    /// snapshot per touched input, one epoch bump. Readers see either
    /// none or all of the batch.
    pub fn begin_batch(&self) -> WriteBatch<'_> {
        WriteBatch {
            db: self,
            ops: Vec::new(),
        }
    }

    /// Parses and applies one SQL write statement —
    /// `INSERT INTO r [(cols)] VALUES (…), …` or
    /// `DELETE FROM r [WHERE a = c AND …]` — against the registered
    /// inputs. `SELECT` text is rejected here: reads go through
    /// [`Session::query`] so they run on an immutable snapshot.
    pub fn execute(&self, sql: &str) -> Result<WriteReport> {
        // Parse under the template lock (the statement resolves against
        // the live schemas), then reuse the batch machinery.
        let stmt = {
            let mut engine = self.lock();
            let schemas = engine.schemas();
            crate::query::parse_statement(sql, &mut engine.catalog, &schemas)
                .map_err(|e| FdbError::InvalidOperator(e.to_string()))?
        };
        match stmt {
            Statement::Insert(ins) => {
                let mut batch = self.begin_batch();
                for row in ins.rows {
                    batch.insert(&ins.table, row);
                }
                batch.commit()
            }
            Statement::Delete(del) => {
                let mut batch = self.begin_batch();
                batch.delete_where(del.table, del.predicates);
                batch.commit()
            }
            Statement::Select(_) => Err(FdbError::InvalidOperator(
                "SELECT is not a write; open a Session and use query()".into(),
            )),
        }
    }
}

/// One queued write of a [`WriteBatch`].
enum WriteOp {
    Insert(Vec<Value>),
    DeleteRow(Vec<Value>),
    DeleteWhere(Vec<Predicate>),
}

/// What a committed batch did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteReport {
    /// Rows that were actually new (set semantics).
    pub inserted: usize,
    /// Rows that were present and removed.
    pub deleted: usize,
}

/// An atomic group of writes against one [`Db`] — see
/// [`Db::begin_batch`]. Queuing performs no work and takes no lock;
/// everything happens in [`WriteBatch::commit`].
pub struct WriteBatch<'a> {
    db: &'a Db,
    ops: Vec<(String, WriteOp)>,
}

impl WriteBatch<'_> {
    /// Queues an insert of `row` (in the table's registered schema
    /// order).
    pub fn insert(&mut self, table: impl Into<String>, row: Vec<Value>) -> &mut Self {
        self.ops.push((table.into(), WriteOp::Insert(row)));
        self
    }

    /// Queues a delete of one exact row.
    pub fn delete_row(&mut self, table: impl Into<String>, row: Vec<Value>) -> &mut Self {
        self.ops.push((table.into(), WriteOp::DeleteRow(row)));
        self
    }

    /// Queues a predicate delete (empty list = delete everything).
    pub fn delete_where(&mut self, table: impl Into<String>, preds: Vec<Predicate>) -> &mut Self {
        self.ops.push((table.into(), WriteOp::DeleteWhere(preds)));
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Applies the queued writes atomically: one template lock, one
    /// copy-on-write snapshot per touched input (re-registered only on
    /// success of the whole batch), one epoch bump — and none at all
    /// when no row actually changed, keeping cached responses valid
    /// across no-op writes.
    ///
    /// A view's snapshot shares the published arena base and copies its
    /// tail; the writes append to that tail, and the published version
    /// keeps the base (see [`FRep::settle`] for when it compacts or
    /// folds instead). Its tuple count is carried forward from the
    /// batch's own insert and delete counts. So a commit costs the
    /// writes, not the view.
    pub fn commit(self) -> Result<WriteReport> {
        let mut report = WriteReport::default();
        if self.ops.is_empty() {
            return Ok(report);
        }
        let mut engine = self.db.lock();
        // Copy-on-write working set: each touched input is snapshotted
        // once per batch however many ops hit it; a view carries the
        // batch's counts against it.
        let mut views: HashMap<String, (FRep, WriteReport)> = HashMap::new();
        let mut rels: HashMap<String, Relation> = HashMap::new();
        for (table, op) in &self.ops {
            if !views.contains_key(table) && !rels.contains_key(table) {
                if let Some(rep) = engine.view_arc(table) {
                    let snapshot = FRep::clone(&rep);
                    views.insert(table.clone(), (snapshot, WriteReport::default()));
                } else if let Some(rel) = engine.relation_arc(table) {
                    rels.insert(table.clone(), Relation::clone(&rel));
                } else {
                    return Err(FdbError::Unresolved(format!(
                        "no registered view or relation named `{table}`"
                    )));
                }
            }
            if let Some((rep, counts)) = views.get_mut(table) {
                apply_to_view(rep, op, counts)?;
            } else if let Some(rel) = rels.get_mut(table) {
                apply_to_relation(rel, op, &mut report)?;
            }
        }
        for (_, counts) in views.values() {
            report.inserted += counts.inserted;
            report.deleted += counts.deleted;
        }
        if report.inserted + report.deleted == 0 {
            return Ok(report);
        }
        // Settle every view before registering any, so a panic while
        // compacting or folding cannot leave a half-published batch.
        let views: Vec<(String, FRep, usize)> = views
            .into_iter()
            .map(|(name, (rep, counts))| {
                let before = engine.view_tuples(&name).unwrap_or(0);
                let tuples = (before + counts.inserted).saturating_sub(counts.deleted);
                (name, rep.settle(), tuples)
            })
            .collect();
        for (name, rep, tuples) in views {
            engine.register_view_counted(name, Arc::new(rep), tuples);
        }
        for (name, rel) in rels {
            engine.register_relation_arc(name, Arc::new(rel));
        }
        self.db.bump(&engine);
        Ok(report)
    }
}

fn check_row_arity(row: &[Value], arity: usize) -> Result<()> {
    if row.len() != arity {
        return Err(FdbError::InvalidOperator(format!(
            "write row has {} values, table schema has {arity}",
            row.len()
        )));
    }
    Ok(())
}

/// Pre-checks that every predicate attribute is in `schema` (the
/// relational `Predicate::eval` panics on unresolved attributes).
fn check_predicates(preds: &[Predicate], schema: &crate::relational::Schema) -> Result<()> {
    for p in preds {
        for a in p.attrs() {
            if !schema.contains(a) {
                return Err(FdbError::Unresolved(format!(
                    "predicate attribute {a} is not in the table schema"
                )));
            }
        }
    }
    Ok(())
}

fn apply_to_view(rep: &mut FRep, op: &WriteOp, report: &mut WriteReport) -> Result<()> {
    match op {
        WriteOp::Insert(row) => {
            if rep.insert(row)? {
                report.inserted += 1;
            }
        }
        WriteOp::DeleteRow(row) => {
            if rep.delete(row)? {
                report.deleted += 1;
            }
        }
        WriteOp::DeleteWhere(preds) => report.deleted += rep.delete_where(preds)?,
    }
    Ok(())
}

fn apply_to_relation(rel: &mut Relation, op: &WriteOp, report: &mut WriteReport) -> Result<()> {
    match op {
        WriteOp::Insert(row) => {
            check_row_arity(row, rel.arity())?;
            if rel.insert(row) {
                report.inserted += 1;
            }
        }
        WriteOp::DeleteRow(row) => {
            check_row_arity(row, rel.arity())?;
            if rel.delete_row(row) {
                report.deleted += 1;
            }
        }
        WriteOp::DeleteWhere(preds) => {
            let schema = rel.schema().clone();
            check_predicates(preds, &schema)?;
            report.deleted += rel.delete_where(|row| preds.iter().all(|p| p.eval(&schema, row)));
        }
    }
    Ok(())
}

impl Default for Db {
    fn default() -> Self {
        Db::open()
    }
}

/// RAII view of the template engine's catalog (see [`Db::catalog`]).
pub struct CatalogGuard<'a> {
    guard: MutexGuard<'a, FdbEngine>,
}

impl std::ops::Deref for CatalogGuard<'_> {
    type Target = Catalog;
    fn deref(&self) -> &Catalog {
        &self.guard.catalog
    }
}

impl std::ops::DerefMut for CatalogGuard<'_> {
    fn deref_mut(&mut self) -> &mut Catalog {
        &mut self.guard.catalog
    }
}

/// An immutable snapshot of a [`Db`] plus per-session run options.
///
/// Sessions are `Send`: the serving layer keeps one per worker thread
/// and refreshes it when the epoch moves. All methods take `&mut self`
/// only because each run interns fresh output attributes into the
/// session's private catalog copy — the shared data is never written.
#[derive(Clone, Debug)]
pub struct Session {
    engine: FdbEngine,
    opts: RunOptions,
    epoch: u64,
}

impl Session {
    /// The [`Db::epoch`] this snapshot was cut at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The session's default run options (applied by [`Session::query`]).
    pub fn options(&self) -> RunOptions {
        self.opts
    }

    /// Replaces the session's default run options (builder style).
    pub fn with_options(mut self, opts: RunOptions) -> Self {
        self.opts = opts;
        self
    }

    /// The session's catalog (attribute names of this snapshot).
    pub fn catalog(&self) -> &Catalog {
        &self.engine.catalog
    }

    /// The underlying engine (escape hatch for task-level callers; the
    /// differential suites run `JoinAggTask`s directly through it).
    pub fn engine_mut(&mut self) -> &mut FdbEngine {
        &mut self.engine
    }

    /// Parses and runs `sql` with the session options, returning the
    /// enumerated rows plus the full execution report.
    pub fn query(&mut self, sql: &str) -> Result<QueryOutcome> {
        self.query_with(sql, self.opts)
    }

    /// [`Session::query`] with explicit per-call options (the serving
    /// layer passes per-request deadlines through here).
    ///
    /// The attributes a run interns (aliases, derived aggregate names,
    /// partial-aggregate scratch) are forgotten once the outcome is
    /// built, so a long-lived session's catalog does not grow with the
    /// queries it answers and the same SQL always gets the same column
    /// names. The attribute ids in the outcome's `rows` schema are
    /// therefore not resolvable through [`Session::catalog`]; use
    /// `columns`.
    pub fn query_with(&mut self, sql: &str, opts: RunOptions) -> Result<QueryOutcome> {
        self.scoped(|engine| {
            let result = engine.run_sql_with(sql, opts)?;
            let explain = result.explain(&engine.catalog);
            let strategy = result.order_strategy();
            let exec = result.exec_stats();
            let (rows, order) = result.to_relation_counted()?;
            let columns = rows
                .schema()
                .attrs()
                .iter()
                .map(|&a| engine.catalog.name(a).to_string())
                .collect();
            Ok(QueryOutcome {
                rows,
                columns,
                explain,
                strategy,
                exec,
                order,
            })
        })
    }

    /// The EXPLAIN text of `sql` under the session options: plans and
    /// executes the f-plan but does **not** enumerate the result. Like
    /// [`Session::query_with`], leaves the catalog as it found it.
    pub fn explain(&mut self, sql: &str) -> Result<String> {
        let opts = self.opts;
        self.scoped(|engine| {
            let result = engine.run_sql_with(sql, opts)?;
            Ok(result.explain(&engine.catalog))
        })
    }

    /// Runs `f`, then rolls the catalog back to where it was before.
    fn scoped<T>(&mut self, f: impl FnOnce(&mut FdbEngine) -> Result<T>) -> Result<T> {
        let mark = self.engine.catalog.mark();
        let out = f(&mut self.engine);
        self.engine.catalog.rollback(mark);
        out
    }
}

/// Everything one query run produced: the flat rows, the column names
/// in declared order, the EXPLAIN rendering, and the execution reports
/// of the plan run and the enumeration pass.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The enumerated result (ordered, filtered and truncated per the
    /// query).
    pub rows: Relation,
    /// Output column names in declared order.
    pub columns: Vec<String>,
    /// EXPLAIN-style rendering of the executed f-plan.
    pub explain: String,
    /// The physical `ORDER BY` strategy that executed.
    pub strategy: OrderStrategy,
    /// Stage/allocation report of the f-plan run.
    pub exec: ExecStats,
    /// Enumeration report: strategy, rows enumerated, ordering-side
    /// peak bytes.
    pub order: OrderRunStats,
}

impl QueryOutcome {
    /// True when the query enumerated no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of enumerated rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }
}
