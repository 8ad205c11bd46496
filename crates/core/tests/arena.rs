//! Arena round-trip coverage: build-from-relation → serialize via
//! `io` → reload → canonical-flatten equality, plus the edge shapes the
//! flat storage has to get right (empty root unions, single-entry
//! unions, deep paths) and sanity checks on the physical size report.

use fdb_core::frep::FRep;
use fdb_core::ftree::{FTree, NodeLabel};
use fdb_core::io::{read_frep, write_frep};
use fdb_relational::{Catalog, Relation, Schema, Value};

/// Serialize → reload (re-interning into a clone of the catalog, so
/// attribute ids line up) → compare canonical flattens.
fn round_trip(rep: &FRep, catalog: &Catalog) -> FRep {
    let mut buf = Vec::new();
    write_frep(rep, catalog, &mut buf).expect("serialises");
    let mut fresh = catalog.clone();
    let back = read_frep(buf.as_slice(), &mut fresh).expect("reloads");
    back.check_invariants().expect("reloaded invariants hold");
    assert_eq!(
        back.flatten().canonical(),
        rep.flatten().canonical(),
        "canonical flatten differs after round trip"
    );
    assert_eq!(back.singleton_count(), rep.singleton_count());
    assert_eq!(back.tuple_count(), rep.tuple_count());
    back
}

#[test]
fn relation_build_round_trips_through_io() {
    let mut c = Catalog::new();
    let x = c.intern("x");
    let y = c.intern("y");
    let z = c.intern("z");
    let rel = Relation::from_rows(
        Schema::new(vec![x, y, z]),
        (0..60).map(|i| {
            vec![
                Value::Int(i % 7),
                Value::str(format!("s{}", i % 5)),
                Value::Int(i % 3),
            ]
        }),
    );
    let rep = FRep::from_relation(&rel, FTree::path(&[x, y, z])).unwrap();
    let back = round_trip(&rep, &c);
    // Structural equality too, not just tuple-set equality.
    assert!(back.same_data(&rep));
}

#[test]
fn empty_relation_round_trips() {
    // Emptiness is representable only at the roots: the arena holds one
    // zero-length root union per forest root.
    let mut c = Catalog::new();
    let a = c.intern("a");
    let b = c.intern("b");
    let rel = Relation::empty(Schema::new(vec![a, b]));
    let rep = FRep::from_relation(&rel, FTree::path(&[a, b])).unwrap();
    assert!(rep.is_empty());
    assert_eq!(rep.root(0).len(), 0);
    let back = round_trip(&rep, &c);
    assert!(back.is_empty());
    assert_eq!(back.root_count(), 1);
}

#[test]
fn empty_forest_round_trips() {
    // A forest of two empty roots (product shape on an empty relation).
    let mut c = Catalog::new();
    let a = c.intern("a");
    let b = c.intern("b");
    let mut t = FTree::new();
    t.add_node(NodeLabel::Atomic(vec![a]), None);
    t.add_node(NodeLabel::Atomic(vec![b]), None);
    let rep = FRep::empty(t);
    assert_eq!(rep.root_count(), 2);
    let back = round_trip(&rep, &c);
    assert_eq!(back.root_count(), 2);
    assert!(back.root_unions().all(|u| u.is_empty()));
}

#[test]
fn single_entry_chain_round_trips() {
    // One tuple through a path tree: every union on the spine has
    // exactly one entry.
    let mut c = Catalog::new();
    let a = c.intern("a");
    let b = c.intern("b");
    let d = c.intern("d");
    let rel = Relation::from_rows(
        Schema::new(vec![a, b, d]),
        [(1i64, 2i64, 3i64)]
            .into_iter()
            .map(|(x, y, z)| vec![Value::Int(x), Value::Int(y), Value::Int(z)]),
    );
    let rep = FRep::from_relation(&rel, FTree::path(&[a, b, d])).unwrap();
    assert_eq!(rep.singleton_count(), 3);
    assert_eq!(rep.root(0).len(), 1);
    assert_eq!(rep.root(0).entry(0).child(0).len(), 1);
    round_trip(&rep, &c);
}

#[test]
fn deep_path_round_trips() {
    // A 12-level path: deep nesting exercises the recursive reader and
    // the iterative flatten walk alike.
    let mut c = Catalog::new();
    let attrs: Vec<_> = (0..12).map(|i| c.intern(&format!("a{i}"))).collect();
    let rel = Relation::from_rows(
        Schema::new(attrs.clone()),
        (0..16i64).map(|r| (0..12).map(|j| Value::Int((r >> (j % 4)) & 1)).collect()),
    );
    let rep = FRep::from_relation(&rel, FTree::path(&attrs)).unwrap();
    let back = round_trip(&rep, &c);
    assert!(back.same_data(&rep));
}

#[test]
fn branching_tree_round_trips_after_operators() {
    // Run the representation through swap + aggregate first, so the
    // serialized arena is one produced by the f-plan operators (holding
    // shared fragments and unreachable records), then round-trip it.
    let mut c = Catalog::new();
    let x = c.intern("x");
    let y = c.intern("y");
    let z = c.intern("z");
    let rel = Relation::from_rows(
        Schema::new(vec![x, y, z]),
        (0..40).map(|i| vec![Value::Int(i % 4), Value::Int(i % 10), Value::Int(i)]),
    );
    let rep = FRep::from_relation(&rel, FTree::path(&[x, y, z])).unwrap();
    let nx = rep.ftree().roots()[0];
    let ny = rep.ftree().node(nx).children[0];
    let rep = fdb_core::ops::swap(rep, nx, ny).unwrap();
    let out = c.intern("n");
    let nz = rep.ftree().node_of_attr(z).unwrap();
    let target = fdb_core::ops::AggTarget::subtree(rep.ftree(), nz);
    let rep =
        fdb_core::ops::aggregate(rep, &target, vec![fdb_core::AggOp::Count], vec![out]).unwrap();
    round_trip(&rep, &c);
}

#[test]
fn select_to_empty_round_trips() {
    // Pruning to the empty relation leaves empty root unions tagged with
    // the right nodes; the round trip must preserve that shape.
    let mut c = Catalog::new();
    let a = c.intern("a");
    let b = c.intern("b");
    let rel = Relation::from_rows(
        Schema::new(vec![a, b]),
        [(1, 2), (3, 4)]
            .into_iter()
            .map(|(x, y)| vec![Value::Int(x), Value::Int(y)]),
    );
    let rep = FRep::from_relation(&rel, FTree::path(&[a, b])).unwrap();
    let rep =
        fdb_core::ops::select_const(rep, b, fdb_relational::CmpOp::Gt, &Value::Int(99)).unwrap();
    assert!(rep.is_empty());
    let back = round_trip(&rep, &c);
    assert!(back.is_empty());
}

#[test]
fn stats_track_logical_and_physical_size() {
    let mut c = Catalog::new();
    let a = c.intern("a");
    let b = c.intern("b");
    let rel = Relation::from_rows(
        Schema::new(vec![a, b]),
        (0..30).map(|i| vec![Value::Int(i % 6), Value::str(format!("payload-{i}"))]),
    );
    let rep = FRep::from_relation(&rel, FTree::path(&[a, b])).unwrap();
    let s = rep.stats();
    // 6 a-values + 30 distinct (a,b) pairs.
    assert_eq!(s.singletons, 36);
    assert_eq!(s.values, 36);
    assert_eq!(s.entries, 36);
    assert_eq!(s.unions, 7); // the a-union + 6 b-unions
                             // Capacity-aware byte count must at least cover the string payloads.
    let payload: usize = (0..30).map(|i| format!("payload-{i}").len()).sum();
    assert!(s.bytes > payload, "bytes={} payload={}", s.bytes, payload);
    assert_eq!(rep.memory_bytes(), s.bytes);
    // A clone's stats are identical (capacities may differ only upward).
    let clone_stats = rep.clone().stats();
    assert_eq!(clone_stats.singletons, s.singletons);
    assert_eq!(clone_stats.entries, s.entries);
}

#[test]
fn a_large_clone_reuses_dropped_tables_without_their_data() {
    // Arenas this large are cloned into the tables the last large drop
    // left behind. Drops of a wider and of a narrower arena (more and
    // fewer value columns, other sizes) come first; every clone must
    // still hold exactly its source's records, values and counter.
    let mut c = Catalog::new();
    let (w, x, y, z) = (c.intern("w"), c.intern("x"), c.intern("y"), c.intern("z"));
    let wide = Relation::from_rows(
        Schema::new(vec![w, x, y, z]),
        (0..30_000).map(|i| {
            vec![
                Value::Int(i % 97),
                Value::str(format!("s{}", i % 1009)),
                Value::Int(i),
                Value::Int(i % 7),
            ]
        }),
    );
    let narrow = Relation::from_rows(
        Schema::new(vec![x, y]),
        (0..12_000).map(|i| vec![Value::str(format!("t{}", i % 501)), Value::Int(-i)]),
    );
    let wide = FRep::from_relation(&wide, FTree::path(&[w, x, y, z])).unwrap();
    let narrow = FRep::from_relation(&narrow, FTree::path(&[x, y])).unwrap();
    let same = |copy: &FRep, source: &FRep| {
        copy.check_invariants().unwrap();
        assert!(copy.same_data(source));
        let (cs, ss) = (copy.stats(), source.stats());
        assert_eq!(
            (cs.unions, cs.entries, cs.values, cs.copies_avoided),
            (ss.unions, ss.entries, ss.values, ss.copies_avoided)
        );
    };
    for _ in 0..3 {
        drop(wide.clone());
        let copy = narrow.clone();
        same(&copy, &narrow);
        assert_eq!(copy.flatten().canonical(), narrow.flatten().canonical());
        drop(copy);
        same(&wide.clone(), &wide);
    }
}

#[test]
fn compaction_sheds_garbage_and_preserves_data() {
    // The operators leave superseded records behind; compaction
    // must shed them without changing the represented data, and the
    // compacted arena must round-trip through io like any other.
    let mut c = Catalog::new();
    let x = c.intern("x");
    let y = c.intern("y");
    let z = c.intern("z");
    let rel = Relation::from_rows(
        Schema::new(vec![x, y, z]),
        (0..60).map(|i| vec![Value::Int(i % 6), Value::Int(i % 11), Value::Int(i % 4)]),
    );
    let rep = FRep::from_relation(&rel, FTree::path(&[x, y, z])).unwrap();
    let rep =
        fdb_core::ops::select_const(rep, y, fdb_relational::CmpOp::Ne, &Value::Int(3)).unwrap();
    let nx = rep.ftree().node_of_attr(x).unwrap();
    let ny = rep.ftree().node_of_attr(y).unwrap();
    let rep = fdb_core::ops::swap(rep, nx, ny).unwrap();
    let before = rep.stats();
    let logical = rep.flatten().canonical();
    let compacted = rep.compact();
    compacted.check_invariants().unwrap();
    let after = compacted.stats();
    assert_eq!(compacted.flatten().canonical(), logical);
    assert_eq!(after.singletons, before.singletons);
    assert!(
        after.unions < before.unions,
        "compaction shed no unions: {} -> {}",
        before.unions,
        after.unions
    );
    assert!(after.bytes < before.bytes);
    // The diagnostic counter survives compaction.
    assert_eq!(after.copies_avoided, before.copies_avoided);
    round_trip(&compacted, &c);
}

/// The naive reference of χ: flatten, then regroup from scratch over
/// the swapped f-tree (no sharing anywhere).
fn swap_reference(rep: &FRep, a: fdb_core::NodeId, b: fdb_core::NodeId) -> FRep {
    let mut tree = rep.ftree().clone();
    tree.swap(a, b).unwrap();
    FRep::from_relation(&rep.flatten(), tree).unwrap()
}

#[test]
fn compaction_preserves_sharing() {
    // The swap shares the `E_a` fragments across b-branches;
    // compaction must keep one physical copy per shared fragment, so
    // the compacted arena is no bigger than the unshared reference
    // rebuilt from the flat relation.
    let mut c = Catalog::new();
    let x = c.intern("x");
    let y = c.intern("y");
    let z = c.intern("z");
    let rel = Relation::from_rows(
        Schema::new(vec![x, y, z]),
        (0..80).map(|i| vec![Value::Int(i % 4), Value::Int(i % 5), Value::Int(i % 16)]),
    );
    let rep = FRep::from_relation(&rel, FTree::path(&[x, y, z])).unwrap();
    let nx = rep.ftree().node_of_attr(x).unwrap();
    let ny = rep.ftree().node_of_attr(y).unwrap();
    let legacy = swap_reference(&rep, nx, ny);
    let compacted = fdb_core::ops::swap(rep, nx, ny).unwrap().compact();
    compacted.check_invariants().unwrap();
    assert!(compacted.same_data(&legacy));
    assert_eq!(compacted.singleton_count(), legacy.singleton_count());
    let (cs, ls) = (compacted.stats(), legacy.stats());
    assert!(
        cs.entries <= ls.entries,
        "sharing lost in compaction: {} > {}",
        cs.entries,
        ls.entries
    );
}
