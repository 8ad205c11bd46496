//! Persistence for factorised views.
//!
//! The paper's main scenario is read-optimised: views are materialised *as
//! factorisations* and queried repeatedly (§1). This module serialises an
//! [`FRep`] — f-tree, dependency sets and data — to a compact token stream
//! and reads it back into (possibly) another catalog, re-interning
//! attribute names.
//!
//! Format (`fdbv1`, whitespace-separated tokens, strings length-prefixed
//! so no escaping is needed):
//!
//! ```text
//! fdbv1 <n_attrs> {s<len>:<name>}            attribute table (local ids)
//! t <n_nodes> {<parent|-1> (a <k> <ids…> | g <k> {op} <over…> <out…>)}
//! op := c | (s|m|x|d|p) <id> | (e|f) <id> <cmp> <const> | k <id> <k>
//! cmp := 0..=5                                (=, <>, <, <=, >, >=)
//! d <n_edges> {<k> <ids…>}                   dependency hyperedges
//! {union per root}                            data, recursive:
//!   u <n_entries> {<value> {child unions}}
//! value := i<int> | f<hex-bits> | s<len>:<bytes> | t<k> {value}
//! ```

use crate::error::{FdbError, Result};
use crate::frep::{Arena, FRep, UnionId, UnionRef};
use crate::ftree::{AggLabel, AggOp, FTree, NodeId, NodeLabel};
use fdb_relational::{AttrId, Catalog, CmpOp, Value};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};

const MAGIC: &str = "fdbv1";

/// Deepest nesting the reader accepts, for tuple values (`t<k>` inside
/// `t<k>`) and for the f-tree (nodes on a root-to-leaf path). Both are
/// read by recursion, so an unbounded depth would let a small hostile
/// file overflow the loading thread's stack — an abort of the whole
/// process, not an error.
const MAX_NESTING: usize = 256;

fn cmp_code(op: CmpOp) -> usize {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn cmp_from(code: usize) -> Result<CmpOp> {
    Ok(match code {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        _ => return Err(malformed(format!("unknown comparison code {code}"))),
    })
}

fn io_err(e: std::io::Error) -> FdbError {
    FdbError::Unresolved(format!("io error: {e}"))
}

fn malformed(what: impl Into<String>) -> FdbError {
    FdbError::Unresolved(format!("malformed fdbv1 stream: {}", what.into()))
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// Serialises a factorised view. Attribute names come from `catalog`.
pub fn write_frep(rep: &FRep, catalog: &Catalog, mut w: impl Write) -> Result<()> {
    let tree = rep.ftree();
    // Local attribute table: every attribute the view mentions (exposed or
    // in `over` sets or dependency edges), in first-use order.
    let mut attrs: Vec<AttrId> = Vec::new();
    let note = |a: AttrId, attrs: &mut Vec<AttrId>| {
        if !attrs.contains(&a) {
            attrs.push(a);
        }
    };
    for n in tree.live_nodes() {
        match &tree.node(n).label {
            NodeLabel::Atomic(class) => {
                for &a in class {
                    note(a, &mut attrs);
                }
            }
            NodeLabel::Agg(l) => {
                for f in &l.funcs {
                    if let Some(a) = f.attr() {
                        note(a, &mut attrs);
                    }
                }
                for &a in &l.over {
                    note(a, &mut attrs);
                }
                for &a in &l.outputs {
                    note(a, &mut attrs);
                }
            }
        }
    }
    for e in tree.deps() {
        for &a in e {
            note(a, &mut attrs);
        }
    }
    let local: BTreeMap<AttrId, usize> = attrs.iter().enumerate().map(|(i, &a)| (a, i)).collect();
    write!(w, "{MAGIC} {}", attrs.len()).map_err(io_err)?;
    for &a in &attrs {
        let name = catalog.name(a);
        write!(w, " s{}:{}", name.len(), name).map_err(io_err)?;
    }

    // Tree: pre-order, parents before children by construction.
    let nodes = tree.live_nodes();
    let node_idx: BTreeMap<NodeId, usize> =
        nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    write!(w, " t {}", nodes.len()).map_err(io_err)?;
    for &n in &nodes {
        let parent = match tree.node(n).parent {
            None => -1i64,
            Some(p) => node_idx[&p] as i64,
        };
        write!(w, " {parent}").map_err(io_err)?;
        match &tree.node(n).label {
            NodeLabel::Atomic(class) => {
                write!(w, " a {}", class.len()).map_err(io_err)?;
                for a in class {
                    write!(w, " {}", local[a]).map_err(io_err)?;
                }
            }
            NodeLabel::Agg(l) => {
                write!(w, " g {}", l.funcs.len()).map_err(io_err)?;
                for f in &l.funcs {
                    match f {
                        AggOp::Count => write!(w, " c").map_err(io_err)?,
                        AggOp::Sum(a) => write!(w, " s {}", local[a]).map_err(io_err)?,
                        AggOp::Min(a) => write!(w, " m {}", local[a]).map_err(io_err)?,
                        AggOp::Max(a) => write!(w, " x {}", local[a]).map_err(io_err)?,
                        AggOp::CountDistinct(a) => write!(w, " d {}", local[a]).map_err(io_err)?,
                        AggOp::Product(a) => write!(w, " p {}", local[a]).map_err(io_err)?,
                        AggOp::Exists(a, op, c) => {
                            write!(w, " e {} {} {}", local[a], cmp_code(*op), c).map_err(io_err)?
                        }
                        AggOp::Forall(a, op, c) => {
                            write!(w, " f {} {} {}", local[a], cmp_code(*op), c).map_err(io_err)?
                        }
                        AggOp::TopK(a, k) => write!(w, " k {} {}", local[a], k).map_err(io_err)?,
                    }
                }
                write!(w, " {}", l.over.len()).map_err(io_err)?;
                for a in &l.over {
                    write!(w, " {}", local[a]).map_err(io_err)?;
                }
                write!(w, " {}", l.outputs.len()).map_err(io_err)?;
                for a in &l.outputs {
                    write!(w, " {}", local[a]).map_err(io_err)?;
                }
            }
        }
    }
    write!(w, " d {}", tree.deps().len()).map_err(io_err)?;
    for e in tree.deps() {
        write!(w, " {}", e.len()).map_err(io_err)?;
        for a in e {
            write!(w, " {}", local[a]).map_err(io_err)?;
        }
    }
    for u in rep.root_unions() {
        write_union(u, &mut w)?;
    }
    writeln!(w).map_err(io_err)?;
    Ok(())
}

fn write_union(u: UnionRef<'_>, w: &mut impl Write) -> Result<()> {
    write!(w, " u {}", u.len()).map_err(io_err)?;
    for e in u.entries() {
        write_value(e.value(), w)?;
        for c in e.children() {
            write_union(c, w)?;
        }
    }
    Ok(())
}

fn write_value(v: &Value, w: &mut impl Write) -> Result<()> {
    match v {
        Value::Int(i) => write!(w, " i{i}").map_err(io_err),
        Value::Float(f) => write!(w, " f{:016x}", f.to_bits()).map_err(io_err),
        Value::Str(s) => write!(w, " s{}:{}", s.len(), s).map_err(io_err),
        Value::Tup(vs) => {
            write!(w, " t{}", vs.len()).map_err(io_err)?;
            for v in vs.iter() {
                write_value(v, w)?;
            }
            Ok(())
        }
        Value::Null => write!(w, " n").map_err(io_err),
    }
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// Byte-stream tokenizer: whitespace-separated tokens with embedded
/// length-prefixed strings (which may contain any bytes, including
/// whitespace).
struct Tokens {
    buf: Vec<u8>,
    pos: usize,
}

impl Tokens {
    fn new(mut r: impl BufRead) -> Result<Self> {
        let mut buf = Vec::new();
        r.read_to_end(&mut buf).map_err(io_err)?;
        Ok(Tokens { buf, pos: 0 })
    }

    /// Capacity to reserve for `n` elements announced by the stream: never
    /// more than the remaining input can encode (each element takes at
    /// least two bytes, a separator and a token), so a hostile count
    /// cannot trigger a huge allocation. Reading past the real elements
    /// fails on the first missing token.
    fn capacity(&self, n: usize) -> usize {
        n.min((self.buf.len() - self.pos) / 2)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.buf.len() && self.buf[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    /// Next bare token (no embedded string payloads).
    fn word(&mut self) -> Result<&str> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.buf.len() && !self.buf[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(malformed("unexpected end of stream"));
        }
        std::str::from_utf8(&self.buf[start..self.pos]).map_err(|_| malformed("non-utf8 token"))
    }

    fn usize(&mut self) -> Result<usize> {
        self.word()?
            .parse()
            .map_err(|_| malformed("expected an unsigned integer"))
    }

    fn i64(&mut self) -> Result<i64> {
        self.word()?
            .parse()
            .map_err(|_| malformed("expected an integer"))
    }

    /// A length-prefixed string token `s<len>:<bytes>`.
    fn string(&mut self) -> Result<String> {
        self.skip_ws();
        if self.buf.get(self.pos) != Some(&b's') {
            return Err(malformed("expected a string token"));
        }
        self.pos += 1;
        let len_start = self.pos;
        while self.buf.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let len: usize = std::str::from_utf8(&self.buf[len_start..self.pos])
            .unwrap()
            .parse()
            .map_err(|_| malformed("bad string length"))?;
        if self.buf.get(self.pos) != Some(&b':') {
            return Err(malformed("expected `:` after string length"));
        }
        self.pos += 1;
        let end = self
            .pos
            .checked_add(len)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| malformed("string payload truncated"))?;
        let s = std::str::from_utf8(&self.buf[self.pos..end])
            .map_err(|_| malformed("non-utf8 string payload"))?
            .to_string();
        self.pos = end;
        Ok(s)
    }

    /// A value token, nested inside `depth` tuples.
    fn value(&mut self, depth: usize) -> Result<Value> {
        self.skip_ws();
        match self.buf.get(self.pos) {
            Some(b'i') => {
                self.pos += 1;
                Ok(Value::Int(self.i64()?))
            }
            Some(b'f') => {
                self.pos += 1;
                let hex = self.word()?;
                let bits = u64::from_str_radix(hex, 16).map_err(|_| malformed("bad float bits"))?;
                Ok(Value::Float(f64::from_bits(bits)))
            }
            Some(b's') => Ok(Value::str(self.string()?)),
            Some(b't') => {
                if depth == MAX_NESTING {
                    return Err(malformed(format!(
                        "values nest deeper than {MAX_NESTING} tuples"
                    )));
                }
                self.pos += 1;
                let k = self.usize()?;
                let mut vs = Vec::with_capacity(self.capacity(k));
                for _ in 0..k {
                    vs.push(self.value(depth + 1)?);
                }
                Ok(Value::tup(vs))
            }
            Some(b'n') => {
                self.pos += 1;
                Ok(Value::Null)
            }
            _ => Err(malformed("expected a value token")),
        }
    }
}

/// Reads a factorised view, interning attribute names into `catalog`.
pub fn read_frep(r: impl BufRead, catalog: &mut Catalog) -> Result<FRep> {
    let mut t = Tokens::new(r)?;
    if t.word()? != MAGIC {
        return Err(malformed("bad magic (expected fdbv1)"));
    }
    let n_attrs = t.usize()?;
    let mut attrs = Vec::with_capacity(t.capacity(n_attrs));
    for _ in 0..n_attrs {
        let name = t.string()?;
        attrs.push(catalog.intern(&name));
    }
    let attr = |i: usize| -> Result<AttrId> {
        attrs
            .get(i)
            .copied()
            .ok_or_else(|| malformed("attribute index out of range"))
    };

    if t.word()? != "t" {
        return Err(malformed("expected tree section"));
    }
    let n_nodes = t.usize()?;
    let mut tree = FTree::new();
    // (node id, depth in nodes) per node read so far.
    let mut ids: Vec<(NodeId, usize)> = Vec::with_capacity(t.capacity(n_nodes));
    for _ in 0..n_nodes {
        let parent = t.i64()?;
        let (parent, depth) = if parent < 0 {
            (None, 1)
        } else {
            let (p, d) = ids
                .get(parent as usize)
                .copied()
                .ok_or_else(|| malformed("parent index out of range"))?;
            (Some(p), d + 1)
        };
        if depth > MAX_NESTING {
            return Err(malformed(format!("f-tree deeper than {MAX_NESTING} nodes")));
        }
        let label = match t.word()? {
            "a" => {
                let k = t.usize()?;
                let mut class = Vec::with_capacity(t.capacity(k));
                for _ in 0..k {
                    class.push(attr(t.usize()?)?);
                }
                NodeLabel::Atomic(class)
            }
            "g" => {
                let k = t.usize()?;
                let mut funcs = Vec::with_capacity(t.capacity(k));
                for _ in 0..k {
                    funcs.push(match t.word()? {
                        "c" => AggOp::Count,
                        "s" => AggOp::Sum(attr(t.usize()?)?),
                        "m" => AggOp::Min(attr(t.usize()?)?),
                        "x" => AggOp::Max(attr(t.usize()?)?),
                        "d" => AggOp::CountDistinct(attr(t.usize()?)?),
                        "p" => AggOp::Product(attr(t.usize()?)?),
                        "e" => {
                            let a = attr(t.usize()?)?;
                            let op = cmp_from(t.usize()?)?;
                            AggOp::Exists(a, op, t.i64()?)
                        }
                        "f" => {
                            let a = attr(t.usize()?)?;
                            let op = cmp_from(t.usize()?)?;
                            AggOp::Forall(a, op, t.i64()?)
                        }
                        "k" => {
                            let a = attr(t.usize()?)?;
                            AggOp::TopK(a, t.usize()?)
                        }
                        other => return Err(malformed(format!("unknown agg op `{other}`"))),
                    });
                }
                let n_over = t.usize()?;
                let mut over = std::collections::BTreeSet::new();
                for _ in 0..n_over {
                    over.insert(attr(t.usize()?)?);
                }
                let n_out = t.usize()?;
                let mut outputs = Vec::with_capacity(t.capacity(n_out));
                for _ in 0..n_out {
                    outputs.push(attr(t.usize()?)?);
                }
                NodeLabel::Agg(AggLabel {
                    funcs,
                    over,
                    outputs,
                })
            }
            other => return Err(malformed(format!("unknown label kind `{other}`"))),
        };
        ids.push((tree.add_node(label, parent), depth));
    }
    if t.word()? != "d" {
        return Err(malformed("expected dependency section"));
    }
    let n_deps = t.usize()?;
    for _ in 0..n_deps {
        let k = t.usize()?;
        let mut edge = Vec::with_capacity(t.capacity(k));
        for _ in 0..k {
            edge.push(attr(t.usize()?)?);
        }
        tree.add_dep(edge);
    }

    let roots: Vec<NodeId> = tree.roots().to_vec();
    let mut arena = Arena::default();
    let mut root_unions = Vec::with_capacity(roots.len());
    for &root in &roots {
        root_unions.push(read_union(&mut t, &tree, root, &mut arena)?);
    }
    let rep = FRep::from_arena(tree, arena, root_unions);
    rep.check_invariants()?;
    Ok(rep)
}

/// Reads one union straight into the arena (no intermediate nested tree).
fn read_union(t: &mut Tokens, tree: &FTree, node: NodeId, arena: &mut Arena) -> Result<UnionId> {
    if t.word()? != "u" {
        return Err(malformed("expected a union"));
    }
    let n = t.usize()?;
    let children: Vec<NodeId> = tree.node(node).children.clone();
    let mut specs = Vec::with_capacity(t.capacity(n));
    let mut kid_ids = Vec::with_capacity(children.len());
    for _ in 0..n {
        let value = t.value(0)?;
        kid_ids.clear();
        for &c in &children {
            kid_ids.push(read_union(t, tree, c, arena)?);
        }
        specs.push(arena.entry(node, value, &kid_ids));
    }
    Ok(arena.push_union(node, &specs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_relational::{Relation, Schema};

    fn sample_rep() -> (Catalog, FRep) {
        let mut c = Catalog::new();
        let pizza = c.intern("pizza");
        let item = c.intern("item with spaces");
        let rel = Relation::from_rows(
            Schema::new(vec![pizza, item]),
            [
                ("Hawaii", "base"),
                ("Hawaii", "ham and cheese"),
                ("Margherita", "base"),
            ]
            .into_iter()
            .map(|(p, i)| vec![Value::str(p), Value::str(i)]),
        );
        let rep = FRep::from_relation(&rel, FTree::path(&[pizza, item])).unwrap();
        (c, rep)
    }

    #[test]
    fn round_trip_same_catalog() {
        let (c, rep) = sample_rep();
        let mut buf = Vec::new();
        write_frep(&rep, &c, &mut buf).unwrap();
        let mut c2 = c.clone();
        let back = read_frep(buf.as_slice(), &mut c2).unwrap();
        back.check_invariants().unwrap();
        assert_eq!(back.tuple_count(), rep.tuple_count());
        assert_eq!(back.singleton_count(), rep.singleton_count());
        assert_eq!(back.flatten().canonical(), rep.flatten().canonical());
    }

    #[test]
    fn round_trip_fresh_catalog_reinterns() {
        let (c, rep) = sample_rep();
        let mut buf = Vec::new();
        write_frep(&rep, &c, &mut buf).unwrap();
        // A fresh catalog with different pre-existing ids.
        let mut c2 = Catalog::new();
        c2.intern("unrelated");
        let back = read_frep(buf.as_slice(), &mut c2).unwrap();
        assert_eq!(back.tuple_count(), 3);
        // Attribute names survived.
        assert!(c2.lookup("item with spaces").is_some());
    }

    #[test]
    fn round_trip_aggregate_view() {
        let (mut c, rep) = sample_rep();
        let item = c.lookup("item with spaces").unwrap();
        let n_item = rep.ftree().node_of_attr(item).unwrap();
        let out = c.intern("n");
        let target = crate::ops::AggTarget::subtree(rep.ftree(), n_item);
        let agged = crate::ops::aggregate(rep, &target, vec![AggOp::Count], vec![out]).unwrap();
        let mut buf = Vec::new();
        write_frep(&agged, &c, &mut buf).unwrap();
        let mut c2 = Catalog::new();
        let back = read_frep(buf.as_slice(), &mut c2).unwrap();
        assert_eq!(
            back.flatten().canonical().len(),
            agged.flatten().canonical().len()
        );
        // Dependency edges survived (count output depends on pizza).
        assert_eq!(back.ftree().deps().len(), agged.ftree().deps().len());
    }

    #[test]
    fn round_trip_composite_and_float_values() {
        use crate::frep::{Entry, Union};
        use crate::ftree::AggLabel;
        let mut c = Catalog::new();
        let x = c.intern("x");
        let s = c.intern("s");
        let n = c.intern("n");
        let mut t = FTree::new();
        let nx = t.add_node(NodeLabel::Atomic(vec![x]), None);
        let ng = t.add_node(
            NodeLabel::Agg(AggLabel {
                funcs: vec![AggOp::Sum(x), AggOp::Count],
                over: [x].into_iter().collect(),
                outputs: vec![s, n],
            }),
            Some(nx),
        );
        let rep = FRep::new(
            t,
            vec![Union {
                node: nx,
                entries: vec![Entry {
                    value: Value::Float(0.1 + 0.2), // non-representable sum
                    children: vec![Union {
                        node: ng,
                        entries: vec![Entry {
                            value: Value::tup(vec![Value::Float(1.5), Value::Int(3)]),
                            children: vec![],
                        }],
                    }],
                }],
            }],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_frep(&rep, &c, &mut buf).unwrap();
        let mut c2 = Catalog::new();
        let back = read_frep(buf.as_slice(), &mut c2).unwrap();
        // Bit-exact float round trip.
        assert_eq!(*back.root(0).entry(0).value(), Value::Float(0.1 + 0.2));
    }

    #[test]
    fn round_trip_null_values() {
        use fdb_relational::{Relation, Schema};
        let mut c = Catalog::new();
        let x = c.intern("x");
        let y = c.intern("y");
        let rel = Relation::from_rows(
            Schema::new(vec![x, y]),
            [
                vec![Value::Int(1), Value::Null],
                vec![Value::Int(2), Value::str("b")],
                vec![Value::Null, Value::Int(9)],
            ],
        );
        let rep = FRep::from_relation(&rel, FTree::path(&[x, y])).unwrap();
        let mut buf = Vec::new();
        write_frep(&rep, &c, &mut buf).unwrap();
        let mut c2 = Catalog::new();
        let back = read_frep(buf.as_slice(), &mut c2).unwrap();
        assert!(back.same_data(&rep));
        // NULL sorted last at the root (greatest in the total order).
        let root = back.root(0);
        assert!(root.entry(root.len() - 1).value().is_null());
    }

    #[test]
    fn truncated_stream_is_error() {
        let (c, rep) = sample_rep();
        let mut buf = Vec::new();
        write_frep(&rep, &c, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        let mut c2 = Catalog::new();
        assert!(read_frep(buf.as_slice(), &mut c2).is_err());
    }

    #[test]
    fn bad_magic_is_error() {
        let mut c = Catalog::new();
        assert!(read_frep("nope 0".as_bytes(), &mut c).is_err());
    }

    /// A one-node tree over `a`, then the data section.
    const PREFIX: &str = "fdbv1 1 s1:a t 1 -1 a 1 0 d 0";

    /// One entry whose value nests `depth` one-element tuples.
    fn nested_value(depth: usize) -> String {
        format!("{PREFIX} u 1 {}i7", "t1 ".repeat(depth))
    }

    /// A chain f-tree `depth` nodes deep (every node over `a`), one tuple.
    fn chain_tree(depth: usize) -> String {
        let parents: String = (0..depth - 1).map(|i| format!(" {i} a 1 0")).collect();
        let data = " u 1 i0".repeat(depth);
        format!("fdbv1 1 s1:a t {depth} -1 a 1 0{parents} d 0{data}")
    }

    #[test]
    fn hostile_counts_are_errors_not_panics() {
        let prefix = PREFIX;
        for input in [
            "fdbv1 18446744073709551615".to_string(),
            format!("{prefix} u 18446744073709551615"),
            format!("{prefix} u 1 t18446744073709551615"),
            "fdbv1 1 s18446744073709551615:a".to_string(),
            format!("{prefix} u 1099511627776"),
            // Read by recursion: without a bound, each overflows the
            // stack and aborts the process.
            nested_value(100_000),
            chain_tree(100_000),
            nested_value(MAX_NESTING + 1),
            chain_tree(MAX_NESTING + 1),
        ] {
            let mut c = Catalog::new();
            match read_frep(input.as_bytes(), &mut c) {
                Err(FdbError::Unresolved(m)) => assert!(m.contains("malformed"), "{input}: {m}"),
                other => panic!("{input}: expected a malformed-stream error, got {other:?}"),
            }
        }
        // The prefix itself is sound: one well-formed entry reads back.
        let mut c = Catalog::new();
        let rep = read_frep(format!("{prefix} u 1 i7").as_bytes(), &mut c).unwrap();
        assert_eq!(rep.tuple_count(), 1);
    }

    #[test]
    fn a_view_at_the_nesting_bound_round_trips() {
        // A path f-tree exactly `MAX_NESTING` nodes deep whose leaf value
        // nests `MAX_NESTING` tuples.
        let mut c = Catalog::new();
        let attrs: Vec<AttrId> = (0..MAX_NESTING)
            .map(|i| c.intern(&format!("a{i}")))
            .collect();
        let mut leaf = Value::Int(7);
        for _ in 0..MAX_NESTING {
            leaf = Value::tup(vec![leaf]);
        }
        let mut row: Vec<Value> = (0..MAX_NESTING as i64).map(Value::Int).collect();
        row[MAX_NESTING - 1] = leaf;
        let rel = Relation::from_rows(Schema::new(attrs.clone()), [row]);
        let rep = FRep::from_relation(&rel, FTree::path(&attrs)).unwrap();
        let mut buf = Vec::new();
        write_frep(&rep, &c, &mut buf).unwrap();
        let back = read_frep(buf.as_slice(), &mut c.clone()).unwrap();
        assert!(back.same_data(&rep));
    }
}
