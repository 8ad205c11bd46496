//! Response checking: every response of every run is reduced to a
//! [`Fingerprint`] and compared with what a correct engine returns —
//! the golden file made by the relational oracle (default seed), the
//! first response seen for the same statement (other seeds), or lines
//! the harness computed itself.

use crate::data::Workload;
use crate::json::{self, Json};
use crate::ops::{Expect, Stmt};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Row count plus two hashes of a response's payload lines: one that
/// ignores row order (what an unordered query promises) and one that
/// pins it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Payload lines after the header.
    pub rows: u64,
    /// Header hash plus the wrapping sum of the row hashes.
    pub set_hash: u64,
    /// Hash of the lines in sequence.
    pub seq_hash: u64,
}

const K: u64 = 0x9E37_79B9_7F4A_7C15;

fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(K)
}

/// Hash of one line, eight bytes at a time — responses run to
/// megabytes and are hashed inside the measured window.
pub fn line_hash(line: &str) -> u64 {
    let bytes = line.as_bytes();
    let mut h = mix(0xFDB, bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = mix(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let mut tail = [0u8; 8];
    let rest = chunks.remainder();
    tail[..rest.len()].copy_from_slice(rest);
    h = mix(h, u64::from_le_bytes(tail));
    h ^ (h >> 32)
}

pub fn fingerprint(lines: &[String]) -> Fingerprint {
    let mut set_hash = 0u64;
    let mut seq_hash = 0u64;
    for (i, line) in lines.iter().enumerate() {
        let h = line_hash(line);
        // The header stays position-bound even in the order-free hash.
        set_hash = set_hash.wrapping_add(if i == 0 { h.rotate_left(17) } else { h });
        seq_hash = mix(seq_hash, h);
    }
    Fingerprint {
        rows: lines.len().saturating_sub(1) as u64,
        set_hash,
        seq_hash,
    }
}

/// True when `got` is what the statement promises given the oracle's
/// `want`: same rows as a multiset, and in the same order if the
/// statement's `ORDER BY` fixes one.
fn matches(want: &Fingerprint, got: &Fingerprint, ordered: bool) -> bool {
    want.rows == got.rows
        && want.set_hash == got.set_hash
        && (!ordered || want.seq_hash == got.seq_hash)
}

/// The payload lines a write responds with — the server's format, which
/// the library path mirrors so one check serves both.
pub fn write_lines(inserted: usize, deleted: usize) -> Vec<String> {
    vec![
        format!("inserted\t{inserted}"),
        format!("deleted\t{deleted}"),
    ]
}

/// Golden fingerprints of one workload at one scale, by SQL text.
pub type GoldenMap = HashMap<String, Fingerprint>;

/// `golden/seed-<seed>.json` beside the package manifest.
pub fn golden_path(seed: u64) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("seed-{seed}.json"))
}

fn hex(h: u64) -> Json {
    Json::str(format!("{h:016x}"))
}

fn unhex(v: Option<&Json>) -> Option<u64> {
    u64::from_str_radix(v?.as_str()?, 16).ok()
}

/// The golden entries of one workload: the scale they were made at and
/// `(sql, fingerprint)` per distinct statement.
pub struct GoldenSet {
    pub workload: Workload,
    pub scale: u32,
    pub entries: Vec<(String, Fingerprint)>,
}

/// Serialises the golden entries of all workloads.
pub fn golden_to_json(seed: u64, sets: &[GoldenSet]) -> Json {
    Json::obj([
        ("seed", Json::Int(seed as i64)),
        (
            "made_by",
            Json::str(
                "suite --regen-golden: RdbEngine over Orders, Packages, Items \
                 (FROM R1 rewritten to the three-way join)",
            ),
        ),
        (
            "workloads",
            Json::obj(sets.iter().map(|set| {
                (
                    set.workload.name(),
                    Json::obj([
                        ("scale", Json::Int(i64::from(set.scale))),
                        (
                            "statements",
                            Json::Arr(
                                set.entries
                                    .iter()
                                    .map(|(sql, f)| {
                                        Json::obj([
                                            ("sql", Json::str(sql.clone())),
                                            ("rows", Json::Int(f.rows as i64)),
                                            ("set", hex(f.set_hash)),
                                            ("seq", hex(f.seq_hash)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                )
            })),
        ),
    ])
}

/// The golden map for `workload` at `scale`, or `None` when the file
/// is absent, was made for another scale, or does not parse (a run
/// then falls back to first-response fingerprints and says so).
pub fn load_golden(seed: u64, workload: Workload, scale: u32) -> Option<GoldenMap> {
    let text = std::fs::read_to_string(golden_path(seed)).ok()?;
    golden_from_json(&json::parse(&text).ok()?, workload, scale)
}

fn golden_from_json(doc: &Json, workload: Workload, scale: u32) -> Option<GoldenMap> {
    let set = doc.get("workloads")?.get(workload.name())?;
    if set.get("scale")?.as_u64()? != u64::from(scale) {
        return None;
    }
    set.get("statements")?
        .as_arr()?
        .iter()
        .map(|e| {
            Some((
                e.get("sql")?.as_str()?.to_string(),
                Fingerprint {
                    rows: e.get("rows")?.as_u64()?,
                    set_hash: unhex(e.get("set"))?,
                    seq_hash: unhex(e.get("seq"))?,
                },
            ))
        })
        .collect()
}

/// Checks responses for one client (thread). Golden entries are shared;
/// first-response fingerprints are the checker's own and can be merged
/// across clients afterwards ([`Checker::merge_disagreements`]).
pub struct Checker {
    golden: Option<Arc<GoldenMap>>,
    seen: HashMap<String, Fingerprint>,
}

impl Checker {
    pub fn new(golden: Option<Arc<GoldenMap>>) -> Checker {
        Checker {
            golden,
            seen: HashMap::new(),
        }
    }

    /// True iff `response` (payload lines, or the engine's error) is
    /// correct for `stmt`, whose library SQL text is `sql`.
    pub fn check(
        &mut self,
        stmt: &Stmt,
        sql: &str,
        response: &Result<Vec<String>, String>,
    ) -> bool {
        let Ok(lines) = response else {
            return false;
        };
        match &stmt.expect {
            Expect::Lines(want) => lines == want,
            Expect::Write { inserted, deleted } => *lines == write_lines(*inserted, *deleted),
            Expect::Stable => {
                let got = fingerprint(lines);
                if let Some(golden) = &self.golden {
                    // A statement the golden file lacks is a failure:
                    // the generator changed and the file must be
                    // regenerated, not silently bypassed.
                    return golden
                        .get(sql)
                        .is_some_and(|want| matches(want, &got, stmt.ordered));
                }
                match self.seen.get(sql) {
                    // Same engine, same snapshot, same text: the
                    // response must repeat exactly, order included.
                    Some(first) => *first == got,
                    None => {
                        self.seen.insert(sql.to_string(), got);
                        true
                    }
                }
            }
        }
    }

    /// Statements on which two clients' first responses differ.
    pub fn merge_disagreements(checkers: &[Checker]) -> usize {
        let mut first: HashMap<&str, &Fingerprint> = HashMap::new();
        let mut bad = 0;
        for c in checkers {
            for (sql, f) in &c.seen {
                if **first.entry(sql.as_str()).or_insert(f) != *f {
                    bad += 1;
                }
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Verb;

    fn lines(rows: &[&str]) -> Vec<String> {
        rows.iter().map(|s| s.to_string()).collect()
    }

    fn stable(ordered: bool) -> Stmt {
        Stmt {
            verb: Verb::Query,
            base: "SELECT x FROM T".into(),
            limit: None,
            offset: 0,
            ordered,
            expect: Expect::Stable,
        }
    }

    #[test]
    fn set_hash_ignores_row_order_and_seq_hash_does_not() {
        let a = fingerprint(&lines(&["h", "1\t2", "3\t4", "5\t6"]));
        let b = fingerprint(&lines(&["h", "5\t6", "1\t2", "3\t4"]));
        assert_eq!((a.rows, a.set_hash), (b.rows, b.set_hash));
        assert_ne!(a.seq_hash, b.seq_hash);
        assert!(matches(&a, &b, false) && !matches(&a, &b, true));
        // A changed value, a changed header, a dropped row: all differ.
        for other in [
            lines(&["h", "1\t2", "3\t4", "5\t7"]),
            lines(&["g", "1\t2", "3\t4", "5\t6"]),
            lines(&["h", "1\t2", "3\t4"]),
            lines(&["1\t2", "h", "3\t4", "5\t6"]),
        ] {
            assert!(!matches(&a, &fingerprint(&other), false));
        }
        assert_ne!(line_hash("12345678"), line_hash("12345678\0"));
        assert_ne!(line_hash("ab"), line_hash("ba"));
    }

    #[test]
    fn first_response_becomes_the_reference_for_other_seeds() {
        let mut c = Checker::new(None);
        let st = stable(false);
        assert!(c.check(&st, "q", &Ok(lines(&["h", "1", "2"]))));
        assert!(c.check(&st, "q", &Ok(lines(&["h", "1", "2"]))));
        assert!(!c.check(&st, "q", &Ok(lines(&["h", "2", "1"]))));
        assert!(!c.check(&st, "q", &Err("deadline exceeded".into())));
        let mut d = Checker::new(None);
        assert!(d.check(&st, "q", &Ok(lines(&["h", "1", "3"]))));
        assert_eq!(Checker::merge_disagreements(&[c, d]), 1);
    }

    #[test]
    fn golden_round_trips_and_gates_by_scale_and_order() {
        let want = fingerprint(&lines(&["h", "1", "2"]));
        let doc = golden_to_json(
            7,
            &[GoldenSet {
                workload: Workload::AggFo,
                scale: 4,
                entries: vec![("it's \"q\"".into(), want)],
            }],
        );
        let doc = json::parse(&doc.render()).unwrap();
        assert_eq!(golden_from_json(&doc, Workload::AggFo, 1), None);
        assert_eq!(golden_from_json(&doc, Workload::AggFlat, 4), None);
        let map = golden_from_json(&doc, Workload::AggFo, 4).unwrap();
        assert_eq!(map["it's \"q\""], want);

        let mut c = Checker::new(Some(Arc::new(map)));
        let reordered = Ok(lines(&["h", "2", "1"]));
        assert!(c.check(&stable(false), "it's \"q\"", &reordered));
        assert!(!c.check(&stable(true), "it's \"q\"", &reordered));
        assert!(!c.check(&stable(false), "not in the file", &reordered));
    }

    #[test]
    fn exact_lines_and_write_counts() {
        let mut c = Checker::new(None);
        let read = Stmt {
            expect: Expect::Lines(lines(&["customer\tspent", "3\t9"])),
            ..stable(true)
        };
        assert!(c.check(&read, "q", &Ok(lines(&["customer\tspent", "3\t9"]))));
        assert!(!c.check(&read, "q", &Ok(lines(&["customer\tspent"]))));
        let write = Stmt {
            verb: Verb::Insert,
            expect: Expect::Write {
                inserted: 4,
                deleted: 0,
            },
            ..stable(false)
        };
        assert!(c.check(&write, "w", &Ok(write_lines(4, 0))));
        assert!(!c.check(&write, "w", &Ok(write_lines(3, 0))));
    }
}
