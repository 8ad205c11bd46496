//! Perf-regression gating over the `--json` results format.
//!
//! The `figures` binary emits a machine-readable results file (see
//! [`crate::harness::Emitter`]); `BENCH_s{1,2,4}.json` in the repository
//! root are the committed baselines. The CI perf-smoke job re-runs
//! `figures --fig 5 --json` at s=1 and s=4 on the runner and calls
//! [`compare`] (via the `perfgate` binary) to fail the build when an FDB
//! row regresses by more than a generous ratio — the threshold tolerates
//! runner noise and only catches order-of-magnitude slowdowns, which is
//! exactly what a storage-layout regression looks like.
//!
//! The parser below handles precisely the JSON subset the
//! [`crate::harness::Emitter`] writes (an object with scalar fields and
//! one array of flat row objects); it is not a general JSON reader and
//! rejects anything else.

use std::collections::BTreeMap;

/// One timing row of a results file.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfRow {
    pub figure: String,
    pub scale: u64,
    pub query: String,
    pub engine: String,
    pub seconds: f64,
    pub note: String,
}

impl PerfRow {
    /// The identity a row is matched on across files.
    pub fn key(&self) -> String {
        format!(
            "figure={} scale={} query={} engine={}",
            self.figure, self.scale, self.query, self.engine
        )
    }

    /// Extracts an integer `key=value` stat from the row's note (the
    /// figure binaries embed stats such as `bytes=…` and `ibytes=…`).
    pub fn note_stat(&self, key: &str) -> Option<u64> {
        for part in self.note.split_whitespace() {
            if let Some(v) = part.strip_prefix(key) {
                if let Some(v) = v.strip_prefix('=') {
                    return v.parse().ok();
                }
            }
        }
        None
    }
}

/// The quantity one verdict gates on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Wall-clock seconds of the row.
    Seconds,
    /// Peak intermediate arena bytes of the plan run (`ibytes=` note).
    IntermediateBytes,
}

impl Metric {
    pub fn label(&self) -> &'static str {
        match self {
            Metric::Seconds => "seconds",
            Metric::IntermediateBytes => "ibytes",
        }
    }
}

/// One gate comparison outcome.
#[derive(Clone, Debug)]
pub struct Verdict {
    pub key: String,
    pub metric: Metric,
    pub baseline: f64,
    pub current: f64,
    /// `current / max(baseline, floor)`.
    pub ratio: f64,
    pub failed: bool,
}

/// Gate configuration; `perfgate` always runs [`GateConfig::default`].
#[derive(Clone, Copy, Debug)]
pub struct GateConfig {
    /// Fail when `current / max(baseline, floor_secs) > max_ratio`.
    pub max_ratio: f64,
    /// Baselines below this are clamped up before the division, so
    /// sub-millisecond rows do not amplify timer noise into failures.
    pub floor_secs: f64,
    /// Fail when a row's `ibytes=` note grows past
    /// `max_mem_ratio × max(baseline, floor_bytes)` — intermediate
    /// allocation is deterministic, so this is much tighter than the
    /// timing ratio; the slack only absorbs record-layout and
    /// allocator differences across toolchains. Rows whose *baseline*
    /// lacks the stat are skipped (pre-fusion baselines), rows that
    /// *lose* it fail.
    pub max_mem_ratio: f64,
    /// Baselines below this are clamped up before the division —
    /// the analog of `floor_secs` for the memory gate, so rows with
    /// a few hundred bytes of intermediates don't gate on a
    /// tens-of-bytes tolerance.
    pub floor_bytes: u64,
    /// Only rows whose engine starts with this prefix are gated
    /// (the acceptance criterion targets the FDB rows; the relational
    /// baselines are too noisy to gate).
    pub engine_prefix: &'static str,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            max_ratio: 3.0,
            floor_secs: 0.001,
            max_mem_ratio: 1.2,
            floor_bytes: 64 * 1024,
            engine_prefix: "FDB",
        }
    }
}

/// Compares `current` against `baseline` row-by-row, gating wall time
/// for every matched row and intermediate bytes for rows whose
/// baseline note carries `ibytes=`.
///
/// Returns one [`Verdict`] per gated (row, metric) pair. A gated
/// baseline row *missing* from `current` is reported as failed (a
/// silently dropped measurement must not weaken the gate); extra rows
/// in `current` are ignored.
pub fn compare(baseline: &[PerfRow], current: &[PerfRow], cfg: &GateConfig) -> Vec<Verdict> {
    let cur: BTreeMap<String, &PerfRow> = current.iter().map(|r| (r.key(), r)).collect();
    let mut out = Vec::new();
    for b in baseline {
        if !b.engine.starts_with(cfg.engine_prefix) {
            continue;
        }
        let key = b.key();
        match cur.get(&key) {
            None => {
                out.push(Verdict {
                    key,
                    metric: Metric::Seconds,
                    baseline: b.seconds,
                    current: f64::NAN,
                    ratio: f64::INFINITY,
                    failed: true,
                });
            }
            Some(c) => {
                let denom = b.seconds.max(cfg.floor_secs);
                let ratio = c.seconds / denom;
                out.push(Verdict {
                    key: key.clone(),
                    metric: Metric::Seconds,
                    baseline: b.seconds,
                    current: c.seconds,
                    ratio,
                    failed: ratio > cfg.max_ratio,
                });
                if let Some(bb) = b.note_stat("ibytes") {
                    let (cb, ratio, failed) = match c.note_stat("ibytes") {
                        None => (f64::NAN, f64::INFINITY, true),
                        Some(cb) => {
                            let denom = bb.max(cfg.floor_bytes).max(1);
                            let ratio = cb as f64 / denom as f64;
                            (cb as f64, ratio, ratio > cfg.max_mem_ratio)
                        }
                    };
                    out.push(Verdict {
                        key,
                        metric: Metric::IntermediateBytes,
                        baseline: bb as f64,
                        current: cb,
                        ratio,
                        failed,
                    });
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Minimal parser for the Emitter's JSON subset
// ---------------------------------------------------------------------

struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {} of results file",
                c as char, self.i
            ))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.i).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.i += 4;
                        }
                        other => return Err(format!("unsupported escape {other:?}")),
                    }
                    self.i += 1;
                }
                Some(&c) => {
                    // The Emitter writes UTF-8; collect continuation bytes.
                    let start = self.i;
                    self.i += 1;
                    while self.b.get(self.i).is_some_and(|&b| b & 0xC0 == 0x80) {
                        self.i += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.b[start..self.i])
                            .map_err(|_| "non-utf8 string")?,
                    );
                    let _ = c;
                }
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        self.ws();
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

/// Parses a results file produced by [`crate::harness::Emitter::to_json`].
pub fn parse_results(text: &str) -> Result<Vec<PerfRow>, String> {
    let mut c = Cursor {
        b: text.as_bytes(),
        i: 0,
    };
    c.eat(b'{')?;
    let mut rows = Vec::new();
    loop {
        let key = c.string()?;
        c.eat(b':')?;
        if key == "rows" {
            c.eat(b'[')?;
            if c.peek() == Some(b']') {
                c.eat(b']')?;
            } else {
                loop {
                    rows.push(parse_row(&mut c)?);
                    match c.peek() {
                        Some(b',') => c.eat(b',')?,
                        _ => {
                            c.eat(b']')?;
                            break;
                        }
                    }
                }
            }
        } else {
            // Scalar header field (threads, repeats): skip its value.
            c.number()?;
        }
        match c.peek() {
            Some(b',') => c.eat(b',')?,
            _ => {
                c.eat(b'}')?;
                break;
            }
        }
    }
    Ok(rows)
}

fn parse_row(c: &mut Cursor<'_>) -> Result<PerfRow, String> {
    c.eat(b'{')?;
    let mut row = PerfRow {
        figure: String::new(),
        scale: 0,
        query: String::new(),
        engine: String::new(),
        seconds: 0.0,
        note: String::new(),
    };
    loop {
        let key = c.string()?;
        c.eat(b':')?;
        match key.as_str() {
            "figure" => row.figure = c.string()?,
            "scale" => row.scale = c.number()? as u64,
            "query" => row.query = c.string()?,
            "engine" => row.engine = c.string()?,
            "seconds" => row.seconds = c.number()?,
            "note" => row.note = c.string()?,
            other => return Err(format!("unknown row field `{other}`")),
        }
        match c.peek() {
            Some(b',') => c.eat(b',')?,
            _ => {
                c.eat(b'}')?;
                break;
            }
        }
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        let mut e = crate::harness::Emitter::for_tests(3);
        e.row("5", 1, "Q1", "FDB f/o", 0.002, "singletons=10");
        e.row("5", 1, "Q1", "FDB", 0.004, "rows=5 with \"quotes\"");
        e.row("5", 1, "Q1", "RDB sort", 0.100, "");
        e.to_json()
    }

    #[test]
    fn parses_emitter_output() {
        let rows = parse_results(&sample()).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].engine, "FDB f/o");
        assert_eq!(rows[0].seconds, 0.002);
        assert_eq!(rows[1].note, "rows=5 with \"quotes\"");
        assert_eq!(rows[2].engine, "RDB sort");
    }

    #[test]
    fn empty_rows_parse() {
        let rows = parse_results("{\n \"threads\": 1,\n \"rows\": [\n ]\n}\n").unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn malformed_is_rejected() {
        assert!(parse_results("not json").is_err());
        assert!(parse_results("{\"rows\": [{\"bogus\": 1}]}").is_err());
    }

    #[test]
    fn gate_passes_within_ratio() {
        let base = parse_results(&sample()).unwrap();
        let mut cur = base.clone();
        for r in &mut cur {
            r.seconds *= 1.5; // well under 3×
        }
        let verdicts = compare(&base, &cur, &GateConfig::default());
        // RDB rows are not gated.
        assert_eq!(verdicts.len(), 2);
        assert!(verdicts.iter().all(|v| !v.failed));
    }

    #[test]
    fn gate_fails_on_big_regression() {
        let base = parse_results(&sample()).unwrap();
        let mut cur = base.clone();
        cur[1].seconds = 1.0; // FDB row 250× slower
        let verdicts = compare(&base, &cur, &GateConfig::default());
        assert!(verdicts.iter().any(|v| v.failed));
    }

    #[test]
    fn gate_floor_absorbs_micro_noise() {
        // A 0.2 ms baseline that becomes 0.9 ms is noise, not a
        // regression: the 1 ms floor keeps the ratio under threshold.
        let base = vec![PerfRow {
            figure: "5".into(),
            scale: 1,
            query: "Q1".into(),
            engine: "FDB".into(),
            seconds: 0.0002,
            note: String::new(),
        }];
        let mut cur = base.clone();
        cur[0].seconds = 0.0009;
        let verdicts = compare(&base, &cur, &GateConfig::default());
        assert!(!verdicts[0].failed, "{verdicts:?}");
    }

    #[test]
    fn gate_fails_on_missing_row() {
        let base = parse_results(&sample()).unwrap();
        let verdicts = compare(&base, &[], &GateConfig::default());
        assert_eq!(verdicts.len(), 2);
        assert!(verdicts.iter().all(|v| v.failed));
    }

    fn row_with_note(note: &str) -> PerfRow {
        PerfRow {
            figure: "5".into(),
            scale: 1,
            query: "Q1".into(),
            engine: "FDB f/o".into(),
            seconds: 0.002,
            note: note.into(),
        }
    }

    #[test]
    fn note_stats_parse() {
        let r = row_with_note("singletons=27900 bytes=1445152 ibytes=2000000");
        assert_eq!(r.note_stat("bytes"), Some(1445152));
        assert_eq!(r.note_stat("ibytes"), Some(2000000));
        assert_eq!(r.note_stat("rows"), None);
        // `bytes` must not match inside `ibytes`.
        let r = row_with_note("ibytes=7");
        assert_eq!(r.note_stat("bytes"), None);
    }

    #[test]
    fn memory_gate_fails_on_intermediate_growth() {
        let base = vec![row_with_note("ibytes=1000000")];
        let mut cur = base.clone();
        cur[0].note = "ibytes=1100000".into(); // within 1.2×
        let ok = compare(&base, &cur, &GateConfig::default());
        assert_eq!(ok.len(), 2); // seconds + ibytes
        assert!(ok.iter().all(|v| !v.failed), "{ok:?}");
        cur[0].note = "ibytes=1300000".into(); // past 1.2×
        let bad = compare(&base, &cur, &GateConfig::default());
        let mem = bad
            .iter()
            .find(|v| v.metric == Metric::IntermediateBytes)
            .unwrap();
        assert!(mem.failed, "{bad:?}");
    }

    #[test]
    fn memory_gate_floor_absorbs_tiny_baselines() {
        // A 368-byte baseline growing by a few hundred bytes is record
        // noise, not a regression: the 64 KiB floor keeps the ratio
        // harmless, exactly like `floor_secs` does for timings.
        let base = vec![row_with_note("ibytes=368")];
        let mut cur = base.clone();
        cur[0].note = "ibytes=900".into();
        let verdicts = compare(&base, &cur, &GateConfig::default());
        let mem = verdicts
            .iter()
            .find(|v| v.metric == Metric::IntermediateBytes)
            .unwrap();
        assert!(!mem.failed, "{verdicts:?}");
    }

    #[test]
    fn memory_gate_skips_pre_fusion_baselines_but_not_dropped_stats() {
        // Baseline without the stat: nothing to gate on.
        let base = vec![row_with_note("bytes=5")];
        let cur = vec![row_with_note("bytes=5 ibytes=9")];
        let verdicts = compare(&base, &cur, &GateConfig::default());
        assert_eq!(verdicts.len(), 1);
        // Baseline with the stat, current silently dropping it: fail.
        let base = vec![row_with_note("ibytes=9")];
        let cur = vec![row_with_note("bytes=5")];
        let verdicts = compare(&base, &cur, &GateConfig::default());
        let mem = verdicts
            .iter()
            .find(|v| v.metric == Metric::IntermediateBytes)
            .unwrap();
        assert!(mem.failed);
    }
}
