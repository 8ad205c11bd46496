//! The wire protocol: newline-framed requests, `OK`/`ERR` framed
//! responses, tab-separated escaped payload lines.
//!
//! ## Grammar
//!
//! Requests are single lines (LF- or CRLF-terminated):
//!
//! ```text
//! request  := verb [SP argument] LF
//! verb     := "QUERY" | "ROW" | "EXPLAIN" | "INSERT" | "DELETE"
//!           | "LOAD" | "STATS" | "PING" | "QUIT"
//! QUERY    <sql>          run sql, respond with header + rows
//! ROW      <i> <sql>      point lookup: the i-th row (0-based) of sql's
//!                         result — answered via the count-annotation
//!                         seek, O(depth·log fanout), not a scan; <sql>
//!                         must not itself carry LIMIT/OFFSET
//! EXPLAIN  <sql>          plan sql, respond with the explain rendering
//! INSERT   INTO r [(cols)] VALUES (…), …   delta-insert into a
//!                         registered input; responds inserted/deleted
//!                         counts and bumps the epoch (purging the cache)
//! DELETE   FROM r [WHERE a = c AND …]      delta-delete, same framing
//! LOAD     <name> <path>  load an fdbv1 view file, register as <name>
//! STATS                   server counters and registered inputs
//! PING                    liveness check
//! QUIT                    close this connection
//! ```
//!
//! `INSERT`/`DELETE` lines are complete SQL statements — the verb *is*
//! the first SQL keyword — applied through the database's write path:
//! copy-on-write snapshot swap plus epoch bump, so sessions and cached
//! responses cut before the write keep serving the old state while
//! every later request sees the new one.
//!
//! Responses are a status line followed by `n` payload lines:
//!
//! ```text
//! response := "OK" SP n LF payload{n}  |  "ERR" SP message LF
//! ```
//!
//! Payload lines never contain raw LF/CR/TAB: fields are joined with
//! TAB and the characters `\`, TAB, LF, CR are escaped as `\\`, `\t`,
//! `\n`, `\r` (see [`escape_field`]). A `QUERY` payload is one header
//! line of column names followed by one line per row; `EXPLAIN` and
//! `STATS` payloads are escaped text lines.

use std::fmt::Write as _;

/// A parsed client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// `QUERY <sql>` — run and enumerate.
    Query(String),
    /// `ROW <i> <sql>` — the `i`-th result row via the direct-access
    /// seek.
    Row {
        /// 0-based row index into `sql`'s result order.
        index: u64,
        /// The query text, without LIMIT/OFFSET.
        sql: String,
    },
    /// `EXPLAIN <sql>` — plan and report, no enumeration payload.
    Explain(String),
    /// `INSERT INTO … VALUES …` — the full SQL statement.
    Insert(String),
    /// `DELETE FROM … [WHERE …]` — the full SQL statement.
    Delete(String),
    /// `LOAD <name> <path>` — read an `fdbv1` view file, register it.
    Load {
        /// Registration name of the view.
        name: String,
        /// Filesystem path of the serialised view.
        path: String,
    },
    /// `STATS` — server counters and registered inputs.
    Stats,
    /// `PING` — liveness check.
    Ping,
    /// `QUIT` — close the connection.
    Quit,
}

/// Parses one request line (without its terminator).
///
/// Verbs are case-insensitive; arguments keep their case. Returns a
/// human-readable error for unknown verbs or malformed arguments —
/// servers relay it verbatim in an `ERR` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    match verb.to_ascii_uppercase().as_str() {
        "QUERY" => {
            if rest.is_empty() {
                return Err("QUERY requires an SQL argument".into());
            }
            Ok(Request::Query(rest.to_string()))
        }
        "ROW" => {
            let Some((index, sql)) = rest.split_once(char::is_whitespace) else {
                return Err("ROW requires <index> <sql>".into());
            };
            let Ok(index) = index.trim().parse::<u64>() else {
                return Err(format!(
                    "ROW index `{}` is not a non-negative integer",
                    index.trim()
                ));
            };
            let sql = sql.trim();
            if sql.is_empty() {
                return Err("ROW requires <index> <sql>".into());
            }
            Ok(Request::Row {
                index,
                sql: sql.to_string(),
            })
        }
        "EXPLAIN" => {
            if rest.is_empty() {
                return Err("EXPLAIN requires an SQL argument".into());
            }
            Ok(Request::Explain(rest.to_string()))
        }
        "INSERT" => {
            if rest.is_empty() {
                return Err("INSERT requires the rest of the SQL statement".into());
            }
            // The verb is the statement's first keyword; hand the whole
            // line to the SQL front-end.
            Ok(Request::Insert(line.to_string()))
        }
        "DELETE" => {
            if rest.is_empty() {
                return Err("DELETE requires the rest of the SQL statement".into());
            }
            Ok(Request::Delete(line.to_string()))
        }
        "LOAD" => {
            let Some((name, path)) = rest.split_once(char::is_whitespace) else {
                return Err("LOAD requires <name> <path>".into());
            };
            let (name, path) = (name.trim(), path.trim());
            if name.is_empty() || path.is_empty() {
                return Err("LOAD requires <name> <path>".into());
            }
            Ok(Request::Load {
                name: name.to_string(),
                path: path.to_string(),
            })
        }
        "STATS" => Ok(Request::Stats),
        "PING" => Ok(Request::Ping),
        "QUIT" => Ok(Request::Quit),
        "" => Err("empty request".into()),
        other => Err(format!(
            "unknown verb `{other}` (expected QUERY, ROW, EXPLAIN, INSERT, DELETE, LOAD, STATS, \
             PING or QUIT)"
        )),
    }
}

/// Normalises SQL text for plan-cache keying: trims, collapses every
/// whitespace run *outside string literals* to a single space, and drops
/// one trailing `;`.
///
/// Whitespace inside single-quoted literals is payload, not layout:
/// collapsing it would key `SELECT 'a  b'` and `SELECT 'a b'` to the
/// same cache entry and serve one query's cached plan (and its constant)
/// for the other. `''` is the quote escape, which this scan handles for
/// free: it closes and immediately reopens a literal, and neither state
/// collapses the characters in between.
///
/// Case is preserved — identifiers are case-sensitive, so lowering case
/// would alias distinct queries.
pub fn normalise_sql(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut in_str = false;
    let mut pending_space = false;
    for c in sql.chars() {
        if !in_str && c.is_whitespace() {
            pending_space = !out.is_empty();
            continue;
        }
        if pending_space {
            out.push(' ');
            pending_space = false;
        }
        if c == '\'' {
            in_str = !in_str;
        }
        out.push(c);
    }
    // A trailing `;` is framing, not content — but only outside a
    // literal (an unterminated string keeps its bytes verbatim).
    if !in_str {
        if let Some(stripped) = out.strip_suffix(';') {
            let len = stripped.trim_end().len();
            out.truncate(len);
        }
    }
    out
}

/// Escapes one payload field: `\` → `\\`, TAB → `\t`, LF → `\n`,
/// CR → `\r`. The framing characters never appear raw in a payload.
pub fn escape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends `s` to `out`, escaped as by [`escape_field`]. A byte scan
/// finds the (rare) characters to escape — all ASCII, so every cut is a
/// char boundary — and everything between them is copied as one slice.
fn escape_into(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(i) = rest
        .bytes()
        .position(|b| matches!(b, b'\\' | b'\t' | b'\n' | b'\r'))
    {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'\\' => "\\\\",
            b'\t' => "\\t",
            b'\n' => "\\n",
            _ => "\\r",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Inverse of [`escape_field`]; unknown escapes error.
pub fn unescape_field(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => return Err(format!("unknown escape `\\{other}`")),
            None => return Err("dangling backslash".into()),
        }
    }
    Ok(out)
}

/// Joins already-escaped fields with TAB into one payload line.
pub fn join_fields<I, S>(fields: I) -> String
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut out = String::new();
    for (i, f) in fields.into_iter().enumerate() {
        if i > 0 {
            out.push('\t');
        }
        out.push_str(f.as_ref());
    }
    out
}

/// Splits a payload line on TAB and unescapes each field.
pub fn split_fields(line: &str) -> Result<Vec<String>, String> {
    line.split('\t').map(unescape_field).collect()
}

/// Renders a [`QueryOutcome`](fdb::QueryOutcome) as payload lines: one
/// header line of column names, then one line per row. Fields are
/// escaped and TAB-joined; values print as their canonical `Display`.
///
/// The row loop goes through no formatter for the common values: each
/// line is one `String` sized from the widest line so far, integers are
/// written by a digit loop, strings are escaped straight from their
/// payload, and the remaining variants (floats, composites, `NULL`)
/// print into one scratch buffer reused across the whole response.
pub fn render_outcome(out: &fdb::QueryOutcome) -> Vec<String> {
    let mut lines = Vec::with_capacity(1 + out.rows.len());
    lines.push(join_fields(out.columns.iter().map(|c| escape_field(c))));
    let mut scratch = String::new();
    let mut widest = 0;
    for row in out.rows.rows() {
        let mut line = String::with_capacity(widest);
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                line.push('\t');
            }
            match v {
                fdb::Value::Int(i) => push_int(&mut line, *i),
                fdb::Value::Str(s) => escape_into(&mut line, s),
                other => {
                    scratch.clear();
                    let _ = write!(scratch, "{other}");
                    escape_into(&mut line, &scratch);
                }
            }
        }
        widest = widest.max(line.len());
        lines.push(line);
    }
    lines
}

/// Appends the decimal form of `i` (what `Display` prints).
fn push_int(out: &mut String, i: i64) {
    // 19 digits of |i64::MIN| and a sign.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut n = i.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if i < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Splits free text (EXPLAIN output, error context) into escaped
/// payload lines, one per source line.
pub fn render_text(text: &str) -> Vec<String> {
    text.lines().map(escape_field).collect()
}

/// Formats the status line of a successful response carrying `n`
/// payload lines.
pub fn ok_header(n: usize) -> String {
    format!("OK {n}")
}

/// Formats an error response line. The message is escaped so the
/// response stays one line regardless of the error text.
pub fn err_line(msg: &str) -> String {
    format!("ERR {}", escape_field(msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_parse_case_insensitively() {
        assert_eq!(
            parse_request("query SELECT 1").unwrap(),
            Request::Query("SELECT 1".into())
        );
        assert_eq!(
            parse_request("EXPLAIN  SELECT x FROM T "),
            Ok(Request::Explain("SELECT x FROM T".into()))
        );
        assert_eq!(
            parse_request("LOAD V /tmp/v.fdb"),
            Ok(Request::Load {
                name: "V".into(),
                path: "/tmp/v.fdb".into()
            })
        );
        assert_eq!(parse_request("stats"), Ok(Request::Stats));
        assert_eq!(parse_request("PING"), Ok(Request::Ping));
        assert_eq!(parse_request("quit"), Ok(Request::Quit));
    }

    #[test]
    fn malformed_requests_error() {
        assert!(parse_request("").is_err());
        assert!(parse_request("QUERY").is_err());
        assert!(parse_request("LOAD onlyname").is_err());
        assert!(parse_request("FLY me to the moon").is_err());
    }

    #[test]
    fn normalisation_collapses_whitespace_and_semicolon() {
        assert_eq!(
            normalise_sql("  SELECT   x\n FROM\tT ; "),
            "SELECT x FROM T"
        );
        assert_eq!(
            normalise_sql("SELECT 1"),
            normalise_sql("select 1").to_uppercase()
        );
        // Case is preserved: distinct identifiers stay distinct.
        assert_ne!(
            normalise_sql("SELECT x FROM T"),
            normalise_sql("SELECT X FROM T")
        );
    }

    #[test]
    fn normalisation_preserves_whitespace_inside_string_literals() {
        // Regression: collapsing whitespace inside literals keyed
        // `'a  b'` and `'a b'` identically, poisoning the plan cache.
        assert_ne!(
            normalise_sql("SELECT x FROM T WHERE x = 'a  b'"),
            normalise_sql("SELECT x FROM T WHERE x = 'a b'")
        );
        assert_eq!(
            normalise_sql("SELECT  x\nFROM T  WHERE x = 'a \t b' ;"),
            "SELECT x FROM T WHERE x = 'a \t b'"
        );
        // Tabs/newlines inside a literal survive verbatim.
        assert_eq!(normalise_sql("QUERY' \n\t '"), "QUERY' \n\t '");
        // `''` escapes toggle in and out: the run between stays literal.
        assert_eq!(
            normalise_sql("SELECT 'it''s  fine'   ;"),
            "SELECT 'it''s  fine'"
        );
        // Semicolons inside (or after an unterminated) literal are kept.
        assert_eq!(normalise_sql("SELECT ';'"), "SELECT ';'");
        assert_eq!(normalise_sql("SELECT 'open;"), "SELECT 'open;");
    }

    #[test]
    fn escape_roundtrips() {
        for s in [
            "plain",
            "tab\there",
            "nl\nhere",
            "cr\rhere",
            "back\\slash",
            "",
        ] {
            assert_eq!(unescape_field(&escape_field(s)).unwrap(), s);
        }
        assert!(unescape_field("bad\\q").is_err());
        assert!(unescape_field("dangling\\").is_err());
    }

    /// The rendering formula `render_outcome` replaced, kept as the
    /// reference: `Display` per value, a char-by-char escape, TAB-join.
    fn render_reference(out: &fdb::QueryOutcome) -> Vec<String> {
        fn escape(s: &str) -> String {
            let mut out = String::new();
            for c in s.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '\t' => out.push_str("\\t"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    c => out.push(c),
                }
            }
            out
        }
        let header = out.columns.iter().map(|c| escape(c));
        let rows = out.rows.rows().map(|row| {
            let fields: Vec<String> = row.iter().map(|v| escape(&v.to_string())).collect();
            fields.join("\t")
        });
        std::iter::once(header.collect::<Vec<_>>().join("\t"))
            .chain(rows)
            .collect()
    }

    fn outcome(columns: &[&str], rows: Vec<Vec<fdb::Value>>) -> fdb::QueryOutcome {
        let attrs = (0..columns.len() as u32).map(fdb::relational::AttrId);
        let schema = fdb::Schema::new(attrs.collect());
        fdb::QueryOutcome {
            rows: fdb::Relation::from_rows(schema, rows),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            explain: String::new(),
            strategy: Default::default(),
            exec: Default::default(),
            order: Default::default(),
        }
    }

    #[test]
    fn render_matches_the_display_escape_join_formula() {
        use fdb::Value;
        let tricky = [
            "",
            "plain",
            "tab\there",
            "nl\nhere",
            "cr\rhere",
            "back\\slash",
            "\\\t\n\r",
            "trailing\\",
            "żółć\tnaïve\n日本語\\🦀",
        ];
        let mut values = vec![
            Value::Int(0),
            Value::Int(-1),
            Value::Int(7),
            Value::Int(10),
            Value::Int(-1234567890123),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(1.5),
            Value::Float(-2.25e-7),
            Value::Float(1e300),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Null,
            Value::tup(vec![]),
            Value::tup(vec![Value::Int(3), Value::str("a\tb"), Value::Null]),
            Value::tup(vec![
                Value::tup(vec![Value::Float(0.5), Value::str("in\\ner\n")]),
                Value::Int(i64::MIN),
            ]),
        ];
        values.extend(tricky.iter().map(Value::str));
        // One value per row, then rows mixing every pair of neighbours so
        // separators and the per-line size hint see uneven widths.
        let single = outcome(&["v"], values.iter().map(|v| vec![v.clone()]).collect());
        assert_eq!(render_outcome(&single), render_reference(&single));
        let pairs: Vec<Vec<Value>> = values
            .windows(2)
            .map(|w| vec![w[0].clone(), w[1].clone(), w[0].clone()])
            .collect();
        let wide = outcome(&["a\tb", "back\\slash", "ok"], pairs);
        let lines = render_outcome(&wide);
        assert_eq!(lines, render_reference(&wide));
        assert!(lines.iter().all(|l| !l.contains('\n') && !l.contains('\r')));
        assert_eq!(lines[1].matches('\t').count(), 2, "{:?}", lines[1]);
        // The zero-row result is its header; the nullary relation has an
        // empty header and one empty line per (the one possible) tuple.
        let none = outcome(&["x", "y"], Vec::new());
        assert_eq!(render_outcome(&none), vec!["x\ty".to_string()]);
        assert_eq!(render_outcome(&none), render_reference(&none));
        for rows in [vec![], vec![vec![]]] {
            let nullary = outcome(&[], rows.clone());
            assert_eq!(render_outcome(&nullary).len(), 1 + rows.len());
            assert_eq!(render_outcome(&nullary), render_reference(&nullary));
        }
    }

    #[test]
    fn escape_field_matches_on_every_escaped_byte_position() {
        for s in [
            "\\",
            "\t",
            "\n",
            "\r",
            "a\\",
            "\\a",
            "a\tb\nc\rd\\e",
            "é\té",
            "🦀\\",
        ] {
            let escaped = escape_field(s);
            assert!(!escaped.contains(['\t', '\n', '\r']), "{escaped:?}");
            assert_eq!(unescape_field(&escaped).unwrap(), s);
        }
        assert_eq!(escape_field("a\tb\\"), "a\\tb\\\\");
    }

    #[test]
    fn fields_roundtrip_through_a_line() {
        let fields = ["a", "with\ttab", "with\nnewline", "with\\backslash"];
        let line = join_fields(fields.iter().map(|f| escape_field(f)));
        assert!(!line.contains('\n'));
        let back = split_fields(&line).unwrap();
        assert_eq!(back, fields);
    }
}
