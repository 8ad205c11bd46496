//! Timing and output-format helpers of the `figures` binary.

use std::time::Instant;

/// Wall-clock seconds of one invocation, plus its result.
pub fn time_secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Median wall-clock seconds over `repeats` invocations (the figure
/// binary defaults to 3, like the paper's "time the last repetition"
/// policy but robust to one-off noise). Returns the last result.
pub fn median_secs<R>(repeats: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    assert!(repeats >= 1);
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let (r, t) = time_secs(&mut f);
        times.push(t);
        last = Some(r);
    }
    times.sort_by(f64::total_cmp);
    (last.expect("at least one repeat"), times[times.len() / 2])
}

/// One output row, greppable and gnuplot-friendly.
fn print_row(figure: &str, scale: u32, query: &str, engine: &str, seconds: f64, note: &str) {
    let note = if note.is_empty() {
        String::new()
    } else {
        format!(" {note}")
    };
    println!(
        "figure={figure} scale={scale} query={query} engine=\"{engine}\" seconds={seconds:.6}{note}"
    );
}

/// The common flags: `--scale N`, `--max-scale N` (default 4),
/// `--repeats N` (default 3), `--customers N` (default 100) and
/// `--json PATH`. Every run is serial: the multi-core numbers are the
/// benchmark's (`suite/`, `exec.speedup_tn`).
pub struct Args {
    pub scale: u32,
    pub max_scale: u32,
    pub repeats: usize,
    pub customers: u32,
    /// Optional path for a machine-readable JSON results file.
    pub json: Option<String>,
}

impl Args {
    /// Parses the flags in `argv` (program name already stripped), with
    /// `--scale` defaulting to `default_scale`. Unknown flags and
    /// missing or malformed values are errors.
    pub fn parse_from(argv: &[String], default_scale: u32) -> Result<Args, String> {
        let mut args = Args {
            scale: default_scale,
            max_scale: 4,
            repeats: 3,
            customers: 100,
            json: None,
        };
        let mut i = 0;
        while i < argv.len() {
            let flag = argv[i].as_str();
            let value = argv
                .get(i + 1)
                .ok_or_else(|| format!("missing value for {flag}"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("bad value for {flag}"))
            };
            match flag {
                "--scale" => args.scale = number()? as u32,
                "--max-scale" => args.max_scale = number()? as u32,
                "--repeats" => args.repeats = number()? as usize,
                "--customers" => args.customers = number()? as u32,
                "--json" => args.json = Some(value.clone()),
                other => return Err(format!("unknown flag `{other}`")),
            }
            i += 2;
        }
        Ok(args)
    }

    /// The scale sweep 1, 2, 4, … up to `max_scale`.
    pub fn sweep(&self) -> Vec<u32> {
        let mut out = Vec::new();
        let mut s = 1;
        while s <= self.max_scale {
            out.push(s);
            s *= 2;
        }
        out
    }

    /// An [`Emitter`] honouring this invocation's `--json` flag.
    pub fn emitter(&self) -> Emitter {
        Emitter {
            json_path: self.json.clone(),
            repeats: self.repeats,
            rows: Vec::new(),
        }
    }
}

/// Prints the greppable rows and, when `--json PATH` was given, records
/// them for a machine-readable results file (the perf-trajectory
/// format: `BENCH_s1.json` in the repository root is the recorded
/// baseline).
#[derive(Debug)]
pub struct Emitter {
    json_path: Option<String>,
    repeats: usize,
    rows: Vec<JsonRow>,
}

#[derive(Debug)]
struct JsonRow {
    figure: String,
    scale: u32,
    query: String,
    engine: String,
    seconds: f64,
    note: String,
}

impl Emitter {
    /// An emitter that never writes a file — for tests of the results
    /// format (see [`crate::perf`]).
    pub fn for_tests(repeats: usize) -> Emitter {
        Emitter {
            json_path: None,
            repeats,
            rows: Vec::new(),
        }
    }

    /// Prints one row and records it for the JSON report.
    pub fn row(
        &mut self,
        figure: &str,
        scale: u32,
        query: &str,
        engine: &str,
        seconds: f64,
        note: &str,
    ) {
        print_row(figure, scale, query, engine, seconds, note);
        self.rows.push(JsonRow {
            figure: figure.to_string(),
            scale,
            query: query.to_string(),
            engine: engine.to_string(),
            seconds,
            note: note.to_string(),
        });
    }

    /// Renders the recorded rows as a JSON document. The header's
    /// `threads` is always 1 (every run is serial); it stays so fresh
    /// files have the shape of the committed baselines.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"threads\": 1,");
        let _ = writeln!(out, "  \"repeats\": {},", self.repeats);
        let _ = writeln!(out, "  \"rows\": [");
        for (i, r) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"figure\": \"{}\", \"scale\": {}, \"query\": \"{}\", \
                 \"engine\": \"{}\", \"seconds\": {:.6}, \"note\": \"{}\"}}{comma}",
                json_escape(&r.figure),
                r.scale,
                json_escape(&r.query),
                json_escape(&r.engine),
                r.seconds,
                json_escape(&r.note),
            );
        }
        let _ = writeln!(out, "  ]");
        out.push('}');
        out.push('\n');
        out
    }

    /// Writes the JSON report if `--json PATH` was given; call last.
    pub fn finish(self) {
        if let Some(path) = &self.json_path {
            std::fs::write(path, self.to_json()).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            });
            println!("# json results written to {path}");
        }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_repeats() {
        let mut n = 0;
        let (r, t) = median_secs(3, || {
            n += 1;
            n
        });
        assert_eq!(r, 3);
        assert!(t >= 0.0);
    }

    #[test]
    fn time_secs_returns_result() {
        let (v, t) = time_secs(|| 40 + 2);
        assert_eq!(v, 42);
        assert!(t >= 0.0);
    }

    #[test]
    fn emitter_renders_escaped_json() {
        let mut e = Emitter::for_tests(3);
        e.row("5", 1, "Q1", "FDB f/o", 0.001234, "singletons=\"7\"");
        e.row("5", 1, "Q1", "RDB sort", 0.01, "");
        let json = e.to_json();
        assert!(json.contains("\"threads\": 1"), "{json}");
        assert!(json.contains("\"engine\": \"FDB f/o\""), "{json}");
        assert!(json.contains("singletons=\\\"7\\\""), "{json}");
        assert!(json.contains("\"seconds\": 0.001234"), "{json}");
        // A comma after the first row object, none after the last.
        assert_eq!(json.matches("\"}},").count(), 0);
        assert_eq!(json.matches("\"}\n").count(), 1);
        assert_eq!(json.matches("\"},\n").count(), 1);
    }

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
