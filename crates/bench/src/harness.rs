//! Timing, flags and row format of the `figures` binary, and the check
//! of a figure's claims against the rows of its run.

use std::fmt;
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
    median_of((0..repeats).map(|_| time_secs(&mut f)).collect())
}

/// The last result and the median seconds of timed runs (`time_secs`
/// results), for a caller that does untimed work between them.
pub fn median_of<R>(runs: Vec<(R, f64)>) -> (R, f64) {
    let mut times: Vec<f64> = runs.iter().map(|&(_, t)| t).collect();
    times.sort_by(f64::total_cmp);
    let median = times[times.len() / 2];
    (runs.into_iter().last().expect("at least one run").0, median)
}

/// The flags: `--fig N` (4–8, required), `--scale N` (default 4; 2 for
/// figure 6), `--max-scale N` (figure 4's sweep, default 4), `--repeats
/// N` (default 3) and `--customers N` (default 100). Every value is at
/// least 1, and figure 4's `--max-scale` at least 2: an empty run, or a
/// sweep of one scale, would make the figure's claims vacuous. Every run
/// is serial: the multi-core numbers are the benchmark's (`suite/`,
/// `exec.speedup_tn`).
#[derive(Debug)]
pub struct Args {
    pub fig: u32,
    pub scale: u32,
    pub max_scale: u32,
    pub repeats: usize,
    pub customers: u32,
}

impl Args {
    /// Parses the flags in `argv` (program name already stripped).
    /// Unknown flags and missing, malformed or zero values are errors.
    pub fn parse_from(argv: &[String]) -> Result<Args, String> {
        let (mut fig, mut scale, mut max_scale, mut repeats, mut customers) =
            (None, None, None, None, None);
        for pair in argv.chunks(2) {
            let flag = pair[0].as_str();
            let slot = match flag {
                "--fig" => &mut fig,
                "--scale" => &mut scale,
                "--max-scale" => &mut max_scale,
                "--repeats" => &mut repeats,
                "--customers" => &mut customers,
                other => return Err(format!("unknown flag `{other}`")),
            };
            let value = pair
                .get(1)
                .ok_or_else(|| format!("missing value for {flag}"))?;
            let n = value.parse::<u32>().ok().filter(|&n| n >= 1);
            *slot = Some(n.ok_or_else(|| format!("{flag} takes a number of at least 1"))?);
        }
        let fig = fig.ok_or("missing --fig")?;
        if !(4..=8).contains(&fig) {
            return Err(format!("unknown figure `{fig}`"));
        }
        let max_scale = max_scale.unwrap_or(4);
        if fig == 4 && max_scale < 2 {
            return Err("figure 4 checks that the gap widens with scale: \
                        --max-scale must be at least 2"
                .into());
        }
        Ok(Args {
            fig,
            scale: scale.unwrap_or(if fig == 6 { 2 } else { 4 }),
            max_scale,
            repeats: repeats.unwrap_or(3) as usize,
            customers: customers.unwrap_or(100),
        })
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
}

/// One timed row of a figure.
#[derive(Debug)]
pub struct Row {
    pub scale: u32,
    pub query: String,
    pub engine: String,
    pub seconds: f64,
}

/// Prints a figure's rows, greppable and gnuplot-friendly
/// (`figure=<n> scale=<s> query=<q> engine="<e>" seconds=<t> [note]`),
/// and keeps them for the figure's claims.
#[derive(Debug)]
pub struct Emitter {
    figure: u32,
    pub rows: Vec<Row>,
}

impl Emitter {
    pub fn new(figure: u32) -> Emitter {
        Emitter {
            figure,
            rows: Vec::new(),
        }
    }

    /// Prints one row and keeps it.
    pub fn row(&mut self, scale: u32, query: &str, engine: &str, seconds: f64, note: &str) {
        let sep = if note.is_empty() { "" } else { " " };
        println!(
            "figure={} scale={scale} query={query} engine=\"{engine}\" seconds={seconds:.6}{sep}{note}",
            self.figure
        );
        self.rows.push(Row {
            scale,
            query: query.to_string(),
            engine: engine.to_string(),
            seconds,
        });
    }
}

/// The row a claim names: `query`'s `engine` row at `scale`.
#[derive(Clone, Copy, Debug)]
pub struct Key {
    scale: u32,
    query: &'static str,
    engine: &'static str,
}

/// One headline claim of a figure, as a ratio of rows timed in the same
/// run: the product of the `slower` rows' seconds over the product of
/// the `faster` rows' must reach `bound`.
#[derive(Debug)]
pub struct Claim {
    name: String,
    slower: Vec<Key>,
    faster: Vec<Key>,
    bound: f64,
}

/// An engine label as a name part: `FDB f/o` → `fdb_fo`.
fn slug(engine: &str) -> String {
    engine.to_lowercase().replace('/', "").replace(' ', "_")
}

impl Claim {
    /// `slower ÷ faster` on `query` at `scale` reaches `bound`; named
    /// `<query>@s<scale>:<slower>/<faster>`.
    pub fn beats(
        scale: u32,
        query: &'static str,
        slower: &'static str,
        faster: &'static str,
        bound: f64,
    ) -> Claim {
        let key = |engine| Key {
            scale,
            query,
            engine,
        };
        Claim {
            name: format!("{query}@s{scale}:{}/{}", slug(slower), slug(faster)),
            slower: vec![key(slower)],
            faster: vec![key(faster)],
            bound,
        }
    }

    /// `slower ÷ faster` grows from scale `from` to scale `to` by at
    /// least `bound`, over the product of `queries`' ratios; named
    /// `<q1>+<q2>…@s<from>-s<to>:widens`.
    pub fn widens(
        from: u32,
        to: u32,
        queries: &[&'static str],
        slower: &'static str,
        faster: &'static str,
        bound: f64,
    ) -> Claim {
        let mut claim = Claim {
            name: format!("{}@s{from}-s{to}:widens", queries.join("+")),
            slower: Vec::new(),
            faster: Vec::new(),
            bound,
        };
        for &query in queries {
            let key = |scale, engine| Key {
                scale,
                query,
                engine,
            };
            claim.slower.extend([key(to, slower), key(from, faster)]);
            claim.faster.extend([key(to, faster), key(from, slower)]);
        }
        claim
    }
}

/// A claim's result: its ratio, or the first row it names that the run
/// did not print.
#[derive(Debug)]
pub struct Outcome {
    pub name: String,
    pub ratio: Result<f64, Key>,
    pub bound: f64,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        matches!(self.ratio, Ok(r) if r >= self.bound)
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, bound) = (&self.name, self.bound);
        match self.ratio {
            Ok(r) => {
                let verdict = if self.ok() { "ok" } else { "FAIL" };
                write!(f, "claim={name} ratio={r:.2} bound={bound} {verdict}")
            }
            Err(k) => write!(
                f,
                "claim={name} ratio=- bound={bound} FAIL missing row scale={} query={} \
                 engine=\"{}\"",
                k.scale, k.query, k.engine
            ),
        }
    }
}

/// Evaluates every claim over the rows of one run. A claim naming a row
/// the run did not print fails, so a dropped measurement cannot weaken
/// the check.
pub fn check(claims: &[Claim], rows: &[Row]) -> Vec<Outcome> {
    let product = |keys: &[Key]| -> Result<f64, Key> {
        keys.iter().try_fold(1.0, |acc, key| {
            let finds =
                |r: &&Row| (r.scale, &*r.query, &*r.engine) == (key.scale, key.query, key.engine);
            let row = rows.iter().find(finds).ok_or(*key)?;
            Ok(acc * row.seconds)
        })
    };
    claims
        .iter()
        .map(|c| Outcome {
            name: c.name.clone(),
            ratio: product(&c.slower).and_then(|s| Ok(s / product(&c.faster)?)),
            bound: c.bound,
        })
        .collect()
}

/// The process exit code of a run: 0 when every claim holds, else 1.
pub fn exit_code(outcomes: &[Outcome]) -> i32 {
    i32::from(!outcomes.iter().all(Outcome::ok))
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

    fn parse(argv: &str) -> Result<Args, String> {
        let argv: Vec<String> = argv.split_whitespace().map(String::from).collect();
        Args::parse_from(&argv)
    }

    #[test]
    fn flags_parse_with_per_figure_defaults() {
        let a = parse("--fig 5").unwrap();
        assert_eq!(
            (a.fig, a.scale, a.max_scale, a.repeats, a.customers),
            (5, 4, 4, 3, 100)
        );
        assert_eq!(parse("--fig 6").unwrap().scale, 2);
        let a = parse("--scale 1 --fig 8 --repeats 5 --customers 8").unwrap();
        assert_eq!((a.fig, a.scale, a.repeats, a.customers), (8, 1, 5, 8));
        assert_eq!(
            parse("--fig 4 --max-scale 8").unwrap().sweep(),
            [1, 2, 4, 8]
        );
    }

    #[test]
    fn malformed_flags_are_usage_errors() {
        for argv in [
            "",
            "--scale 1",
            "--fig 3",
            "--fig 9",
            "--fig five",
            "--fig 5 --scale",
            "--fig 5 --scale -1",
            "--fig 5 --json out.json",
        ] {
            assert!(parse(argv).is_err(), "{argv:?} parsed");
        }
    }

    #[test]
    fn empty_runs_are_usage_errors() {
        for argv in [
            "--fig 5 --repeats 0",
            "--fig 5 --scale 0",
            "--fig 7 --customers 0",
            "--fig 4 --max-scale 0",
        ] {
            let err = parse(argv).unwrap_err();
            assert!(err.contains("at least 1"), "{argv:?}: {err}");
        }
        // One scale has no widening to check.
        let err = parse("--fig 4 --max-scale 1").unwrap_err();
        assert!(err.contains("at least 2"), "{err}");
        assert!(parse("--fig 5 --max-scale 1").is_ok());
    }

    fn row(scale: u32, query: &str, engine: &str, seconds: f64) -> Row {
        Row {
            scale,
            query: query.into(),
            engine: engine.into(),
            seconds,
        }
    }

    fn rows() -> Vec<Row> {
        vec![
            row(1, "Q2", "FDB", 0.001),
            row(1, "Q2", "RDB hash", 0.08),
            row(2, "Q2", "FDB", 0.002),
            row(2, "Q2", "RDB hash", 0.2),
        ]
    }

    #[test]
    fn a_ratio_at_or_over_its_bound_holds() {
        let claims = [
            Claim::beats(1, "Q2", "RDB hash", "FDB", 80.0),
            Claim::widens(1, 2, &["Q2"], "RDB hash", "FDB", 1.2),
        ];
        let out = check(&claims, &rows());
        assert_eq!(
            out[0].to_string(),
            "claim=Q2@s1:rdb_hash/fdb ratio=80.00 bound=80 ok"
        );
        // (0.2 / 0.002) / (0.08 / 0.001) = 1.25.
        assert_eq!(
            out[1].to_string(),
            "claim=Q2@s1-s2:widens ratio=1.25 bound=1.2 ok"
        );
        assert_eq!(exit_code(&out), 0);
        assert_eq!(exit_code(&[]), 0);
    }

    #[test]
    fn a_ratio_under_its_bound_fails() {
        let claims = [
            Claim::beats(2, "Q2", "RDB hash", "FDB", 50.0),
            Claim::beats(1, "Q2", "RDB hash", "FDB", 81.0),
        ];
        let out = check(&claims, &rows());
        assert!(out[0].ok());
        assert!(!out[1].ok());
        assert!(out[1].to_string().ends_with(" FAIL"), "{}", out[1]);
        assert_eq!(exit_code(&out), 1);
    }

    #[test]
    fn a_claim_whose_row_is_missing_fails() {
        let claims = [
            Claim::beats(1, "Q2", "RDB hash", "FDB f/o", 1.0),
            Claim::widens(1, 4, &["Q2"], "RDB hash", "FDB", 0.0),
        ];
        let out = check(&claims, &rows());
        assert_eq!(
            out[0].to_string(),
            "claim=Q2@s1:rdb_hash/fdb_fo ratio=- bound=1 \
             FAIL missing row scale=1 query=Q2 engine=\"FDB f/o\""
        );
        assert!(matches!(out[1].ratio, Err(Key { scale: 4, .. })));
        assert!(!out[1].ok());
        assert_eq!(exit_code(&out), 1);
    }
}
