//! Spans recorded from outside the engine: the harness wraps each call
//! into a layer's public function in a span `{name, start, end,
//! parent, op_id}` plus the counts observed at that boundary. Spans
//! stay in memory during the run and are written to `trace.json` at
//! exit; per-layer timings are medians of span *self* time.

use crate::calib::Speed;
use crate::json::Json;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Spans of one operation share its position in the op sequence;
    /// probes that belong to no operation use [`NO_OP`].
    pub op_id: u32,
    /// Counts observed at this boundary (rows, bytes, operators…).
    pub counts: Vec<(&'static str, u64)>,
}

/// `op_id` of spans recorded outside the op sequence (set-up, probes).
pub const NO_OP: u32 = u32::MAX;

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Machine-speed readings `(ns since origin, factor)` in time order
    /// (see [`crate::calib`]); reported times are divided by the
    /// factor in force when their span started.
    speed: Vec<(u64, f64)>,
    /// The calibration loop behind [`Tracer::tick`]; `None` for a tracer
    /// that only records structure (set-up of a timed run).
    calibration: Option<Speed>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            speed: Vec::new(),
            calibration: None,
        }
    }

    /// A tracer that also follows the machine's speed: [`Tracer::tick`]
    /// re-times the calibration kernel when it is due.
    pub fn calibrated() -> Tracer {
        let mut t = Tracer::new();
        let speed = Speed::start();
        t.mark_speed(speed.factors[0]);
        t.calibration = Some(speed);
        t
    }

    /// Between spans: lets the calibration loop take a reading if its
    /// interval has passed. Never call inside a span — the reading
    /// takes time of its own.
    pub fn tick(&mut self) {
        assert!(
            self.open.is_empty(),
            "tick() inside a span would be charged to it"
        );
        if let Some(speed) = self.calibration.as_mut() {
            let known = speed.factors.len();
            let factor = speed.now();
            if speed.factors.len() != known {
                self.mark_speed(factor);
            }
        }
    }

    /// Records the speed factor in force from now on.
    fn mark_speed(&mut self, factor: f64) {
        let at = self.now_ns();
        self.speed.push((at, factor));
    }

    /// The factor in force at `ns` (the first reading before any; 1.0
    /// when none was ever taken).
    pub fn speed_at(&self, ns: u64) -> f64 {
        let i = self.speed.partition_point(|&(at, _)| at <= ns);
        match (i, self.speed.first()) {
            (_, None) => 1.0,
            (0, Some(&(_, f))) => f,
            (i, _) => self.speed[i - 1].1,
        }
    }

    /// Every factor recorded so far.
    pub fn speeds(&self) -> impl Iterator<Item = f64> + '_ {
        self.speed.iter().map(|&(_, f)| f)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op_id: u32) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op_id,
            counts: Vec::new(),
        });
        self.open.push(id);
        // Read the clock last so the bookkeeping above is charged to
        // the parent, not to this span.
        self.spans[id].start_ns = self.now_ns();
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let end = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost-first"
        );
        self.spans[id.0].end_ns = end;
    }

    /// Runs `f` under a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, op_id: u32, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, op_id);
        let r = f();
        self.exit(id);
        r
    }

    /// Renames a closed span — for boundaries whose kind is only known
    /// once the call has returned (a cache hit or a miss).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id.0].name = name;
    }

    /// Duration of a span in nanoseconds.
    pub fn duration_ns(&self, id: SpanId) -> u64 {
        let s = &self.spans[id.0];
        s.end_ns.saturating_sub(s.start_ns)
    }

    pub fn count(&mut self, id: SpanId, key: &'static str, value: u64) {
        self.spans[id.0].counts.push((key, value));
    }

    /// The most recently opened span (for attaching counts to a leaf).
    pub fn last(&self) -> SpanId {
        SpanId(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in nanoseconds: its duration minus the
    /// part of that interval its direct children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Self times (ms, at reference speed) of every span called `name`,
    /// in recording order.
    pub fn self_ms_of(&self, name: &str) -> Vec<f64> {
        let self_ns = self.self_ns();
        self.spans
            .iter()
            .zip(self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, ns)| ns as f64 / 1e6 / self.speed_at(s.start_ns))
            .collect()
    }

    /// Count `key` of every span called `name`, read as nanoseconds and
    /// returned as ms at reference speed.
    pub fn count_ms_of(&self, name: &str, key: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| {
                let speed = self.speed_at(s.start_ns);
                s.counts
                    .iter()
                    .filter(move |(k, _)| *k == key)
                    .map(move |(_, v)| *v as f64 / 1e6 / speed)
            })
            .collect()
    }

    /// Count `key` of every span called `name`, as recorded.
    pub fn count_of(&self, name: &str, key: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.counts.iter())
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .collect()
    }

    /// Duration of a span in ms at reference speed.
    pub fn duration_ms(&self, id: SpanId) -> f64 {
        self.duration_ns(id) as f64 / 1e6 / self.speed_at(self.spans[id.0].start_ns)
    }

    /// Sum of count `key` over every span called `name`.
    pub fn sum_count(&self, name: &str, key: &str) -> u64 {
        self.count_of(name, key).iter().sum()
    }

    pub fn to_json(&self) -> Json {
        let self_ns = self.self_ns();
        Json::Arr(
            self.spans
                .iter()
                .zip(self_ns)
                .enumerate()
                .map(|(id, (s, own))| {
                    Json::obj([
                        ("id", Json::Int(id as i64)),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Int(s.start_ns as i64)),
                        ("end_ns", Json::Int(s.end_ns as i64)),
                        ("self_ns", Json::Int(own as i64)),
                        ("speed", Json::Num(self.speed_at(s.start_ns))),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                        ),
                        (
                            "op_id",
                            if s.op_id == NO_OP {
                                Json::Null
                            } else {
                                Json::Int(i64::from(s.op_id))
                            },
                        ),
                        (
                            "counts",
                            Json::obj(s.counts.iter().map(|(k, v)| (*k, Json::Int(*v as i64)))),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// See [`Tracer::self_ns`]. Children never overlap (spans close
/// innermost-first), so the covered part is the sum of their lengths.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100] ⊃ run [10,60] ⊃ exec [20,50]; op ⊃ render [70,90].
        let spans = vec![
            span("op", 0, 100, None),
            span("run", 10, 60, Some(0)),
            span("exec", 20, 50, Some(1)),
            span("render", 70, 90, Some(0)),
        ];
        // op: 100 − 50 − 20 = 30 (the grandchild is already inside run).
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_by_open_order_and_sums_counts() {
        let mut t = Tracer::new();
        let op = t.enter("op", 7);
        let a = t.enter("layer", 7);
        t.count(a, "rows", 5);
        t.exit(a);
        t.leaf("layer", 7, || std::hint::black_box(1 + 1));
        let last = t.last();
        t.count(last, "rows", 6);
        t.exit(op);
        let spans = t.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op_id == 7 && s.end_ns >= s.start_ns));
        assert_eq!(t.sum_count("layer", "rows"), 11);
        assert_eq!(t.self_ms_of("layer").len(), 2);
        let own = t.self_ns();
        assert_eq!(
            own[0] + own[1] + own[2],
            spans[0].end_ns - spans[0].start_ns
        );
    }

    #[test]
    fn times_are_divided_by_the_speed_in_force_at_span_start() {
        let mut t = Tracer::new();
        assert_eq!(t.speed_at(0), 1.0);
        t.spans.push(span("a", 100, 1_000_100, None));
        t.spans.push(span("a", 5_000, 2_005_000, None));
        t.spans[1].counts.push(("extra_ns", 500_000));
        t.speed = vec![(1_000, 1.0), (4_000, 1.25)];
        // Before the first reading the first reading applies.
        assert_eq!(t.speed_at(100), 1.0);
        assert_eq!(t.speed_at(4_000), 1.25);
        assert_eq!(t.self_ms_of("a"), vec![1.0, 1.6]);
        assert_eq!(t.count_ms_of("a", "extra_ns"), vec![0.4]);
        assert_eq!(t.duration_ms(SpanId(1)), 1.6);
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_is_a_harness_bug() {
        let mut t = Tracer::new();
        let a = t.enter("a", 0);
        let _b = t.enter("b", 0);
        t.exit(a);
    }
}
