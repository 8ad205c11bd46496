//! Reading the server from outside: the `STATS` counters, and telling
//! a cache hit from a miss by the change between two `STATS` replies.

use fdb_server::Client;

/// The `STATS` counters the harness reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub queries: u64,
    pub errors: u64,
    pub writes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Executed (not cache-served) queries by ordering strategy:
    /// unordered, stream, direct, heap, sort.
    pub strategies: [u64; 5],
}

pub const STRATEGY_NAMES: [&str; 5] = ["unordered", "stream", "direct", "heap", "sort"];

/// Parses a `STATS` payload (`key TAB value` lines). Counters the
/// payload lacks are an error: the benchmark must not silently read
/// zero from a server that renamed one.
pub fn parse_stats(payload: &[String]) -> Result<ServerStats, String> {
    let field = |key: &str| -> Result<u64, String> {
        payload
            .iter()
            .find_map(|line| {
                let (k, v) = line.split_once('\t')?;
                (k == key).then_some(v)
            })
            .ok_or_else(|| format!("STATS has no `{key}`"))?
            .parse::<u64>()
            .map_err(|e| format!("STATS `{key}` is not a count: {e}"))
    };
    let mut strategies = [0u64; 5];
    for (slot, name) in strategies.iter_mut().zip(STRATEGY_NAMES) {
        *slot = field(&format!("strategy_{name}"))?;
    }
    Ok(ServerStats {
        queries: field("queries")?,
        errors: field("errors")?,
        writes: field("writes")?,
        cache_hits: field("cache_hits")?,
        cache_misses: field("cache_misses")?,
        strategies,
    })
}

pub fn fetch_stats(client: &mut Client) -> Result<ServerStats, String> {
    let payload = client
        .request("STATS")
        .map_err(|e| format!("STATS transport: {e}"))?
        .map_err(|e| format!("STATS refused: {e}"))?;
    parse_stats(&payload)
}

/// How the server answered one request, as its counters tell it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// Answered from the plan cache.
    Hit,
    /// Planned, executed, rendered and cached.
    Miss,
    /// An `INSERT`/`DELETE` through the write path.
    Write,
    /// Anything else — including a delta that is not exactly one
    /// request's (another client was talking): not attributed.
    Other,
}

/// Attributes the single request issued between two `STATS` readings.
pub fn attribute(before: &ServerStats, after: &ServerStats) -> Served {
    let hits = after.cache_hits.wrapping_sub(before.cache_hits);
    let misses = after.cache_misses.wrapping_sub(before.cache_misses);
    let writes = after.writes.wrapping_sub(before.writes);
    match (hits, misses, writes) {
        (1, 0, 0) => Served::Hit,
        (0, 1, 0) => Served::Miss,
        (0, 0, 1) => Served::Write,
        _ => Served::Other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(hits: u64, misses: u64, writes: u64) -> Vec<String> {
        let mut lines = vec![
            "epoch\t7".to_string(),
            "queries\t12".into(),
            "errors\t0".into(),
            format!("writes\t{writes}"),
            format!("cache_hits\t{hits}"),
            format!("cache_misses\t{misses}"),
            "views\tR1".into(),
        ];
        lines.extend(STRATEGY_NAMES.iter().map(|n| format!("strategy_{n}\t1")));
        lines
    }

    #[test]
    fn stats_parse_and_missing_counters_are_errors() {
        let s = parse_stats(&payload(5, 3, 2)).unwrap();
        assert_eq!(
            (s.cache_hits, s.cache_misses, s.writes, s.queries),
            (5, 3, 2, 12)
        );
        assert_eq!(s.strategies, [1; 5]);
        let mut broken = payload(5, 3, 2);
        broken.retain(|l| !l.starts_with("cache_hits"));
        assert!(parse_stats(&broken).unwrap_err().contains("cache_hits"));
        let mut garbled = payload(5, 3, 2);
        garbled[1] = "queries\tmany".into();
        assert!(parse_stats(&garbled).is_err());
    }

    #[test]
    fn one_request_is_attributed_by_its_counter_delta() {
        let at = |h, m, w| parse_stats(&payload(h, m, w)).unwrap();
        assert_eq!(attribute(&at(5, 3, 2), &at(6, 3, 2)), Served::Hit);
        assert_eq!(attribute(&at(5, 3, 2), &at(5, 4, 2)), Served::Miss);
        assert_eq!(attribute(&at(5, 3, 2), &at(5, 3, 3)), Served::Write);
        // STATS, PING, EXPLAIN move none of the three.
        assert_eq!(attribute(&at(5, 3, 2), &at(5, 3, 2)), Served::Other);
        // Two requests between the readings: not one request's delta.
        assert_eq!(attribute(&at(5, 3, 2), &at(6, 4, 2)), Served::Other);
        assert_eq!(attribute(&at(5, 3, 2), &at(7, 3, 2)), Served::Other);
    }
}
