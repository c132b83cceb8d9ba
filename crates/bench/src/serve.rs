//! The long-running advisor service loop behind `repro serve`: a
//! JSON-lines request/response protocol over any `BufRead`/`Write`
//! pair (stdin/stdout in the binary, in-memory buffers in tests).
//!
//! One query per input line (the [`AdvisorQuery::from_json`] format
//! `repro advise-batch` also reads); one response line per query,
//! carrying a **causal id** (the 1-based input line ordinal), the
//! canonical key, how the service answered (`cache`: `hit` from the
//! result cache, `shared` re-stamped from the same key at another SMT
//! level, or `miss` computed by replay), the recommendation, and a
//! per-query wall-clock span broken into the service's phases
//! (canonicalize → advise → respond). Every
//! `flush_every` queries the loop emits a `flush` event line with the
//! `advisor.cache.*` counters; on EOF it drains cleanly with a single
//! final `drain` event summarizing the session.
//!
//! Alongside the wall-clock spans the loop samples a deterministic
//! [`TimeSeriesRecorder`] once per query — cache hit/shared/compute
//! counters and entry/byte gauges whose evolution depends only on the
//! input stream (queries are answered strictly in line order, one at
//! a time), so the exported `timeseries/v1` document is a pure
//! function of the input. CI serves the bundled 200-query batch and
//! validates the export.

use hybridmem::json::Json;
use hybridmem::{advice_to_json, canonicalize, AdvisorQuery, AdvisorService};
use simfabric::TimeSeriesRecorder;
use std::io::{BufRead, Write};
use std::time::Instant;

/// Tuning for one [`serve_loop`] session.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Emit a `flush` event line after every this many queries
    /// (0 disables periodic flushes; the EOF drain always runs).
    pub flush_every: u64,
    /// Queries per time-series window.
    pub ts_interval: u64,
    /// Time-series ring capacity (windows retained).
    pub ts_capacity: usize,
    /// Attach the full `advisor_advice/v1` document to every
    /// response instead of just the recommendation.
    pub full_advice: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            flush_every: 50,
            ts_interval: 50,
            ts_capacity: 256,
            full_advice: false,
        }
    }
}

/// What one [`serve_loop`] session did, plus the deterministic
/// time-series export.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Query lines answered (including error responses).
    pub queries: u64,
    /// Malformed lines answered with an error response.
    pub errors: u64,
    /// Queries the result cache answered.
    pub hits: u64,
    /// Queries answered by re-stamping the advice of the same key at
    /// another SMT level.
    pub shared: u64,
    /// Queries that computed fresh advice.
    pub computed: u64,
    /// The session's `timeseries/v1` JSONL export.
    pub timeseries_jsonl: String,
}

fn span_json(id: u64, canon_us: f64, advise_us: f64, respond_us: f64) -> Json {
    Json::obj([
        ("id", Json::Num(id as f64)),
        ("canonicalize_us", Json::Num(canon_us)),
        ("advise_us", Json::Num(advise_us)),
        ("respond_us", Json::Num(respond_us)),
        ("total_us", Json::Num(canon_us + advise_us + respond_us)),
    ])
}

/// Run the service loop until `input` reaches EOF. Every input line
/// produces exactly one response line (errors included, so ids stay
/// causal); event lines (`flush`, `drain`) interleave but never
/// replace a response. Returns the session summary after the final
/// drain has been written and flushed.
pub fn serve_loop(
    input: impl BufRead,
    mut output: impl Write,
    opts: &ServeOptions,
) -> Result<ServeSummary, String> {
    let service = AdvisorService::with_defaults();
    let mut rec = TimeSeriesRecorder::new(opts.ts_interval.max(1), opts.ts_capacity.max(1));
    let ts_queries = rec.register_counter("serve.queries");
    let ts_hits = rec.register_counter("serve.cache_hits");
    let ts_shared = rec.register_counter("serve.shared");
    let ts_computed = rec.register_counter("serve.computed");
    let ts_errors = rec.register_counter("serve.errors");
    let ts_entries = rec.register_gauge("advisor.cache.entries");
    let ts_bytes = rec.register_gauge("advisor.cache.bytes");
    let mut summary = ServeSummary {
        queries: 0,
        errors: 0,
        hits: 0,
        shared: 0,
        computed: 0,
        timeseries_jsonl: String::new(),
    };
    // Flush per line: a client driving the loop interactively must
    // see each response as soon as its query is answered.
    let write_line = |line: &str, output: &mut dyn Write| -> Result<(), String> {
        output
            .write_all(line.as_bytes())
            .and_then(|()| output.write_all(b"\n"))
            .and_then(|()| output.flush())
            .map_err(|e| format!("write response: {e}"))
    };
    for (lineno, line) in input.lines().enumerate() {
        let line = line.map_err(|e| format!("read query line {}: {e}", lineno + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        summary.queries += 1;
        let id = summary.queries;
        rec.add(ts_queries, 1.0);
        let t0 = Instant::now();
        let parsed =
            hybridmem::json::parse(line.trim()).and_then(|doc| AdvisorQuery::from_json(&doc));
        let response = match parsed {
            Err(e) => {
                summary.errors += 1;
                rec.add(ts_errors, 1.0);
                Json::obj([("id", Json::Num(id as f64)), ("error", Json::Str(e))])
            }
            Ok(query) => {
                let key = canonicalize(&query);
                let canon_us = t0.elapsed().as_secs_f64() * 1e6;
                let t1 = Instant::now();
                let (answers, stats) = service.advise_batch(std::slice::from_ref(&query));
                let advise_us = t1.elapsed().as_secs_f64() * 1e6;
                let advice = &answers[0];
                let cache = if stats.cache_hits > 0 {
                    summary.hits += 1;
                    rec.add(ts_hits, 1.0);
                    "hit"
                } else if stats.shared > 0 {
                    summary.shared += 1;
                    rec.add(ts_shared, 1.0);
                    "shared"
                } else {
                    summary.computed += 1;
                    rec.add(ts_computed, 1.0);
                    "miss"
                };
                let t2 = Instant::now();
                let mut fields = vec![
                    ("id", Json::Num(id as f64)),
                    ("canonical", Json::Str(key.canonical())),
                    ("cache", Json::Str(cache.into())),
                    ("recommended", Json::Str(advice.recommended().label.clone())),
                    ("speedup_vs_ddr", Json::Num(advice.speedup_vs_ddr)),
                ];
                if opts.full_advice {
                    fields.push(("advice", advice_to_json(&key, advice)));
                }
                let respond_us = t2.elapsed().as_secs_f64() * 1e6;
                fields.push(("span", span_json(id, canon_us, advise_us, respond_us)));
                Json::obj(fields)
            }
        };
        write_line(&response.to_compact(), &mut output)?;
        // The deterministic sample: cache shape after this query.
        let cache = service.cache();
        rec.set(ts_entries, cache.len() as f64);
        rec.set(ts_bytes, cache.bytes() as f64);
        if rec.tick() {
            rec.close_window();
        }
        if opts.flush_every > 0 && id.is_multiple_of(opts.flush_every) {
            let stats = cache.stats();
            let flush = Json::obj([
                ("event", Json::Str("flush".into())),
                ("after", Json::Num(id as f64)),
                (
                    "cache",
                    Json::obj([
                        ("hits", Json::Num(stats.hits as f64)),
                        ("misses", Json::Num(stats.misses as f64)),
                        ("inserts", Json::Num(stats.inserts as f64)),
                        ("entries", Json::Num(cache.len() as f64)),
                        ("bytes", Json::Num(cache.bytes() as f64)),
                    ]),
                ),
                ("windows", Json::Num(rec.windows().count() as f64)),
            ]);
            write_line(&flush.to_compact(), &mut output)?;
        }
    }
    rec.finish();
    summary.timeseries_jsonl = rec.to_jsonl();
    let drain = Json::obj([
        ("event", Json::Str("drain".into())),
        ("queries", Json::Num(summary.queries as f64)),
        ("errors", Json::Num(summary.errors as f64)),
        ("cache_hits", Json::Num(summary.hits as f64)),
        ("shared", Json::Num(summary.shared as f64)),
        ("computed", Json::Num(summary.computed as f64)),
        ("windows", Json::Num(rec.windows().count() as f64)),
        ("dropped", Json::Num(rec.dropped() as f64)),
    ]);
    write_line(&drain.to_compact(), &mut output)?;
    output.flush().map_err(|e| format!("flush output: {e}"))?;
    Ok(summary)
}

/// What [`check_serve_output`] found in a valid serve transcript.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeCheck {
    /// Response lines (one per query, errors included).
    pub responses: u64,
    /// Responses answered from the cache.
    pub hits: u64,
    /// Responses re-stamped from another SMT level's answer.
    pub shared: u64,
    /// Error responses.
    pub errors: u64,
    /// `flush` event lines.
    pub flushes: u64,
}

/// Validate a serve transcript: every non-event line is a response
/// with a causal id (1, 2, 3, … in order) and — unless it is an error
/// response — a span whose phase times are non-negative and sum to
/// `total_us`; exactly one `drain` event closes the transcript, its
/// query, hit, shared and error totals matching the responses
/// counted. `expect_queries`, when `Some`, additionally pins the
/// response count (the CI smoke knows its batch size).
pub fn check_serve_output(text: &str, expect_queries: Option<u64>) -> Result<ServeCheck, String> {
    let mut check = ServeCheck::default();
    let mut drained: Option<(u64, u64, u64, u64)> = None; // (queries, hits, shared, errors)
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if drained.is_some() {
            return Err(format!("line {lineno}: content after the drain event"));
        }
        let doc = hybridmem::json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        if let Some(event) = doc.get("event").and_then(Json::as_str) {
            match event {
                "flush" => {
                    doc.num_field("after")
                        .map_err(|e| format!("line {lineno}: {e}"))?;
                    doc.get("cache")
                        .ok_or_else(|| format!("line {lineno}: flush without cache"))?;
                    check.flushes += 1;
                }
                "drain" => {
                    let q = doc
                        .num_field("queries")
                        .map_err(|e| format!("line {lineno}: {e}"))?;
                    let h = doc
                        .num_field("cache_hits")
                        .map_err(|e| format!("line {lineno}: {e}"))?;
                    let sh = doc
                        .num_field("shared")
                        .map_err(|e| format!("line {lineno}: {e}"))?;
                    let e = doc
                        .num_field("errors")
                        .map_err(|e| format!("line {lineno}: {e}"))?;
                    drained = Some((q as u64, h as u64, sh as u64, e as u64));
                }
                other => return Err(format!("line {lineno}: unknown event {other:?}")),
            }
            continue;
        }
        let id = doc
            .num_field("id")
            .map_err(|e| format!("line {lineno}: {e}"))? as u64;
        check.responses += 1;
        if id != check.responses {
            return Err(format!(
                "line {lineno}: id {id} breaks the causal order (expected {})",
                check.responses
            ));
        }
        if doc.get("error").is_some() {
            check.errors += 1;
            continue;
        }
        doc.str_field("canonical")
            .map_err(|e| format!("line {lineno}: {e}"))?;
        doc.str_field("recommended")
            .map_err(|e| format!("line {lineno}: {e}"))?;
        match doc
            .str_field("cache")
            .map_err(|e| format!("line {lineno}: {e}"))?
            .as_str()
        {
            "hit" => check.hits += 1,
            "shared" => check.shared += 1,
            "miss" => {}
            other => return Err(format!("line {lineno}: bad cache field {other:?}")),
        }
        let span = doc
            .get("span")
            .ok_or_else(|| format!("line {lineno}: response without span"))?;
        let mut sum = 0.0;
        for phase in ["canonicalize_us", "advise_us", "respond_us"] {
            let v = span
                .num_field(phase)
                .map_err(|e| format!("line {lineno}: span: {e}"))?;
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("line {lineno}: span phase {phase} is {v}"));
            }
            sum += v;
        }
        let total = span
            .num_field("total_us")
            .map_err(|e| format!("line {lineno}: span: {e}"))?;
        if (total - sum).abs() > 1e-6 * sum.max(1.0) {
            return Err(format!(
                "line {lineno}: span total {total} != phase sum {sum}"
            ));
        }
    }
    let (q, h, sh, e) = drained.ok_or("missing drain event (the loop did not finish cleanly)")?;
    if q != check.responses || h != check.hits || sh != check.shared || e != check.errors {
        return Err(format!(
            "drain totals ({q} queries, {h} hits, {sh} shared, {e} errors) disagree with the \
             transcript ({} responses, {} hits, {} shared, {} errors)",
            check.responses, check.hits, check.shared, check.errors
        ));
    }
    if let Some(want) = expect_queries {
        if check.responses != want {
            return Err(format!("{} responses, expected {want}", check.responses));
        }
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ServeOptions {
        ServeOptions {
            flush_every: 2,
            ts_interval: 2,
            ts_capacity: 8,
            full_advice: false,
        }
    }

    fn tiny_batch() -> String {
        // Four queries: the third repeats the first's canonical key,
        // the fourth is the first at another SMT level.
        [
            "{\"workload\": \"stream_2x200\", \"budget_kib\": 64}",
            "{\"workload\": \"gups_2x200\", \"budget_kib\": 64}",
            "{\"workload\": \"stream_2x200\", \"budget_kib\": 64}",
            "{\"workload\": \"stream_2x200\", \"budget_kib\": 64, \"threads\": 128}",
        ]
        .join("\n")
    }

    #[test]
    fn serve_answers_flushes_and_drains() {
        let mut out = Vec::new();
        let summary = serve_loop(tiny_batch().as_bytes(), &mut out, &tiny_opts()).expect("serves");
        assert_eq!(summary.queries, 4);
        assert_eq!(summary.errors, 0);
        assert_eq!(summary.hits, 1, "third query repeats the first");
        assert_eq!(
            summary.shared, 1,
            "fourth query is the first at 128 threads"
        );
        assert_eq!(summary.computed, 2);
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("\"cache\":\"shared\""), "{text}");
        let check = check_serve_output(&text, Some(4)).expect("valid transcript");
        assert_eq!(check.responses, 4);
        assert_eq!(check.hits, 1);
        assert_eq!(check.shared, 1);
        assert_eq!(check.flushes, 2, "flushes after queries 2 and 4");
        let ts = hybridmem::check_timeseries(&summary.timeseries_jsonl).expect("valid timeseries");
        assert_eq!(ts.ticks, 4);
        assert_eq!(ts.windows, 2, "two full windows");
    }

    #[test]
    fn malformed_lines_get_error_responses_and_causal_ids() {
        let input = "{\"workload\": \"stream_2x200\"}\nnot json\n{\"workload\": \"bogus\"}\n";
        let mut out = Vec::new();
        let summary = serve_loop(input.as_bytes(), &mut out, &tiny_opts()).expect("serves");
        assert_eq!(summary.queries, 3);
        assert_eq!(summary.errors, 2);
        let text = String::from_utf8(out).expect("utf8");
        let check = check_serve_output(&text, Some(3)).expect("valid transcript");
        assert_eq!(check.errors, 2);
    }

    #[test]
    fn checker_rejects_broken_transcripts() {
        // No drain.
        assert!(check_serve_output("{\"id\":1,\"error\":\"x\"}\n", None)
            .unwrap_err()
            .contains("missing drain"));
        // Causal-order break.
        let bad = "{\"id\":2,\"error\":\"x\"}\n\
                   {\"event\":\"drain\",\"queries\":1,\"errors\":1,\"cache_hits\":0,\"shared\":0,\"computed\":0}\n";
        assert!(check_serve_output(bad, None)
            .unwrap_err()
            .contains("causal"));
        // Drain totals disagreeing with the transcript.
        let lying = "{\"id\":1,\"error\":\"x\"}\n\
                     {\"event\":\"drain\",\"queries\":5,\"errors\":1,\"cache_hits\":0,\"shared\":0,\"computed\":0}\n";
        assert!(check_serve_output(lying, None)
            .unwrap_err()
            .contains("disagree"));
        // A shared count the responses do not back.
        let unbacked = "{\"id\":1,\"error\":\"x\"}\n\
                        {\"event\":\"drain\",\"queries\":1,\"errors\":1,\"cache_hits\":0,\"shared\":1,\"computed\":0}\n";
        assert!(check_serve_output(unbacked, None)
            .unwrap_err()
            .contains("disagree"));
    }
}
