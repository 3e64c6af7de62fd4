//! Conformance checks for the exported observability surfaces.
//!
//! Two validators, used by the test suite; the first also by the
//! `slo trace-check` CLI subcommand (the CI `trace-smoke` job), the
//! second also by the `load` bench:
//!
//! * [`check_chrome_trace`] — golden-schema validation of Chrome
//!   `trace_event` JSON: every event has `name`/`cat`/`ph`/`ts`/`dur`/
//!   `pid`/`tid`, phases are known letters, and complete (`"X"`) spans
//!   nest properly per thread.
//! * [`check_prometheus`] — line-by-line validation of the Prometheus
//!   text exposition format emitted by `slo serve`'s `metrics prom`
//!   (and written by [`crate::prom`]).
//!
//! The trace is parsed by the shared [`crate::json`] module.

use crate::json::Json;
use std::collections::HashSet;

/// A summary of a schema-valid Chrome trace.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Number of events in `traceEvents`.
    pub events: usize,
    /// Number of complete (`"X"`) spans.
    pub spans: usize,
    /// Distinct event names, sorted.
    pub names: Vec<String>,
    /// Dropped-event count from `otherData.dropped` (0 if absent).
    pub dropped: u64,
}

impl TraceSummary {
    /// Whether an event with this exact name is present.
    pub fn has(&self, name: &str) -> bool {
        self.names.iter().any(|n| n == name)
    }
}

/// Golden-schema validation of a Chrome `trace_event` JSON document.
///
/// Checks, in order:
/// 1. the document parses and has a `traceEvents` array;
/// 2. every event is an object with string `name`, string `cat`, a
///    one-letter `ph` in `{X,i,C,B,E,M}`, numeric non-negative `ts`
///    and `dur`, and numeric `pid`/`tid`;
/// 3. per `tid`, complete (`"X"`) spans nest: sorted by start (ties:
///    longer first), each span starts at-or-after its enclosing span's
///    start and ends at-or-before its end — no partial overlap.
///
/// Returns a [`TraceSummary`] for follow-on assertions (e.g. "all
/// seven pipeline phases present").
pub fn check_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = Json::parse(text).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut summary = TraceSummary {
        events: events.len(),
        ..TraceSummary::default()
    };
    if let Some(d) = doc
        .get("otherData")
        .and_then(|o| o.get("dropped"))
        .and_then(Json::as_f64)
    {
        summary.dropped = d as u64;
    }

    // (tid, ts, end) per complete span, for the nesting check.
    let mut spans: Vec<(u64, u64, u64)> = Vec::new();
    let mut names: Vec<String> = Vec::new();

    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing string 'name'"))?;
        ev.get("cat")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} ({name}): missing string 'cat'"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} ({name}): missing 'ph'"))?;
        if !matches!(ph, "X" | "i" | "C" | "B" | "E" | "M") {
            return Err(format!("event {i} ({name}): unknown ph '{ph}'"));
        }
        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i} ({name}): missing numeric 'ts'"))?;
        let dur = ev
            .get("dur")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i} ({name}): missing numeric 'dur'"))?;
        if ts < 0.0 || dur < 0.0 {
            return Err(format!("event {i} ({name}): negative ts/dur"));
        }
        ev.get("pid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i} ({name}): missing numeric 'pid'"))?;
        let tid = ev
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i} ({name}): missing numeric 'tid'"))?;

        names.push(name.to_string());
        if ph == "X" {
            summary.spans += 1;
            spans.push((
                tid as u64,
                ts as u64,
                (ts as u64).saturating_add(dur as u64),
            ));
        }
    }

    // Nesting: per tid, sweep spans sorted by (start asc, end desc)
    // with a stack of open intervals.
    spans.sort_by_key(|a| (a.0, a.1, std::cmp::Reverse(a.2)));
    let mut stack: Vec<(u64, u64, u64)> = Vec::new();
    for &(tid, start, end) in &spans {
        while let Some(&(ttid, _, tend)) = stack.last() {
            if ttid != tid || tend <= start {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&(_, tstart, tend)) = stack.last() {
            if start < tstart || end > tend {
                return Err(format!(
                    "spans overlap without nesting on tid {tid}: \
                     [{start},{end}] vs enclosing [{tstart},{tend}]"
                ));
            }
        }
        stack.push((tid, start, end));
    }

    names.sort();
    names.dedup();
    summary.names = names;
    Ok(summary)
}

/// A summary of a valid Prometheus exposition document.
#[derive(Debug, Clone, Default)]
pub struct PromSummary {
    /// Metric family names that have a `# TYPE` line, sorted.
    pub families: Vec<String>,
    /// Total number of sample lines.
    pub samples: usize,
}

impl PromSummary {
    /// Whether a metric family with this name was declared.
    pub fn has(&self, family: &str) -> bool {
        self.families.iter().any(|f| f == family)
    }
}

/// Line-by-line validation of the Prometheus text exposition format.
///
/// Rules enforced: `# HELP <name> <text>` and
/// `# TYPE <name> <counter|gauge|histogram|summary|untyped>` comment
/// shapes; sample lines are `name{labels} value` or `name value` with
/// a valid metric identifier, balanced quoted label values and a
/// parseable float; a sample whose base family has a `# TYPE` line
/// must appear *after* it; a family has at most one `# TYPE` line; and
/// a family's lines (`# HELP`, `# TYPE`, samples) form one group, not
/// split by another family's lines.
pub fn check_prometheus<'t>(text: &'t str) -> Result<PromSummary, String> {
    fn valid_metric_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    // Every family with a `# TYPE` line anywhere, for samples that
    // precede theirs.
    let declared: HashSet<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.split_whitespace().next())
        .collect();
    let mut typed: Vec<&str> = Vec::new();
    let mut summary = PromSummary::default();
    // The family whose lines are being read, and every family entered.
    let mut current = "";
    let mut entered: HashSet<&str> = HashSet::new();
    let mut enter = |family: &'t str, n: usize| {
        if family != current && !entered.insert(family) {
            return Err(format!(
                "line {n}: lines of '{family}' are split by another family's lines"
            ));
        }
        current = family;
        Ok(())
    };

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        let n = lineno + 1;
        if let Some(rest) = line.strip_prefix("# ") {
            if let Some(body) = rest.strip_prefix("HELP ") {
                let name = body.split_whitespace().next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("line {n}: HELP with invalid metric name '{name}'"));
                }
                enter(name, n)?;
            } else if let Some(body) = rest.strip_prefix("TYPE ") {
                let mut it = body.split_whitespace();
                let name = it.next().unwrap_or("");
                let kind = it.next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("line {n}: TYPE with invalid metric name '{name}'"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {n}: unknown metric type '{kind}'"));
                }
                if typed.contains(&name) {
                    return Err(format!("line {n}: second # TYPE line for '{name}'"));
                }
                enter(name, n)?;
                typed.push(name);
            }
            // Other comments are allowed and ignored.
            continue;
        }
        if line.starts_with('#') {
            continue; // bare comment
        }

        // Sample line: name[{labels}] value [timestamp]
        let (name_part, rest) = match line.find(['{', ' ']) {
            Some(idx) => (&line[..idx], &line[idx..]),
            None => return Err(format!("line {n}: sample without value: '{line}'")),
        };
        if !valid_metric_name(name_part) {
            return Err(format!("line {n}: invalid metric name '{name_part}'"));
        }
        let value_part = if let Some(labels_rest) = rest.strip_prefix('{') {
            let (pairs, after) = split_labels(labels_rest)
                .ok_or_else(|| format!("line {n}: unterminated label set"))?;
            for pair in pairs {
                let pair = pair.trim();
                if pair.is_empty() {
                    continue;
                }
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("line {n}: label without '=': '{pair}'"))?;
                if !valid_metric_name(k.trim()) {
                    return Err(format!("line {n}: invalid label name '{k}'"));
                }
                let v = v.trim();
                if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                    return Err(format!("line {n}: label value not quoted: '{v}'"));
                }
            }
            after
        } else {
            rest
        };
        let mut fields = value_part.split_whitespace();
        let value = fields
            .next()
            .ok_or_else(|| format!("line {n}: sample without value"))?;
        if value.parse::<f64>().is_err() && !matches!(value, "NaN" | "+Inf" | "-Inf") {
            return Err(format!("line {n}: invalid sample value '{value}'"));
        }
        if let Some(ts) = fields.next() {
            if ts.parse::<i64>().is_err() {
                return Err(format!("line {n}: invalid timestamp '{ts}'"));
            }
        }

        // A histogram's or summary's `_bucket`/`_sum`/`_count` samples
        // belong to the TYPEd base family.
        let base = name_part
            .strip_suffix("_bucket")
            .or_else(|| name_part.strip_suffix("_sum"))
            .or_else(|| name_part.strip_suffix("_count"))
            .filter(|b| !declared.contains(name_part) && declared.contains(b))
            .unwrap_or(name_part);
        // If the family is (ever) TYPEd, the TYPE must already have
        // been seen: exposition order is HELP/TYPE before samples.
        if declared.contains(base) && !typed.contains(&base) {
            return Err(format!(
                "line {n}: sample for '{name_part}' precedes its # TYPE line"
            ));
        }
        enter(base, n)?;
        summary.samples += 1;
    }

    typed.sort_unstable();
    summary.families = typed.into_iter().map(str::to_string).collect();
    Ok(summary)
}

/// Split the label body after a `{` at the commas outside quoted
/// values, up to the closing `}`; returns the pairs and the text after
/// the `}`, or `None` when the set is unterminated.
fn split_labels(labels: &str) -> Option<(Vec<&str>, &str)> {
    let mut pairs = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    let mut esc = false;
    for (i, c) in labels.char_indices() {
        if esc {
            esc = false;
        } else if in_str && c == '\\' {
            esc = true;
        } else if c == '"' {
            in_str = !in_str;
        } else if !in_str && matches!(c, ',' | '}') {
            pairs.push(&labels[start..i]);
            if c == '}' {
                return Some((pairs, &labels[i + 1..]));
            }
            start = i + 1;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_check_rejects_missing_fields() {
        let bad =
            r#"{"traceEvents":[{"name":"x","cat":"c","ph":"X","ts":0,"pid":1,"tid":1,"args":{}}]}"#;
        let err = check_chrome_trace(bad).unwrap_err();
        assert!(err.contains("dur"), "{err}");
    }

    #[test]
    fn trace_check_rejects_partial_overlap() {
        let bad = r#"{"traceEvents":[
            {"name":"a","cat":"c","ph":"X","ts":0,"dur":10,"pid":1,"tid":1,"args":{}},
            {"name":"b","cat":"c","ph":"X","ts":5,"dur":10,"pid":1,"tid":1,"args":{}}
        ]}"#;
        let err = check_chrome_trace(bad).unwrap_err();
        assert!(err.contains("overlap"), "{err}");
    }

    #[test]
    fn trace_check_accepts_nesting_and_other_tids() {
        let ok = r#"{"traceEvents":[
            {"name":"outer","cat":"c","ph":"X","ts":0,"dur":10,"pid":1,"tid":1,"args":{}},
            {"name":"inner","cat":"c","ph":"X","ts":2,"dur":3,"pid":1,"tid":1,"args":{}},
            {"name":"elsewhere","cat":"c","ph":"X","ts":5,"dur":10,"pid":1,"tid":2,"args":{}},
            {"name":"count","cat":"c","ph":"C","ts":1,"dur":0,"pid":1,"tid":1,"args":{"value":2}}
        ]}"#;
        let s = check_chrome_trace(ok).unwrap();
        assert_eq!(s.events, 4);
        assert_eq!(s.spans, 3);
        assert!(s.has("inner") && s.has("count"));
    }

    #[test]
    fn trace_check_is_linear_in_a_long_string_argument() {
        let msg = "é".repeat(1 << 19); // 1 MiB of two-byte scalars
        let trace = format!(
            r#"{{"traceEvents":[{{"name":"x","cat":"c","ph":"i","ts":0,"dur":0,"pid":1,"tid":1,"args":{{"msg":"{msg}"}}}}]}}"#
        );
        let start = std::time::Instant::now();
        let s = check_chrome_trace(&trace).unwrap();
        let took = start.elapsed();
        assert_eq!(s.events, 1);
        assert!(took.as_secs_f64() < 2.0, "1 MiB string took {took:?}");
    }

    #[test]
    fn trace_check_saturates_huge_timestamps() {
        let huge = r#"{"traceEvents":[
            {"name":"a","cat":"c","ph":"X","ts":1e300,"dur":1e300,"pid":1,"tid":1,"args":{}}
        ]}"#;
        assert_eq!(check_chrome_trace(huge).unwrap().spans, 1);
    }

    #[test]
    fn prometheus_happy_path() {
        let text = "\
# HELP slo_jobs_total Jobs processed.
# TYPE slo_jobs_total counter
slo_jobs_total 42
# TYPE slo_jobs_degraded_total counter
slo_jobs_degraded_total{reason=\"budget\"} 3
slo_jobs_degraded_total{reason=\"panic\"} 1
# TYPE slo_cache_hit_rate gauge
slo_cache_hit_rate 0.5
";
        let s = check_prometheus(text).unwrap();
        assert_eq!(s.samples, 4);
        assert!(s.has("slo_jobs_total"));
        assert!(s.has("slo_cache_hit_rate"));
    }

    #[test]
    fn prometheus_rejects_bad_lines() {
        assert!(check_prometheus("# TYPE x florp\nx 1\n").is_err());
        assert!(check_prometheus("1bad_name 3\n").is_err());
        assert!(
            check_prometheus("m{a=b} 3\n").is_err(),
            "unquoted label value"
        );
        assert!(check_prometheus("m{a=\"b\"} notanumber\n").is_err());
        assert!(
            check_prometheus("m{a=\"b\" 3\n").is_err(),
            "unterminated labels"
        );
        assert!(
            check_prometheus("m 1\n# TYPE m counter\n").is_err(),
            "sample before TYPE"
        );
    }

    #[test]
    fn prometheus_rejects_a_second_type_line() {
        let err = check_prometheus("# TYPE m counter\nm 1\n# TYPE m gauge\n").unwrap_err();
        assert!(err.contains("second # TYPE line for 'm'"), "{err}");
    }

    #[test]
    fn prometheus_rejects_a_split_family() {
        let text = "\
# TYPE a counter
a{k=\"x\"} 1
# TYPE b counter
b 2
a{k=\"y\"} 3
";
        let err = check_prometheus(text).unwrap_err();
        assert!(err.contains("line 5: lines of 'a' are split"), "{err}");
    }

    #[test]
    fn prometheus_groups_histogram_samples_under_their_family() {
        let text = "\
# TYPE h histogram
h_bucket{le=\"+Inf\"} 2
h_sum 0.5
h_count 2
# TYPE h_count_total counter
h_count_total 1
";
        assert_eq!(check_prometheus(text).unwrap().samples, 4);
    }
}
