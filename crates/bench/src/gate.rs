//! Quality-regression gate over `BENCH_quality.json`.
//!
//! `quality_smoke` *writes* `results/BENCH_quality.json`; this module is
//! the part that *reads* it: a minimal recursive-descent JSON parser (the
//! workspace is offline, so no serde), the per-cell metric extraction, and
//! the compare step that fails the build when a metric regresses past the
//! threshold against the committed baseline under `results/baselines/`.
//!
//! The metrics are distances to the generator's ground truth, so lower is
//! better: a *current* value above `baseline × (1 + threshold)`, plus a
//! small absolute slack, fails. New metrics (present in the fresh run but
//! not the baseline) pass with a note — they gate once the baseline is
//! refreshed (see the `bench_gate` binary's `--bless`).

use std::fmt;

/// A parsed JSON value (only what the trajectory files need).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience: `get(key)` as a number.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_f64()
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {}, found {:?}",
            byte as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number bytes");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number '{text}' at byte {start}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        // The trajectory files never emit \u escapes; accept
                        // and skip the four hex digits without decoding.
                        *pos += 4.min(bytes.len().saturating_sub(*pos + 1));
                        out.push('?');
                    }
                    Some(&b) => out.push(b as char),
                    None => return Err("unterminated escape".into()),
                }
                *pos += 1;
            }
            Some(&b) => {
                out.push(b as char);
                *pos += 1;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected ',' or ']', found {other:?}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        members.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
}

// ---- metric extraction --------------------------------------------------

/// The metrics of one trajectory file, as `(name, value)` pairs with
/// stable, human-readable names.
pub type Metrics = Vec<(String, f64)>;

/// Metrics of `BENCH_quality.json`: per-cell DTW and SED distance to the
/// generator's ground truth, keyed by the cell's matrix coordinates.
///
/// Leak cells are skipped: their population deliberately contains a shape
/// absent from the ground truth, so their distance numbers measure the
/// probe, not the mechanism — the leak *invariant* (`leak_surfaced ==
/// false`) is asserted by `quality_smoke` and the scenario tests instead.
pub fn quality_metrics(doc: &Json) -> Metrics {
    let mut out = Vec::new();
    for cell in doc.get("cells").and_then(Json::as_arr).unwrap_or(&[]) {
        let (Some(Json::Str(mech)), Some(Json::Str(kind)), Some(eps)) =
            (cell.get("mechanism"), cell.get("kind"), cell.num("eps"))
        else {
            continue;
        };
        if kind == "leak" {
            continue;
        }
        let eps = if eps.fract() == 0.0 {
            format!("{}", eps as u64)
        } else {
            format!("{eps}")
        };
        for metric in ["dtw", "sed"] {
            if let Some(v) = cell.num(metric) {
                out.push((format!("quality.{mech}.eps{eps}.{kind}.{metric}"), v));
            }
        }
    }
    out
}

// ---- comparison ---------------------------------------------------------

/// The gate's verdict on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within threshold (or improved).
    Ok,
    /// Regressed past the threshold — fails the gate.
    Regressed,
    /// Present in the fresh run only; informational until blessed.
    New,
    /// Present in the baseline only — the fresh run lost coverage, which
    /// fails the gate (a silently skipped benchmark is a silent
    /// regression).
    Missing,
}

/// One row of the before/after table.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// Metric name.
    pub name: String,
    /// Committed baseline value, if any.
    pub baseline: Option<f64>,
    /// Freshly measured value, if any.
    pub current: Option<f64>,
    /// The verdict under the configured threshold.
    pub verdict: Verdict,
}

impl GateRow {
    /// `current / baseline`, when both exist.
    pub fn ratio(&self) -> Option<f64> {
        match (self.current, self.baseline) {
            (Some(c), Some(b)) if b != 0.0 => Some(c / b),
            _ => None,
        }
    }
}

impl fmt::Display for GateRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fmt_val = |v: Option<f64>| match v {
            Some(v) if v >= 1000.0 => format!("{:.0}", v),
            Some(v) => format!("{:.2}", v),
            None => "—".to_string(),
        };
        let delta = match self.ratio() {
            Some(r) => format!("{:+.1}%", (r - 1.0) * 100.0),
            None => "—".to_string(),
        };
        let status = match self.verdict {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::New => "new",
            Verdict::Missing => "MISSING",
        };
        write!(
            f,
            "{:<44} {:>14} {:>14} {:>8}  {}",
            self.name,
            fmt_val(self.baseline),
            fmt_val(self.current),
            delta,
            status
        )
    }
}

/// Absolute slack for lower-is-better metrics, so a committed baseline of
/// exactly 0.0 (a perfect extraction) doesn't make the multiplicative
/// threshold vacuous and fail on any nonzero distance. Distances here live
/// in Compressive-SAX space, where 0.5 is well below one symbol of error.
const LOWER_IS_BETTER_SLACK: f64 = 0.5;

/// Compares fresh metrics against a baseline. `threshold` is the allowed
/// fractional rise (0.20 ⇒ fail above 120% of baseline, plus a small
/// absolute slack for near-zero baselines). Returns the table rows
/// (baseline order, then new metrics) and whether the gate passes.
pub fn compare(baseline: &Metrics, current: &Metrics, threshold: f64) -> (Vec<GateRow>, bool) {
    let regressed = |v: f64, base: f64| v > base * (1.0 + threshold) + LOWER_IS_BETTER_SLACK;
    let mut rows = Vec::new();
    let mut pass = true;
    for (name, base) in baseline {
        let fresh = current.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
        let verdict = match fresh {
            None => {
                pass = false;
                Verdict::Missing
            }
            Some(v) if regressed(v, *base) => {
                pass = false;
                Verdict::Regressed
            }
            Some(_) => Verdict::Ok,
        };
        rows.push(GateRow {
            name: name.clone(),
            baseline: Some(*base),
            current: fresh,
            verdict,
        });
    }
    for (name, v) in current {
        if !baseline.iter().any(|(n, _)| n == name) {
            rows.push(GateRow {
                name: name.clone(),
                baseline: None,
                current: Some(*v),
                verdict: Verdict::New,
            });
        }
    }
    (rows, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_trajectory_file_shapes() {
        let doc = Json::parse(
            r#"{
  "users": 600, "eps": 4.0,
  "reports_per_sec": 140032.1,
  "nested": {"a": [1, 2, 3], "flag": true, "none": null},
  "name": "protocol \"smoke\""
}"#,
        )
        .unwrap();
        assert_eq!(doc.num("reports_per_sec"), Some(140032.1));
        assert_eq!(doc.num("users"), Some(600.0));
        let nested = doc.get("nested").unwrap();
        assert_eq!(nested.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(nested.get("flag"), Some(&Json::Bool(true)));
        assert_eq!(nested.get("none"), Some(&Json::Null));
        assert_eq!(
            doc.get("name"),
            Some(&Json::Str("protocol \"smoke\"".into()))
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn gate_passes_within_threshold_and_fails_past_it() {
        let baseline = vec![
            ("a".to_string(), 100.0),
            ("b".to_string(), 100.0),
            ("gone".to_string(), 9.0),
        ];
        let current = vec![
            ("a".to_string(), 125.0), // +25%: within 25% plus the slack
            ("b".to_string(), 126.0), // +26%: regression
            ("new".to_string(), 1.0), // informational
        ];
        let (rows, pass) = compare(&baseline, &current, 0.25);
        assert!(!pass);
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap().verdict;
        assert_eq!(by_name("a"), Verdict::Ok);
        assert_eq!(by_name("b"), Verdict::Regressed);
        assert_eq!(by_name("gone"), Verdict::Missing);
        assert_eq!(by_name("new"), Verdict::New);
        // Improvements always pass.
        let (rows, pass) = compare(
            &vec![("a".to_string(), 100.0)],
            &vec![("a".to_string(), 25.0)],
            0.25,
        );
        assert!(pass);
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert_eq!(rows[0].ratio(), Some(0.25));
    }

    #[test]
    fn lower_is_better_gates_the_opposite_way() {
        let baseline = vec![
            ("q.a".to_string(), 10.0),
            ("q.b".to_string(), 10.0),
            ("q.zero".to_string(), 0.0),
        ];
        let current = vec![
            ("q.a".to_string(), 11.5),   // +15%: within a 20% threshold
            ("q.b".to_string(), 13.0),   // +30%: regression
            ("q.zero".to_string(), 0.3), // within the absolute slack
        ];
        let (rows, pass) = compare(&baseline, &current, 0.20);
        assert!(!pass);
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap().verdict;
        assert_eq!(by_name("q.a"), Verdict::Ok);
        assert_eq!(by_name("q.b"), Verdict::Regressed);
        assert_eq!(by_name("q.zero"), Verdict::Ok);
        // A drop (improvement) always passes.
        let (rows, pass) = compare(
            &vec![("q".to_string(), 10.0)],
            &vec![("q".to_string(), 1.0)],
            0.20,
        );
        assert!(pass);
        assert_eq!(rows[0].verdict, Verdict::Ok);
        // Past the slack, a zero baseline still gates.
        let (_, pass) = compare(
            &vec![("q".to_string(), 0.0)],
            &vec![("q".to_string(), 0.6)],
            0.20,
        );
        assert!(!pass);
    }

    #[test]
    fn quality_metrics_key_cells_and_skip_leak_rows() {
        let doc = Json::parse(
            r#"{"cells": [
                {"mechanism": "grr", "eps": 0.5, "kind": "zipf",
                 "dtw": 3.25, "sed": 4.0},
                {"mechanism": "olh", "eps": 4, "kind": "adversarial",
                 "dtw": 1.0, "sed": 2.0, "euclidean": 9.0},
                {"mechanism": "oue", "eps": 0.5, "kind": "leak",
                 "dtw": 8.0, "sed": 8.0},
                {"mechanism": "grr", "eps": 1, "kind": "uniform-dtw",
                 "dtw": null, "sed": null}
            ]}"#,
        )
        .unwrap();
        let m = quality_metrics(&doc);
        assert_eq!(
            m,
            vec![
                ("quality.grr.eps0.5.zipf.dtw".to_string(), 3.25),
                ("quality.grr.eps0.5.zipf.sed".to_string(), 4.0),
                ("quality.olh.eps4.adversarial.dtw".to_string(), 1.0),
                ("quality.olh.eps4.adversarial.sed".to_string(), 2.0),
            ]
        );
    }
}
