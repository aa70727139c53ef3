//! Correctness gate for regenerated figures: goldens, finiteness, digests.

use std::path::Path;

use serde::Value;

/// Pinned quick-scale outputs; a figure with a file here must match it.
const GOLDEN_DIR: &str = "tests/goldens";

/// The golden gate's tolerance (`tests/golden_figures.rs`): the engine is
/// deterministic, the headroom only absorbs libm-level differences.
const RTOL: f64 = 1e-9;
const ATOL: f64 = 1e-12;

/// 64-bit FNV-1a of `bytes`, as 16 hex digits: printed per output so that
/// drift between runs or commits is visible at a glance.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Structural comparison with numeric tolerance; the path of the first
/// difference on mismatch.
pub fn compare(path: &str, got: &Value, want: &Value) -> Result<(), String> {
    match (got, want) {
        (Value::Object(g), Value::Object(w)) => {
            if !g.keys().eq(w.keys()) {
                return Err(format!("{path}: keys differ"));
            }
            g.iter()
                .try_for_each(|(k, gv)| compare(&format!("{path}.{k}"), gv, &w[k]))
        }
        (Value::Array(g), Value::Array(w)) => {
            if g.len() != w.len() {
                return Err(format!("{path}: length {} != {}", g.len(), w.len()));
            }
            g.iter()
                .zip(w)
                .enumerate()
                .try_for_each(|(i, (gv, wv))| compare(&format!("{path}[{i}]"), gv, wv))
        }
        _ => match (got.as_f64(), want.as_f64()) {
            (Some(g), Some(w)) if (g - w).abs() <= ATOL + RTOL * g.abs().max(w.abs()) => Ok(()),
            (Some(g), Some(w)) => Err(format!("{path}: {g} != {w}")),
            _ if got == want => Ok(()),
            _ => Err(format!("{path}: {got:?} != {want:?}")),
        },
    }
}

/// Every series of a figure has at least one point and every coordinate is
/// a finite number (NaN and infinities serialize as `null`).
pub fn series_finite(fig: &Value) -> Result<(), String> {
    let series = fig
        .as_object()
        .and_then(|o| o.get("series"))
        .and_then(Value::as_array)
        .ok_or("no series array")?;
    for s in series {
        let name = s
            .as_object()
            .and_then(|o| o.get("name"))
            .and_then(Value::as_str)
            .unwrap_or("?");
        let points = s
            .as_object()
            .and_then(|o| o.get("points"))
            .and_then(Value::as_array)
            .ok_or_else(|| format!("series {name}: no points array"))?;
        if points.is_empty() {
            return Err(format!("series {name} is empty"));
        }
        for p in points {
            let finite = p.as_array().is_some_and(|xy| {
                xy.len() == 2 && xy.iter().all(|v| v.as_f64().is_some_and(f64::is_finite))
            });
            if !finite {
                return Err(format!("series {name}: non-finite point {p:?}"));
            }
        }
    }
    Ok(())
}

/// Check one figure's JSON output: it parses, its series are finite, and it
/// matches `tests/goldens/<id>.json` when that file exists.
pub fn check_figure(id: &str, json: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(json).map_err(|_| format!("{id}: output is not UTF-8"))?;
    let got: Value = serde_json::from_str(text).map_err(|e| format!("{id}: unparseable: {e:?}"))?;
    series_finite(&got).map_err(|e| format!("{id}: {e}"))?;
    let golden = Path::new(GOLDEN_DIR).join(format!("{id}.json"));
    if let Ok(want_text) = std::fs::read_to_string(&golden) {
        let want: Value = serde_json::from_str(&want_text)
            .map_err(|e| format!("{}: unparseable golden: {e:?}", golden.display()))?;
        compare(id, &got, &want).map_err(|e| format!("differs from {}: {e}", golden.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Value {
        serde_json::from_str(s).unwrap()
    }

    #[test]
    fn comparator_tolerance() {
        let a = parse(r#"{"x": [1.0, 2.0]}"#);
        assert!(compare("t", &a, &a.clone()).is_ok());
        assert!(compare("t", &a, &parse(r#"{"x": [1.0, 2.0000001]}"#)).is_err());
        assert!(compare("t", &a, &parse(r#"{"x": [1.0, 2.0000000000000004]}"#)).is_ok());
        assert!(compare("t", &a, &parse(r#"{"y": [1.0, 2.0]}"#)).is_err());
    }

    #[test]
    fn finiteness() {
        assert!(series_finite(&parse(
            r#"{"series": [{"name": "a", "points": [[1.0, 2.0]]}]}"#
        ))
        .is_ok());
        assert!(series_finite(&parse(r#"{"series": [{"name": "a", "points": []}]}"#)).is_err());
        assert!(series_finite(&parse(
            r#"{"series": [{"name": "a", "points": [[1.0, null]]}]}"#
        ))
        .is_err());
        assert!(series_finite(&parse(r#"{"series": []}"#)).is_ok());
    }

    #[test]
    fn fnv_digest() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }
}
