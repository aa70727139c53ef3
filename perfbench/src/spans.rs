//! Benchmark-side spans: recorded around the benchmark's own calls into
//! each layer, kept in memory, and written out once the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use serde::Value;

/// One timed call into a layer.
pub struct Span {
    /// Layer the call enters (`cache`, `apps`, `http`, ...).
    pub layer: &'static str,
    /// Operation, e.g. `cache.load` or `http.poll`.
    pub name: String,
    /// Job index or run id shared by the spans of one unit of work.
    pub id: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    start: Duration,
    end: Duration,
}

impl Span {
    /// Wall time of the call.
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span store with one clock origin.
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
}

/// Per-layer totals: spans, summed wall time, and self time (wall time
/// not covered by child spans).
#[derive(Default, Clone, Copy)]
pub struct LayerTime {
    pub count: u64,
    pub total: Duration,
    pub self_time: Duration,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span now; close it with [`Recorder::close`].
    pub fn open(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        id: u64,
        parent: Option<usize>,
    ) -> usize {
        let now = self.t0.elapsed();
        self.spans.push(Span {
            layer,
            name: name.into(),
            id,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end = self.t0.elapsed();
    }

    /// Set the id of a span and its children once it is known (a run id
    /// arrives with the reply to the run's first request).
    pub fn set_id(&mut self, span: usize, id: u64) {
        self.spans[span].id = id;
        for s in &mut self.spans[span + 1..] {
            if s.parent == Some(span) {
                s.id = id;
            }
        }
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(layer, name, id, parent);
        let out = f();
        self.close(span);
        out
    }

    /// Totals per layer. Children of one span never overlap (every call is
    /// made from one thread), so self time is duration minus the children.
    pub fn by_layer(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.dur();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_time) {
            let e = out.entry(s.layer).or_default();
            e.count += 1;
            e.total += s.dur();
            e.self_time += s.dur().saturating_sub(covered);
        }
        out
    }

    /// Summed wall time of the spans named `name`.
    pub fn total_of(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .sum()
    }

    /// Chrome trace-event JSON (complete `X` events, microsecond times),
    /// which Perfetto and `chrome://tracing` load. `meta` entries become
    /// top-level keys.
    pub fn chrome_json(&self, meta: &[(&str, Value)]) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = vec![
                    ("id", Value::Int(s.id as i64)),
                    ("span", Value::Int(i as i64)),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent", Value::Int(p as i64)));
                }
                object(vec![
                    ("name", Value::Str(s.name.clone())),
                    ("cat", Value::Str(s.layer.to_string())),
                    ("ph", Value::Str("X".to_string())),
                    ("ts", Value::Float(s.start.as_secs_f64() * 1e6)),
                    ("dur", Value::Float(s.dur().as_secs_f64() * 1e6)),
                    ("pid", Value::Int(1)),
                    ("tid", Value::Int(1)),
                    ("args", object(args)),
                ])
            })
            .collect();
        let mut top = vec![
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", Value::Str("ms".to_string())),
        ];
        top.extend(meta.iter().map(|(k, v)| (*k, v.clone())));
        serde_json::to_string(&object(top)).expect("trace serializes")
    }

    /// The "where the wall went" table: each layer's self time and its share
    /// of `wall`, the end-to-end time the spans cover.
    pub fn wall_table(&self, title: &str, wall: Duration) -> String {
        let layers = self.by_layer();
        let covered: Duration = layers.values().map(|l| l.self_time).sum();
        let mut out = format!(
            "where the wall went: {title} ({:.3} s)\n{:<10} {:>8} {:>12} {:>8}\n",
            wall.as_secs_f64(),
            "layer",
            "spans",
            "self ms",
            "share"
        );
        let share = |d: Duration| 100.0 * d.as_secs_f64() / wall.as_secs_f64().max(1e-12);
        let mut rows: Vec<_> = layers.into_iter().collect();
        rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_time));
        for (layer, t) in rows {
            out += &format!(
                "{layer:<10} {:>8} {:>12.3} {:>7.2}%\n",
                t.count,
                t.self_time.as_secs_f64() * 1e3,
                share(t.self_time)
            );
        }
        let outside = wall.saturating_sub(covered);
        out += &format!(
            "{:<10} {:>8} {:>12.3} {:>7.2}%\n",
            "(untraced)",
            "",
            outside.as_secs_f64() * 1e3,
            share(outside)
        );
        out
    }
}

/// A JSON object from `(key, value)` pairs.
pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new();
        let parent = r.open("figure", "fig", 0, None);
        r.time("cache", "cache.load", 0, Some(parent), || {
            std::thread::sleep(Duration::from_millis(5))
        });
        r.close(parent);
        let layers = r.by_layer();
        let fig = layers["figure"];
        let cache = layers["cache"];
        assert_eq!((fig.count, cache.count), (1, 1));
        assert!(cache.self_time >= Duration::from_millis(5));
        assert_eq!(fig.total, fig.self_time + cache.total);
        let trace: Value = serde_json::from_str(&r.chrome_json(&[])).unwrap();
        let events = trace.as_object().unwrap()["traceEvents"]
            .as_array()
            .unwrap();
        assert_eq!(events.len(), 2);
    }
}
