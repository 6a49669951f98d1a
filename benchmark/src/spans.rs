//! The benchmark's own spans: name, start, end, parent, kept in memory and
//! written when the run ends.
//!
//! Spans wrap the calls the benchmark makes into the layers (set-up steps,
//! warm-up, timed repetitions, traced trials); spans *inside* the engine are
//! a later issue. A span's self time is its duration minus the part of that
//! interval its child spans cover.

use std::time::Instant;

use crate::json::Value;

/// One closed (or still open) span, times in microseconds since the
/// recorder was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
}

/// In-memory span recorder for one workload run.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`, child of whichever span is open.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: duration minus the durations of its direct
/// children (children of one parent never overlap — the recorder is a
/// stack).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end_us - s.start_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_us - s.start_us;
        }
    }
    own
}

/// Chrome-trace "complete" events (`ph: "X"`) for one workload's spans;
/// `pid` is the workload's id, so every workload gets its own track.
pub fn chrome_events(spans: &[Span], pid: usize, process_name: &str) -> Vec<Value> {
    let own = self_times_us(spans);
    let mut events = vec![Value::obj([
        ("name", Value::from("process_name")),
        ("ph", Value::from("M")),
        ("pid", Value::from(pid as f64)),
        ("args", Value::obj([("name", Value::from(process_name))])),
    ])];
    for (i, s) in spans.iter().enumerate() {
        events.push(Value::obj([
            ("name", Value::from(s.name.as_str())),
            ("ph", Value::from("X")),
            ("pid", Value::from(pid as f64)),
            ("tid", Value::from(0.0)),
            ("ts", Value::from(s.start_us)),
            ("dur", Value::from(s.end_us - s.start_us)),
            (
                "args",
                Value::obj([
                    ("id", Value::from(i as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::from(p as f64)),
                    ),
                    ("self_us", Value::from(own[i])),
                ]),
            ),
        ]));
    }
    events
}

pub fn spans_to_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("name", Value::from(s.name.as_str())),
                    ("start_us", Value::from(s.start_us)),
                    ("end_us", Value::from(s.end_us)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::from(p as f64)),
                    ),
                ])
            })
            .collect(),
    )
}

pub fn spans_from_json(v: &Value) -> Option<Vec<Span>> {
    v.as_arr()?
        .iter()
        .map(|s| {
            Some(Span {
                name: s.get("name")?.as_str()?.to_string(),
                start_us: s.get("start_us")?.as_f64()?,
                end_us: s.get("end_us")?.as_f64()?,
                parent: s.get("parent")?.as_f64().map(|p| p as usize),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_us: start,
            end_us: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0.0, 100.0, None),
            span("a", 10.0, 40.0, Some(0)),
            span("a.inner", 15.0, 25.0, Some(1)),
            span("b", 50.0, 90.0, Some(0)),
        ];
        let own = self_times_us(&spans);
        assert_eq!(own, vec![30.0, 20.0, 10.0, 40.0]);
        // A root span equals the sum of its children plus its self time.
        assert_eq!(own[0] + 30.0 + 40.0, 100.0);
    }

    #[test]
    fn scopes_nest_and_close_in_order() {
        let mut rec = Spans::new();
        rec.scope("root", |r| {
            r.scope("child", |_| ());
            r.scope("sibling", |r| r.scope("grandchild", |_| ()));
        });
        let spans = rec.into_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["root", "child", "sibling", "grandchild"]);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        for s in &spans[1..] {
            let p = &spans[s.parent.unwrap()];
            assert!(p.start_us <= s.start_us && s.end_us <= p.end_us);
        }
        assert!(self_times_us(&spans).iter().all(|&t| t >= 0.0));
    }

    #[test]
    fn spans_round_trip_through_json() {
        let spans = vec![
            span("root", 0.5, 9.25, None),
            span("kid", 1.0, 2.0, Some(0)),
        ];
        let text = spans_to_json(&spans).to_string();
        let back = spans_from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spans);
    }
}
