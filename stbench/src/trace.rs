//! In-memory span buffer for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing is recorded inside the program.
//! The buffer is written out once, when the run ends, as a Chrome
//! trace-event file (loadable in Perfetto) and summarised as a
//! self-time table.

use serde::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for an operation's root.
    pub parent: Option<u32>,
    /// Operation the span belongs to (shared by all its spans).
    pub op: u32,
}

/// Per-name aggregate over the whole buffer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of durations minus the part covered by child spans.
    pub self_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` through
    /// the tracer it is handed become children.
    pub fn span<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op,
        });
        self.open.push(id);
        self.spans[id as usize].start_ns = self.now_ns();
        let out = f(self);
        self.spans[id as usize].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// A span with no children: `f` does not see the tracer.
    pub fn leaf<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> R) -> R {
        self.span(name, op, |_| f())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration and self time per span name. Self times of all names sum
    /// to the root spans' total exactly: every nanosecond of a root is
    /// either inside exactly one deepest span or in a parent's gap.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    /// Sum of the root spans' durations.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// The self-time table, one row per span name, widest self time
    /// first, closed by the sum row and the root total it must match.
    pub fn self_time_table(&self) -> String {
        let totals = self.totals();
        let root = self.root_ns().max(1);
        let mut rows: Vec<(&str, Total)> = totals.iter().map(|(k, v)| (*k, *v)).collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        let mut s = format!(
            "{:<24} {:>9} {:>14} {:>14} {:>8}\n",
            "span", "count", "total_ms", "self_ms", "self_%"
        );
        let mut sum = 0u64;
        for (name, t) in rows {
            sum += t.self_ns;
            s.push_str(&format!(
                "{:<24} {:>9} {:>14.3} {:>14.3} {:>8.2}\n",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                100.0 * t.self_ns as f64 / root as f64
            ));
        }
        s.push_str(&format!(
            "{:<24} {:>9} {:>14.3} {:>14.3} {:>8.2}\n",
            "sum of self times",
            "",
            root as f64 / 1e6,
            sum as f64 / 1e6,
            100.0 * sum as f64 / root as f64
        ));
        s
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per
    /// span, microsecond timestamps, the op id and parent index in
    /// `args`.
    pub fn chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("pid".into(), Json::Int(1)),
                    ("tid".into(), Json::Int(1)),
                    ("ts".into(), Json::Float(s.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        Json::Float((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("id".into(), Json::UInt(i as u64)),
                            ("op".into(), Json::UInt(u64::from(s.op))),
                            (
                                "parent".into(),
                                s.parent.map_or(Json::Null, |p| Json::UInt(u64::from(p))),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("displayTimeUnit".into(), Json::Str("ns".into())),
            ("traceEvents".into(), Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_sum_to_the_roots() {
        let mut tr = Tracer::default();
        for op in 0..5 {
            tr.span("op", op, |tr| {
                spin(50);
                tr.span("a", op, |tr| {
                    spin(30);
                    tr.leaf("b", op, || spin(20));
                    tr.leaf("b", op, || spin(20));
                });
                tr.leaf("c", op, || spin(40));
            });
        }
        let totals = tr.totals();
        assert_eq!(totals["op"].count, 5);
        assert_eq!(totals["b"].count, 10);
        let self_sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(self_sum, tr.root_ns(), "self times partition the roots");
        assert!(totals["a"].self_ns < totals["a"].total_ns);
        assert_eq!(totals["b"].self_ns, totals["b"].total_ns, "leaves");
        assert!(tr.self_time_table().contains("sum of self times"));
    }

    #[test]
    fn parents_and_ops_are_recorded() {
        let mut tr = Tracer::default();
        tr.span("root", 7, |tr| tr.leaf("kid", 7, || ()));
        let s = tr.spans();
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert!(s.iter().all(|x| x.op == 7 && x.end_ns >= x.start_ns));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
        let json = serde_json::to_string(&tr.chrome_json()).unwrap();
        let back = serde_json::from_str(&json).unwrap();
        let events = back.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("kid"));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_u64(),
            Some(0)
        );
    }
}
