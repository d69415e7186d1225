//! The benchmark's own in-memory spans, recorded around each public
//! call it makes and written out when the run ends.
//!
//! A span has a name, a start and an end (µs since the tracer was
//! made), the span that caused it and the identifier of the operation
//! (job or query) it belongs to. A layer's self time is its duration
//! minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use xobs::Json;

struct Span {
    op: u64,
    parent: Option<usize>,
    name: String,
    start_us: f64,
    end_us: f64,
}

pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.t0).as_secs_f64() * 1e6
    }

    /// Records a finished span and returns its id (for children).
    pub fn span(
        &self,
        op: u64,
        parent: Option<usize>,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            op,
            parent,
            name: name.into(),
            start_us: self.us(start),
            end_us: self.us(end),
        };
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Copies a run report's own span tree (offsets in ms from the
    /// start of `JobSpec::run`) under `parent`, so a job's trace shows
    /// the phases inside the public call.
    pub fn import_report_spans(&self, op: u64, parent: usize, run_start: Instant, spans: &Json) {
        let base_us = self.us(run_start);
        let Some(roots) = spans.as_arr() else { return };
        let mut stack: Vec<(&Json, usize)> = roots.iter().map(|s| (s, parent)).collect();
        while let Some((s, par)) = stack.pop() {
            let (Some(name), Some(start), Some(wall)) = (
                s.get("name").and_then(Json::as_str),
                s.get("start_wall_ms").and_then(Json::as_f64),
                s.get("wall_ms").and_then(Json::as_f64),
            ) else {
                continue;
            };
            let start_us = base_us + start * 1e3;
            let id = {
                let mut all = self.spans.lock().expect("span store poisoned");
                all.push(Span {
                    op,
                    parent: Some(par),
                    name: name.to_owned(),
                    start_us,
                    end_us: start_us + wall * 1e3,
                });
                all.len() - 1
            };
            if let Some(children) = s.get("children").and_then(Json::as_arr) {
                stack.extend(children.iter().map(|c| (c, id)));
            }
        }
    }

    /// Per layer (span names with per-instance suffixes folded):
    /// `(count, total ms, self ms)`.
    pub fn self_times(&self) -> BTreeMap<String, (u64, f64, f64)> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let mut covered: Vec<(f64, f64)> = children[i]
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_us.max(s.start_us),
                        spans[c].end_us.min(s.end_us),
                    )
                })
                .filter(|(a, b)| b > a)
                .collect();
            covered.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut union = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in covered {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        union += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                union += cb - ca;
            }
            let total = s.end_us - s.start_us;
            let e = out.entry(layer_name(&s.name)).or_default();
            e.0 += 1;
            e.1 += total / 1e3;
            e.2 += (total - union).max(0.0) / 1e3;
        }
        out
    }

    pub fn to_json(&self) -> Json {
        let spans = self.spans.lock().expect("span store poisoned");
        Json::Arr(
            spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::obj()
                        .set("id", i as u64)
                        .set("op", s.op)
                        .set(
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                        )
                        .set("name", s.name.as_str())
                        .set("start_us", s.start_us)
                        .set("end_us", s.end_us)
                })
                .collect(),
        )
    }
}

/// Folds per-instance span names into their layer: `cosim.<candidate>`,
/// `xpar.worker-<n>` and `xopt.generate.<kernel>` by prefix, phase-1
/// units (`<kernel>.r16`, `<kernel>.r32`), measurement units
/// (`measure.<kernel>@<variant>`) and phase-3 curve points
/// (`<kernel>@<variant>`).
fn layer_name(name: &str) -> String {
    for prefix in ["cosim.", "xpar.worker-", "xopt.generate."] {
        if name.starts_with(prefix) {
            return prefix.trim_end_matches(['.', '-']).to_owned();
        }
    }
    let folded = if name.ends_with(".r16") || name.ends_with(".r32") {
        "phase1.unit"
    } else if name.starts_with("measure.") && name.contains('@') {
        "measure.unit"
    } else if name.contains('@') {
        "phase3.point"
    } else {
        name
    };
    folded.to_owned()
}
