//! Spans recorded by the benchmark itself around calls into the program.
//!
//! A span has a name, a start and an end, a parent and the id of the job
//! (one reorder, request or drift step) it belongs to. Spans are kept in
//! memory and written out once, when the run ends.
//!
//! The root span of a job is the real operation: a CLI subprocess, a serve
//! round trip or a pipeline call. The program is a black box to the
//! benchmark, so the layer calls it makes internally are re-run by the
//! benchmark on the same input right after the root, each as a child span.
//! A parent's self time is therefore its duration minus the durations of its
//! children; the self time of a root is the part of the operation no replayed
//! layer accounts for, reported as the workload's `untraced` remainder.

use std::time::Instant;

use crate::stats::median;
use crate::{Ctx, Report, PER_LAYER};

/// One recorded span; times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span store; span ids are indices into it.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Records a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        job: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            job,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span; returns its result and the span id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        job: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let id = self.record(name, job, parent, start, Instant::now());
        (out, id)
    }

    /// Duration of span `id` minus the durations of its children, in
    /// seconds. Negative when replayed children ran slower than the
    /// operation they re-run, which only noise can cause.
    pub fn self_secs(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum();
        self.spans[id].secs() - children
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Median duration in seconds of the spans called `name`; 0 when the
    /// layer never ran on this workload.
    pub fn median_secs(&self, name: &str) -> f64 {
        median(&self.durations(name)).unwrap_or(0.0)
    }

    /// Median duration in ms of the spans called `name`, with their count.
    pub fn layer_ms(&self, name: &str) -> Option<(f64, usize)> {
        let d = self.durations(name);
        median(&d).map(|m| (m * 1e3, d.len()))
    }

    /// [`Tracer::layer_ms`] in seconds.
    pub fn layer_s(&self, name: &str) -> Option<(f64, usize)> {
        self.layer_ms(name).map(|(ms, n)| (ms / 1e3, n))
    }

    /// Median self time in seconds of the spans called `name`, with their
    /// count. For a root span this is the part of the operation no
    /// replayed layer covers: the workload's `untraced` remainder.
    pub fn self_s(&self, name: &str) -> Option<(f64, usize)> {
        let selfs: Vec<f64> = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_secs(i))
            .collect();
        median(&selfs).map(|m| (m, selfs.len()))
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{id},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                    s.name, s.job, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Adds every per-layer metric to `report`: the `(value, samples)` that
/// `value_of` gives for the layers this workload calls, 0 for the rest.
pub fn fill_layers(report: &mut Report, value_of: impl Fn(&str) -> Option<(f64, usize)>) {
    for (name, _) in PER_LAYER {
        let (value, samples) = value_of(name).unwrap_or((0.0, 0));
        report.metric(name, value, samples);
    }
}

/// One line stating a prediction, the measured share and the verdict.
pub fn prediction(what: &str, percent: f64, holds: bool) -> String {
    let verdict = if holds { "holds" } else { "FAILS" };
    format!("prediction {verdict}: {what} (measured {percent:.1}%)")
}

/// Writes the spans of a traced run beside the run's scratch directory,
/// once, at the end.
pub fn write_spans(ctx: &Ctx, workload: &str, t: &Tracer, report: &mut Report) {
    let dir = ctx.work.parent().unwrap_or(&ctx.work);
    let path = dir.join(format!("spans-{workload}-seed{}.json", ctx.seed));
    match std::fs::write(&path, t.to_json()) {
        Ok(()) => report.lines.push(format!("spans: {}", path.display())),
        Err(e) => report
            .lines
            .push(format!("warning: write {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let t0 = t.origin;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = t.record("op", 0, None, at(0), at(10));
        let a = t.record("a", 0, Some(root), at(10), at(13));
        t.record("a.leaf", 0, Some(a), at(13), at(14));
        t.record("b", 0, Some(root), at(14), at(18));
        let eps = 1e-9;
        assert!((t.self_secs(root) - 0.003).abs() < eps);
        assert!((t.self_secs(a) - 0.002).abs() < eps);
        let (untraced, jobs) = t.self_s("op").expect("one root");
        assert!((untraced - 0.003).abs() < eps);
        assert_eq!(jobs, 1);
        assert_eq!(t.median_secs("missing"), 0.0);
        assert_eq!(t.layer_ms("missing"), None);
    }

    #[test]
    fn slower_replays_make_untraced_negative() {
        let mut t = Tracer::default();
        let t0 = t.origin;
        let root = t.record("op", 1, None, t0, t0 + Duration::from_millis(1));
        t.record(
            "slow.replay",
            1,
            Some(root),
            t0,
            t0 + Duration::from_millis(5),
        );
        assert!((t.self_secs(root) + 0.004).abs() < 1e-9);
    }

    #[test]
    fn untraced_is_the_median_over_jobs() {
        let mut t = Tracer::default();
        let t0 = t.origin;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        for (job, (len, child)) in [(10, 4), (20, 4), (30, 4)].into_iter().enumerate() {
            let root = t.record("op", job as u64, None, at(0), at(len));
            t.record("layer", job as u64, Some(root), at(0), at(child));
        }
        let (untraced, jobs) = t.self_s("op").expect("roots");
        assert!((untraced - 0.016).abs() < 1e-9);
        assert_eq!(jobs, 3);
        let (layer, n) = t.layer_ms("layer").expect("layers");
        assert!((layer - 4.0).abs() < 1e-9);
        assert_eq!(n, 3);
    }

    #[test]
    fn json_lists_every_span_with_parent_and_job() {
        let mut t = Tracer::default();
        let ((), root) = t.time("op", 7, None, || ());
        t.time("leaf", 7, Some(root), || ());
        let json = t.to_json();
        assert!(json.contains("\"name\":\"op\",\"job\":7,\"parent\":null"));
        assert!(json.contains("\"name\":\"leaf\",\"job\":7,\"parent\":0"));
    }
}
