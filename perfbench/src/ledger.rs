//! Self time per span name from a drained span list.
//!
//! `SpanRecord` carries no parent, so nesting is recovered per thread by
//! interval containment: a span is the child of the innermost span on
//! the same thread whose interval contains it. A span's self time is
//! its duration minus the durations of its direct children.

use std::collections::BTreeMap;

use mia_obs::SpanRecord;

use crate::util::Metrics;

/// Per-name totals of one traced pass.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Self time by span name, nanoseconds, summed over all threads.
    pub self_ns: BTreeMap<String, u64>,
    /// Total duration by span name, nanoseconds, summed over all threads.
    pub total_ns: BTreeMap<String, u64>,
    /// Self time of every span on `root_tid`, nanoseconds: the wall
    /// time the recording thread spent inside any traced layer.
    pub root_self_ns: u64,
}

impl Ledger {
    /// Builds the ledger; `root_tid` is the thread that called the
    /// layers (the benchmark's own thread).
    pub fn new(spans: &[SpanRecord], root_tid: u64) -> Ledger {
        let mut by_thread: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        for span in spans {
            by_thread.entry(span.tid).or_default().push(span);
        }
        let mut ledger = Ledger::default();
        for (tid, mut list) in by_thread {
            // Parents first: earlier start, then longer duration.
            list.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
            let mut self_of: Vec<u64> = list.iter().map(|s| s.dur_ns).collect();
            let mut stack: Vec<usize> = Vec::new();
            for (i, span) in list.iter().enumerate() {
                let end = span.start_ns + span.dur_ns;
                while let Some(&top) = stack.last() {
                    let parent = list[top];
                    if span.start_ns >= parent.start_ns && end <= parent.start_ns + parent.dur_ns {
                        break;
                    }
                    stack.pop();
                }
                if let Some(&parent) = stack.last() {
                    self_of[parent] = self_of[parent].saturating_sub(span.dur_ns);
                }
                stack.push(i);
            }
            for (span, own) in list.iter().zip(self_of) {
                *ledger.self_ns.entry(span.name.clone()).or_default() += own;
                *ledger.total_ns.entry(span.name.clone()).or_default() += span.dur_ns;
                if tid == root_tid {
                    ledger.root_self_ns += own;
                }
            }
        }
        ledger
    }

    /// Adds another ledger's totals to this one.
    pub fn merge(&mut self, other: Ledger) {
        for (name, ns) in other.self_ns {
            *self.self_ns.entry(name).or_default() += ns;
        }
        for (name, ns) in other.total_ns {
            *self.total_ns.entry(name).or_default() += ns;
        }
        self.root_self_ns += other.root_self_ns;
    }

    /// Self time of `name` in seconds (0 when it never ran).
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e9
    }

    /// Total duration of `name` in seconds (0 when it never ran).
    pub fn total_s(&self, name: &str) -> f64 {
        self.total_ns.get(name).copied().unwrap_or(0) as f64 / 1e9
    }
}

/// Runs `f` with telemetry on and returns its result with the spans it
/// recorded and how many spans were dropped at the per-thread cap.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, Vec<SpanRecord>, u64) {
    drop(mia_obs::take_spans());
    let dropped_before = mia_obs::spans_dropped();
    mia_obs::set_enabled(true);
    let out = f();
    mia_obs::set_enabled(false);
    let spans = mia_obs::take_spans();
    (out, spans, mia_obs::spans_dropped() - dropped_before)
}

/// The ledger closure of one workload: traced calls of the whole
/// operation alternated with traced layer-by-layer runs of it.
pub struct Closure<T> {
    /// Wall time of each traced whole-operation call, seconds.
    pub whole_s: Vec<f64>,
    /// Wall time the layer spans account for in each layered run,
    /// seconds; entry `i` follows whole call `i`.
    pub attributed_s: Vec<f64>,
    /// Spans dropped at the per-thread cap over all layered runs.
    pub dropped: u64,
    /// The last layered run's ledger and result.
    pub ledger: Ledger,
    pub last: T,
}

impl<T> Closure<T> {
    /// Share of the whole operation no layer accounts for: the median
    /// over the pairs, so one pair that the host slowed on one side does
    /// not decide it. Both sides are traced, so tracing overhead cancels
    /// out of each pair's ratio.
    pub fn unattributed(&self) -> f64 {
        let ratios: Vec<f64> = self
            .whole_s
            .iter()
            .zip(&self.attributed_s)
            .map(|(whole, attributed)| (whole - attributed) / whole)
            .collect();
        crate::util::median(&ratios)
    }

    /// Median wall time of one traced whole-operation call, seconds.
    pub fn whole_median_s(&self) -> f64 {
        crate::util::median(&self.whole_s)
    }
}

/// Alternates `pairs` traced calls of `whole` with traced calls of
/// `layered` on the benchmark thread. Alternating keeps host drift from
/// landing on one side of the comparison; odd pairs run the layered side
/// first, so a steady speed-up or slow-down of the host favours each
/// side equally often.
pub fn close<T, E>(
    pairs: usize,
    mut whole: impl FnMut(),
    mut layered: impl FnMut() -> Result<T, E>,
) -> Result<Closure<T>, E> {
    let root = mia_obs::thread_id();
    let mut whole_s = Vec::new();
    let mut attributed_s = Vec::new();
    let mut dropped = 0;
    let mut last = None;
    for pair in 0..pairs.max(1) {
        let mut run_layered = || traced(&mut layered);
        let layered_first = (pair % 2 == 1).then(&mut run_layered);
        let ((), took) = traced(|| crate::util::timed(&mut whole)).0;
        whole_s.push(took.as_secs_f64());
        let (out, spans, lost) = layered_first.unwrap_or_else(run_layered);
        let ledger = Ledger::new(&spans, root);
        attributed_s.push(ledger.root_self_ns as f64 / 1e9);
        dropped += lost;
        last = Some((ledger, out?));
    }
    let (ledger, last) = last.expect("at least one pair");
    Ok(Closure {
        whole_s,
        attributed_s,
        dropped,
        ledger,
        last,
    })
}

/// Records the traced pass's engine self times.
pub fn record_trace(layers: &mut Metrics, ledger: &Ledger, dropped: u64) {
    layers.insert(
        "obs.analysis.account_self_s",
        ledger.self_s("analysis.account"),
    );
    layers.insert(
        "obs.analysis.close_open_self_s",
        ledger.self_s("analysis.close_open"),
    );
    layers.insert(
        "obs.analysis.advance_self_s",
        ledger.self_s("analysis.advance"),
    );
    layers.insert(
        "obs.dse.full_analysis_self_s",
        ledger.self_s("dse.full_analysis"),
    );
    layers.insert(
        "obs.dse.delta_resume_self_s",
        ledger.self_s("dse.delta_resume"),
    );
    layers.insert("obs.dse.validate_self_s", ledger.self_s("dse.validate"));
    layers.insert("obs.spans_dropped", dropped as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: u64, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name: name.to_owned(),
            tid,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_per_thread() {
        let spans = [
            span("outer", 0, 0, 100),
            span("mid", 0, 10, 50),
            span("leaf", 0, 20, 10),
            span("leaf", 0, 40, 5),
            span("sibling", 0, 70, 20),
            // Another thread overlapping in time is never a child.
            span("worker", 1, 15, 60),
        ];
        let ledger = Ledger::new(&spans, 0);
        assert_eq!(ledger.self_ns["outer"], 100 - 50 - 20);
        assert_eq!(ledger.self_ns["mid"], 50 - 15);
        assert_eq!(ledger.self_ns["leaf"], 15);
        assert_eq!(ledger.self_ns["sibling"], 20);
        assert_eq!(ledger.self_ns["worker"], 60);
        assert_eq!(ledger.root_self_ns, 100);
        assert_eq!(ledger.total_ns["leaf"], 15);
    }
}
