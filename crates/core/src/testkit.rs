//! Cross-engine test support: run any incremental engine on any scenario
//! and capture **everything observable** — schedule, work counters and
//! the full observer event stream.
//!
//! The paper's central claim is that the incremental analysis is
//! semantically equivalent to the exhaustive baseline while scaling to
//! many-core systems. That only holds if every cursor implementation
//! agrees bit-for-bit, so the conformance harness
//! (`crates/core/tests/conformance.rs`) drives all [`EngineKind`]s
//! through the same scenarios — one N-way differential oracle instead of
//! pairwise checks. This module is the harness's vocabulary; it is also
//! useful for ad-hoc debugging ("what exactly did engine X emit on this
//! workload?") and for downstream crates testing custom observers.
//!
//! # Example
//!
//! ```
//! use mia_arbiter::RoundRobin;
//! use mia_core::testkit::EngineKind;
//! use mia_core::AnalysisOptions;
//! use mia_model::{Cycles, Mapping, Platform, Problem, Task, TaskGraph};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = TaskGraph::new();
//! let a = g.add_task(Task::builder("a").wcet(Cycles(10)));
//! let b = g.add_task(Task::builder("b").wcet(Cycles(10)));
//! g.add_edge(a, b, 2)?;
//! let p = Problem::new(
//!     g.clone(),
//!     Mapping::from_assignment(&g, &[0, 1])?,
//!     Platform::new(2, 2),
//! )?;
//! let opts = AnalysisOptions::new();
//! let reference = EngineKind::Sequential.run(&p, &RoundRobin::new(), &opts)?;
//! for kind in EngineKind::all(&[2, 4]) {
//!     let run = kind.run(&p, &RoundRobin::new(), &opts)?;
//!     assert_eq!(run, reference, "{kind} diverged");
//! }
//! # Ok(())
//! # }
//! ```

use std::fmt;

use mia_model::arbiter::Arbiter;
use mia_model::{BankId, CoreId, Cycles, Problem, Schedule, TaskId};

use crate::{
    analyze_parallel_with, analyze_with, resume_analyze_parallel_with, resume_analyze_with,
    AnalysisError, AnalysisOptions, AnalysisStats, Checkpoint, CheckpointLog, Observer,
};

/// One event of the incremental analysis, as delivered through
/// [`Observer`] — the unit of the conformance harness's stream
/// comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The cursor jumped to `t`.
    Cursor(Cycles),
    /// `task` opened on `core` at `t`.
    Open(TaskId, CoreId, Cycles),
    /// `task` on `core` closed at `t`.
    Close(TaskId, CoreId, Cycles),
    /// `task`'s interference on `bank` was recomputed to `total`.
    Interference(TaskId, BankId, Cycles),
}

/// An [`Observer`] that records every event verbatim.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    /// The recorded stream, in delivery order.
    pub events: Vec<Event>,
}

impl Observer for EventLog {
    fn on_cursor(&mut self, t: Cycles) {
        self.events.push(Event::Cursor(t));
    }

    fn on_open(&mut self, task: TaskId, core: CoreId, t: Cycles) {
        self.events.push(Event::Open(task, core, t));
    }

    fn on_close(&mut self, task: TaskId, core: CoreId, t: Cycles) {
        self.events.push(Event::Close(task, core, t));
    }

    fn on_interference(&mut self, task: TaskId, bank: BankId, total: Cycles) {
        self.events.push(Event::Interference(task, bank, total));
    }
}

/// Everything observable about one engine run. Two runs comparing equal
/// means the engines are indistinguishable to any caller: same schedule,
/// same work counters, same observer event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineRun {
    /// The computed schedule.
    pub schedule: Schedule,
    /// The work counters.
    pub stats: AnalysisStats,
    /// The full observer event stream.
    pub events: Vec<Event>,
}

/// The incremental engines behind the internal step-engine trait (see
/// ARCHITECTURE.md "The step engine"), enumerable so harnesses can
/// sweep all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The paper's scanning cursor ([`crate::analyze_with`]).
    Sequential,
    /// The layer-parallel engine with this worker count
    /// ([`crate::analyze_parallel_with`]).
    Parallel {
        /// Worker pool size (0 = available parallelism).
        threads: usize,
    },
    /// The layer-parallel engine with a pinned engagement threshold
    /// ([`AnalysisOptions::parallel_engage`]): the pool is spawned even
    /// on hosts without usable parallelism, so the harness exercises the
    /// fan-out path everywhere.
    ParallelPinned {
        /// Worker pool size (0 = available parallelism).
        threads: usize,
        /// The pinned engagement threshold (1 = fan out every phase).
        engage_width: usize,
    },
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineKind::Sequential => write!(f, "sequential"),
            EngineKind::Parallel { threads } => write!(f, "parallel({threads})"),
            EngineKind::ParallelPinned {
                threads,
                engage_width,
            } => write!(f, "parallel({threads},engage={engage_width})"),
        }
    }
}

impl EngineKind {
    /// Every engine: sequential, and per requested thread
    /// count one auto-gated parallel entry plus one with the engagement
    /// threshold pinned to 1 (every phase fanned out — the pool runs even
    /// where the auto gate would fall through to the sequential path).
    pub fn all(thread_counts: &[usize]) -> Vec<EngineKind> {
        let mut kinds = vec![EngineKind::Sequential];
        for &threads in thread_counts {
            kinds.push(EngineKind::Parallel { threads });
            kinds.push(EngineKind::ParallelPinned {
                threads,
                engage_width: 1,
            });
        }
        kinds
    }

    /// Runs this engine on `problem` under `arbiter` and `options`,
    /// recording the full event stream.
    ///
    /// # Errors
    ///
    /// Whatever the underlying analysis returns (see
    /// [`crate::analyze_with`]).
    pub fn run<A>(
        self,
        problem: &Problem,
        arbiter: &A,
        options: &AnalysisOptions,
    ) -> Result<EngineRun, AnalysisError>
    where
        A: Arbiter + Sync + ?Sized,
    {
        let mut log = EventLog::default();
        let report = match self {
            EngineKind::Sequential => analyze_with(problem, arbiter, options, &mut log)?,
            EngineKind::Parallel { threads } => {
                analyze_parallel_with(problem, arbiter, options, threads, &mut log)?
            }
            EngineKind::ParallelPinned {
                threads,
                engage_width,
            } => {
                let pinned = options.clone().parallel_engage(engage_width);
                analyze_parallel_with(problem, arbiter, &pinned, threads, &mut log)?
            }
        };
        Ok(EngineRun {
            schedule: report.schedule,
            stats: report.stats,
            events: log.events,
        })
    }

    /// Runs the scanning engine on `problem`, recording checkpoints into
    /// `log` alongside the full event stream — the recording side of the
    /// delta-resume conformance checks.
    ///
    /// # Errors
    ///
    /// As [`crate::analyze_with`].
    pub fn record<A>(
        problem: &Problem,
        arbiter: &A,
        options: &AnalysisOptions,
        log: &mut CheckpointLog,
    ) -> Result<EngineRun, AnalysisError>
    where
        A: Arbiter + Sync + ?Sized,
    {
        let mut events = EventLog::default();
        let report = crate::analyze_checkpointed_with(problem, arbiter, options, &mut events, log)?;
        Ok(EngineRun {
            schedule: report.schedule,
            stats: report.stats,
            events: events.events,
        })
    }

    /// Resumes this engine from `checkpoint` (recorded by
    /// [`EngineKind::record`] for the run that produced `prior`),
    /// capturing the suffix event stream. The returned schedule and stats
    /// are complete; `events` holds only the resumed suffix — the harness
    /// pins it as a strict suffix of the full run's stream.
    ///
    /// # Errors
    ///
    /// As [`crate::analyze_with`].
    pub fn run_resumed<A>(
        self,
        problem: &Problem,
        arbiter: &A,
        options: &AnalysisOptions,
        checkpoint: &Checkpoint,
        prior: &Schedule,
    ) -> Result<EngineRun, AnalysisError>
    where
        A: Arbiter + Sync + ?Sized,
    {
        let mut log = EventLog::default();
        let report = match self {
            EngineKind::Sequential => {
                resume_analyze_with(problem, arbiter, options, &mut log, checkpoint, prior, None)?
            }
            EngineKind::Parallel { threads } => resume_analyze_parallel_with(
                problem, arbiter, options, threads, &mut log, checkpoint, prior, None,
            )?,
            EngineKind::ParallelPinned {
                threads,
                engage_width,
            } => {
                let pinned = options.clone().parallel_engage(engage_width);
                resume_analyze_parallel_with(
                    problem, arbiter, &pinned, threads, &mut log, checkpoint, prior, None,
                )?
            }
        };
        Ok(EngineRun {
            schedule: report.schedule,
            stats: report.stats,
            events: log.events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_kinds_enumerate_and_render() {
        let kinds = EngineKind::all(&[2, 16]);
        assert_eq!(kinds.len(), 5);
        assert_eq!(kinds[0].to_string(), "sequential");
        assert_eq!(kinds[1].to_string(), "parallel(2)");
        assert_eq!(kinds[2].to_string(), "parallel(2,engage=1)");
        assert_eq!(kinds[3].to_string(), "parallel(16)");
        assert_eq!(kinds[4].to_string(), "parallel(16,engage=1)");
    }

    #[test]
    fn event_log_records_in_order() {
        let mut log = EventLog::default();
        log.on_cursor(Cycles(0));
        log.on_open(TaskId(1), CoreId(0), Cycles(0));
        log.on_interference(TaskId(1), BankId(2), Cycles(5));
        log.on_close(TaskId(1), CoreId(0), Cycles(9));
        assert_eq!(
            log.events,
            vec![
                Event::Cursor(Cycles(0)),
                Event::Open(TaskId(1), CoreId(0), Cycles(0)),
                Event::Interference(TaskId(1), BankId(2), Cycles(5)),
                Event::Close(TaskId(1), CoreId(0), Cycles(9)),
            ]
        );
        assert!(log.wants_interference());
    }
}
