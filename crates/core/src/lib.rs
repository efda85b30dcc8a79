//! The incremental O(n²) memory interference analysis — the contribution
//! of *"Scaling Up the Memory Interference Analysis for Hard Real-Time
//! Many-Core Systems"* (DATE 2020), Algorithm 1.
//!
//! # The problem
//!
//! Given a validated [`Problem`](mia_model::Problem) (task DAG, mapping
//! with per-core execution order, platform, per-bank demands) and an
//! [`Arbiter`](mia_model::Arbiter), compute a **static time-triggered
//! schedule**: a release date and worst-case response time (WCET +
//! interference) per task. Once computed, release dates are honoured at
//! run time even when dependencies finish early, which keeps the
//! interference bounds valid ("avoiding unexpected interferences", §II.B).
//!
//! # The algorithm
//!
//! Instead of the global fixed-point iterations of the original algorithm
//! (`mia-baseline`), a time cursor `t` sweeps forward. Tasks are
//! partitioned into **closed** (finished before `t`), **alive** (executing
//! at `t` — at most one per core, since per-core execution is serial) and
//! **future**. At each step:
//!
//! 1. alive tasks whose finish date equals `t` close, releasing their
//!    dependents,
//! 2. each idle core opens the next task of its execution order if its
//!    dependencies are closed and its minimal release date has passed;
//!    the release date is **fixed forever** at `t`,
//! 3. interference between the newly opened tasks and the other alive
//!    tasks is (re)computed per memory bank via the arbiter's `IBUS`
//!    function,
//! 4. `t` jumps to the next alive finish date or future minimal release
//!    date, whichever is smaller.
//!
//! Because releases are final and interference sets only grow, no
//! fixed-point iteration is needed: the complexity is `O(c²·b·n²)` — with
//! platform constants, **O(n²)** against the original **O(n⁴)**.
//!
//! # Engines
//!
//! The close/open/advance cursor loop exists **once**, in the internal
//! `engine` module's `run_cursor` driver; the two analysis entry
//! points are thin *step engines* plugged into it (an alive-slot view
//! plus an interference phase — see `ARCHITECTURE.md` "The step
//! engine"). All engines share the same slot machinery (dense,
//! generation-stamped per-core buffers — the hot path performs no heap
//! allocation) and produce **bit-identical** schedules, work counters
//! and observer event streams:
//!
//! * [`analyze`] / [`analyze_with`] — the scanning cursor of the paper
//!   (lines 24–28), the default;
//! * [`analyze_parallel`] — the layer-parallel engine: at every instant
//!   the alive set is an anti-chain ("layer") of the DAG whose members
//!   are updated concurrently by a persistent worker pool partitioned by
//!   destination core. Phases narrower than a measured engagement
//!   threshold run inline (never slower than sequential); the threshold
//!   in effect is reported via [`ParallelInfo`]. See the
//!   [`parallel` module docs](analyze_parallel) and `ARCHITECTURE.md`.
//!
//! The [`testkit`] module runs any engine on any scenario and captures
//! everything observable; the cross-engine conformance harness
//! (`tests/conformance.rs`) uses it to pin all engines — plus the
//! exhaustive `mia-baseline` oracle — to the same answers on generated
//! systems covering every arbiter, interference mode and pool size.
//!
//! # Example
//!
//! ```
//! use mia_arbiter::RoundRobin;
//! use mia_core::analyze;
//! use mia_model::{Cycles, Mapping, Platform, Problem, Task, TaskGraph};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two producers on different cores feeding one consumer: the producers
//! // overlap and interfere where their demands meet.
//! let mut g = TaskGraph::new();
//! let a = g.add_task(Task::builder("a").wcet(Cycles(100)));
//! let b = g.add_task(Task::builder("b").wcet(Cycles(100)));
//! let c = g.add_task(Task::builder("c").wcet(Cycles(50)));
//! g.add_edge(a, c, 10)?;
//! g.add_edge(b, c, 10)?;
//! let mapping = Mapping::from_assignment(&g, &[0, 1, 0])?;
//! let problem = Problem::new(g, mapping, Platform::new(2, 2))?;
//!
//! let schedule = analyze(&problem, &RoundRobin::new())?;
//! // a and b both write 10 words into c's bank (bank 0, core 0's bank):
//! // each suffers min(10, 10) = 10 cycles of interference.
//! assert_eq!(schedule.timing(a).interference, Cycles(10));
//! assert_eq!(schedule.timing(b).interference, Cycles(10));
//! assert_eq!(schedule.makespan(), Cycles(160)); // a finishes at 110, c at 160
//! # Ok(())
//! # }
//! ```

mod alive;
mod analysis;
mod cancel;
mod checkpoint;
mod engine;
mod error;
mod observer;
mod options;
mod parallel;
pub mod testkit;

pub use analysis::{
    analyze, analyze_checkpointed_with, analyze_delta_with, analyze_with, resume_analyze_with,
    AnalysisReport, AnalysisStats, ParallelInfo,
};
pub use cancel::CancelToken;
pub use checkpoint::{Checkpoint, CheckpointLog};
pub use error::AnalysisError;
pub use observer::{NoopObserver, Observer};
pub use options::{AnalysisOptions, InterferenceMode};
pub use parallel::{analyze_parallel, analyze_parallel_with, resume_analyze_parallel_with};
