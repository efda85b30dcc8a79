//! Shared bookkeeping for the alive set `A` of Algorithm 1, used by the
//! scanning cursor of [`crate::analyze`] and the parallel layer engine of
//! [`crate::analyze_parallel`].
//!
//! # Slots, not tasks
//!
//! The alive set holds at most one task per core, so the bookkeeping
//! lives in **per-core slots** ([`AliveSlot`]) that are allocated once at
//! the start of an analysis and reused for every task the core executes.
//! All per-task state — per-bank interference, the merged interferer
//! demands ([`DemandMerge`]), the accounted-pairs set — is stored in
//! dense generation-stamped buffers: opening a task on a slot is O(1) and
//! the analysis hot path performs **no heap allocation at all** after the
//! slots are built. (The previous design rebuilt a `BTreeMap` +
//! `Vec<InterfererDemand>` per task pair, which dominated the allocator
//! beyond ~10k tasks.)
//!
//! # Destination-major accounting
//!
//! When the cursor opens tasks at an instant, every (destination,
//! source) pair of alive tasks must be accounted exactly once
//! (Algorithm 1, lines 17–23). [`account_newly`] performs that phase
//! **grouped by destination slot**: each destination's updates depend
//! only on its own slot plus the immutable problem, so destinations are
//! independent of each other. That grouping is what makes the parallel
//! engine possible — the alive set at an instant is an anti-chain (a
//! "layer") of the DAG, and each of its members can be updated by a
//! different worker — while keeping the per-destination source order
//! *identical* to the sequential pair order, so results are bit-exact in
//! every mode.

use mia_model::arbiter::Arbiter;
use mia_model::scratch::DemandMerge;
use mia_model::{BankId, CoreId, Cycles, Problem, TaskId};

use crate::checkpoint::SlotSnapshot;
use crate::{AnalysisStats, InterferenceMode, Observer};

/// Per-core bookkeeping slot for the alive task currently executing on
/// that core (if any). See the [module documentation](self).
pub(crate) struct AliveSlot {
    core: CoreId,
    /// True while a task occupies the slot.
    pub(crate) busy: bool,
    /// The occupying task (meaningless while `!busy`).
    pub(crate) task: TaskId,
    /// Its fixed release date.
    pub(crate) release: Cycles,
    /// Total interference across banks accumulated so far.
    pub(crate) total_inter: Cycles,
    /// Bumped on every open; stamps below recognise stale entries.
    generation: u32,
    /// Interference per bank (`τ.interferences[b]`), generation-stamped.
    bank_inter: Vec<Cycles>,
    bank_stamp: Vec<u32>,
    /// Aggregated interferer demand per bank and core
    /// (`τ.interfers_with[b]`, merged per core following §II.C).
    merge: DemandMerge,
    /// Generation stamp per task id: the accounted-pairs set.
    accounted: Vec<u32>,
}

impl AliveSlot {
    /// Creates an empty slot for `core` on a `banks × cores` platform
    /// analysing `tasks` tasks. All buffers are sized here, once.
    pub(crate) fn new(core: CoreId, banks: usize, cores: usize, tasks: usize) -> Self {
        AliveSlot {
            core,
            busy: false,
            task: TaskId(0),
            release: Cycles::ZERO,
            total_inter: Cycles::ZERO,
            generation: 1,
            bank_inter: vec![Cycles::ZERO; banks],
            bank_stamp: vec![0; banks],
            merge: DemandMerge::new(banks, cores),
            accounted: vec![0; tasks],
        }
    }

    /// Builds one slot per core for `problem`.
    pub(crate) fn for_problem(problem: &Problem) -> Vec<AliveSlot> {
        let cores = problem.mapping().cores();
        let banks = problem.platform().banks();
        let tasks = problem.len();
        (0..cores)
            .map(|c| AliveSlot::new(CoreId::from_index(c), banks, cores, tasks))
            .collect()
    }

    /// Occupies the slot with `task` released at `release`; O(1).
    pub(crate) fn open(&mut self, task: TaskId, release: Cycles) {
        debug_assert!(!self.busy, "core {} already busy", self.core);
        if self.generation == u32::MAX {
            self.generation = 0;
            self.bank_stamp.iter_mut().for_each(|s| *s = 0);
            self.accounted.iter_mut().for_each(|s| *s = 0);
        }
        self.generation += 1;
        self.busy = true;
        self.task = task;
        self.release = release;
        self.total_inter = Cycles::ZERO;
        self.merge.reset();
    }

    /// Releases the slot; its buffers are reused by the next open.
    pub(crate) fn close(&mut self) {
        self.busy = false;
    }

    /// Freezes the busy slot's interference state for a checkpoint. Only
    /// current-generation entries are captured; the accounted-pairs set is
    /// deliberately *not* part of the snapshot — every source task enters
    /// the alive set exactly once per run, so a source accounted in the
    /// prefix can never be offered to this destination again in the
    /// resumed suffix, and within one accounting call the fresh
    /// generation installed by [`AliveSlot::restore`] deduplicates as
    /// usual.
    pub(crate) fn snapshot(&self) -> SlotSnapshot {
        debug_assert!(self.busy, "snapshotting an empty slot");
        SlotSnapshot {
            task: self.task,
            release: self.release,
            total_inter: self.total_inter,
            bank_inter: self
                .bank_stamp
                .iter()
                .enumerate()
                .filter(|&(_, &stamp)| stamp == self.generation)
                .map(|(bank, _)| (BankId::from_index(bank), self.bank_inter[bank]))
                .collect(),
            merge: self.merge.export(),
        }
    }

    /// Re-occupies a fresh slot from a checkpoint snapshot, as if the
    /// recorded prefix had opened the task and accounted its interferers
    /// here.
    pub(crate) fn restore(&mut self, snap: &SlotSnapshot) {
        self.open(snap.task, snap.release);
        self.total_inter = snap.total_inter;
        for &(bank, inter) in &snap.bank_inter {
            self.bank_inter_set(bank, inter);
        }
        self.merge.restore(&snap.merge);
    }

    /// Accounts `src_task` (alive on `src_core`) as an interferer of this
    /// slot's task — one direction of Algorithm 1's lines 17–23. A pair
    /// already accounted is skipped (line 21's membership test).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn account<A, O>(
        &mut self,
        problem: &Problem,
        arbiter: &A,
        mode: InterferenceMode,
        access: Cycles,
        src_task: TaskId,
        src_core: CoreId,
        observer: &mut O,
        stats: &mut AnalysisStats,
    ) where
        A: Arbiter + ?Sized,
        O: Observer + ?Sized,
    {
        debug_assert!(self.busy, "accounting on an empty slot");
        if self.accounted[src_task.index()] == self.generation {
            return;
        }
        self.accounted[src_task.index()] = self.generation;
        stats.pairs_considered += 1;

        let dest_demand = problem.demand(self.task);
        let src_demand = problem.demand(src_task);
        for (bank, d_src) in src_demand.iter() {
            let d_dest = dest_demand.get(bank);
            if d_dest == 0 {
                continue; // no shared bank: no interference (line 20)
            }
            match mode {
                InterferenceMode::AggregateByCore => {
                    // Merge into the per-core "single big task" and
                    // re-evaluate IBUS on the whole set (supports
                    // non-additive arbiters).
                    self.merge.add(bank, src_core, d_src);
                    let new_inter = arbiter.bank_interference(
                        self.core,
                        d_dest,
                        self.merge.bank_set(bank),
                        access,
                    );
                    stats.ibus_calls += 1;
                    let old = self.bank_inter_get(bank);
                    self.bank_inter_set(bank, new_inter);
                    // Monotonicity is an arbiter contract; clamp
                    // defensively so a faulty arbiter cannot make the
                    // accounting underflow.
                    let new_inter = new_inter.max(old);
                    self.total_inter = self.total_inter + new_inter - old;
                }
                InterferenceMode::PairwiseAdditive => {
                    let delta = arbiter.bank_interference(
                        self.core,
                        d_dest,
                        &[mia_model::arbiter::InterfererDemand {
                            core: src_core,
                            accesses: d_src,
                        }],
                        access,
                    );
                    stats.ibus_calls += 1;
                    let old = self.bank_inter_get(bank);
                    self.bank_inter_set(bank, old + delta);
                    self.total_inter += delta;
                }
            }
            observer.on_interference(self.task, bank, self.total_inter);
        }
    }

    #[inline]
    fn bank_inter_get(&self, bank: BankId) -> Cycles {
        if self.bank_stamp[bank.index()] == self.generation {
            self.bank_inter[bank.index()]
        } else {
            Cycles::ZERO
        }
    }

    #[inline]
    fn bank_inter_set(&mut self, bank: BankId, value: Cycles) {
        self.bank_stamp[bank.index()] = self.generation;
        self.bank_inter[bank.index()] = value;
    }
}

/// The source order [`account_newly`] uses for one destination: first the
/// newly opened tasks on lower-numbered cores, then — only when the
/// destination itself just opened — every other alive core in ascending
/// order. This is exactly the per-destination subsequence of the
/// sequential pair order of Algorithm 1's lines 17–23, so accounting
/// destinations in any order (or in parallel) yields bit-identical slots.
#[allow(clippy::too_many_arguments)]
pub(crate) fn account_destination<A, O>(
    problem: &Problem,
    arbiter: &A,
    mode: InterferenceMode,
    access: Cycles,
    dest: &mut AliveSlot,
    dest_idx: usize,
    dest_is_new: bool,
    newly: &[usize],
    occupants: &[Option<TaskId>],
    observer: &mut O,
    stats: &mut AnalysisStats,
) where
    A: Arbiter + ?Sized,
    O: Observer + ?Sized,
{
    if dest_is_new {
        for &n in newly.iter().take_while(|&&n| n < dest_idx) {
            let src = occupants[n].expect("newly opened core is occupied");
            dest.account(
                problem,
                arbiter,
                mode,
                access,
                src,
                CoreId::from_index(n),
                observer,
                stats,
            );
        }
        for (other, occ) in occupants.iter().enumerate() {
            let Some(src) = *occ else { continue };
            if other == dest_idx {
                continue;
            }
            dest.account(
                problem,
                arbiter,
                mode,
                access,
                src,
                CoreId::from_index(other),
                observer,
                stats,
            );
        }
    } else {
        for &n in newly {
            if n == dest_idx {
                continue;
            }
            let src = occupants[n].expect("newly opened core is occupied");
            dest.account(
                problem,
                arbiter,
                mode,
                access,
                src,
                CoreId::from_index(n),
                observer,
                stats,
            );
        }
    }
}

/// Runs the interference phase of one cursor step: accounts every pair
/// involving a newly opened task, destination by destination.
///
/// `newly` must be ascending (the open loop produces it that way).
/// `occupants` is refreshed in place from the slots.
#[allow(clippy::too_many_arguments)]
pub(crate) fn account_newly<A, O>(
    problem: &Problem,
    arbiter: &A,
    mode: InterferenceMode,
    access: Cycles,
    slots: &mut [AliveSlot],
    newly: &[usize],
    occupants: &mut Vec<Option<TaskId>>,
    observer: &mut O,
    stats: &mut AnalysisStats,
) where
    A: Arbiter + ?Sized,
    O: Observer + ?Sized,
{
    if newly.is_empty() {
        return;
    }
    debug_assert!(newly.windows(2).all(|w| w[0] < w[1]), "newly not ascending");
    occupants.clear();
    occupants.extend(slots.iter().map(|s| s.busy.then_some(s.task)));

    for (dest_idx, dest) in slots.iter_mut().enumerate() {
        if !dest.busy {
            continue;
        }
        let dest_is_new = newly.binary_search(&dest_idx).is_ok();
        account_destination(
            problem,
            arbiter,
            mode,
            access,
            dest,
            dest_idx,
            dest_is_new,
            newly,
            occupants,
            observer,
            stats,
        );
    }
}
