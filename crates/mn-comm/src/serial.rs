//! The single-rank engine: the optimized sequential implementation.
//!
//! Executes every work item inline and measures *real wall-clock time*
//! per phase. This is the `T₁` of the paper's strong-scaling metrics
//! ("We use the run-time of our optimized sequential implementation as
//! T₁ in all the cases", §5.3) and the engine behind Table 1 and
//! Figures 3–4. Busy time is the time spent inside map closures, so a
//! phase's replicated work shows up as elapsed − busy.

use crate::core::{core_methods, run_kernel, timed, EngineCore, Event};
use crate::cost::Collective;
use crate::engine::{ParEngine, SegmentBatchFn, Wire};
use crate::fault::FaultPlan;
use crate::segments::Segments;
use mn_obs::Recorder;

/// Sequential engine with wall-clock phase timing.
#[derive(Debug)]
pub struct SerialEngine {
    /// Total work units reported by kernels (exposed for calibration
    /// and for cross-checking SimEngine's accounting in tests).
    work_units: u64,
    /// Shared per-event plumbing. The partition strategy is recorded
    /// there but never consulted: one rank owns everything.
    core: EngineCore,
}

impl SerialEngine {
    /// New engine; phase timing starts at the first `begin_phase`.
    pub fn new() -> Self {
        Self {
            work_units: 0,
            core: EngineCore::new(Recorder::new(1)),
        }
    }

    /// Attach a deterministic fault plan. Engine events (each
    /// `dist_map*`, `collective`, or `replicated` call) are counted
    /// from 1 and attributed to rank 0; a scheduled `Kill` unwinds
    /// with [`crate::fault::InjectedCrash`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.core.set_fault_plan(plan);
        self
    }

    /// Engine events counted so far (for choosing sweep fault points).
    pub fn fault_events(&self) -> u64 {
        self.core.fault_events()
    }

    /// Work units accumulated so far.
    pub fn work_units(&self) -> u64 {
        self.work_units
    }
}

impl Default for SerialEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ParEngine for SerialEngine {
    fn nranks(&self) -> usize {
        1
    }

    fn dist_map_segmented_batch<T: Wire>(
        &mut self,
        segments: &Segments,
        words_per_item: usize,
        f: SegmentBatchFn<'_, T>,
    ) -> Vec<T> {
        self.core.event(Event::Map {
            items: segments.n_items(),
            words: words_per_item,
        });
        let mut out = Vec::with_capacity(segments.n_items());
        let work_units = &mut self.work_units;
        let ((), busy) = timed(|| {
            run_kernel(segments.iter(), f, |(value, cost)| {
                *work_units += cost;
                out.push(value);
            })
        });
        self.core.obs.charge_busy(&[busy]);
        out
    }

    fn collective(&mut self, _op: Collective, words: usize) {
        // One rank: nothing to communicate, but the logical event still
        // counts (the counter contract is engine-independent).
        self.core.event(Event::Collective { words });
    }

    fn replicated(&mut self, work_units: u64) {
        self.core.event(Event::Replicated { units: work_units });
        self.work_units += work_units;
    }

    core_methods!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_item_order() {
        let mut e = SerialEngine::new();
        let out = e.dist_map(5, 1, &|i| (10 - i, 1));
        assert_eq!(out, vec![10, 9, 8, 7, 6]);
    }

    #[test]
    fn work_units_accumulate() {
        let mut e = SerialEngine::new();
        e.dist_map(4, 1, &|i| (i, i as u64));
        assert_eq!(e.work_units(), 1 + 2 + 3);
        e.replicated(10);
        assert_eq!(e.work_units(), 16);
    }

    #[test]
    fn phases_are_recorded_in_order() {
        let mut e = SerialEngine::new();
        e.begin_phase("a");
        e.dist_map(10, 1, &|i| (i, 1));
        e.begin_phase("b");
        e.dist_map(10, 1, &|i| (i, 1));
        let r = e.report();
        assert_eq!(r.nranks, 1);
        assert_eq!(r.phases.len(), 2);
        assert_eq!(r.phases[0].name, "a");
        assert_eq!(r.phases[1].name, "b");
        assert!(r.phases.iter().all(|p| p.comm_s == 0.0));
        assert!(r.phases.iter().all(|p| p.elapsed_s >= 0.0));
    }

    #[test]
    fn work_without_phase_is_tolerated() {
        let mut e = SerialEngine::new();
        e.dist_map(3, 1, &|i| (i, 1));
        let r = e.report();
        assert!(r.phases.is_empty());
    }

    #[test]
    fn empty_map_is_empty() {
        let mut e = SerialEngine::new();
        let out: Vec<usize> = e.dist_map(0, 1, &|i| (i, 1));
        assert!(out.is_empty());
    }
}
