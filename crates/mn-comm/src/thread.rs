//! The real-thread engine.
//!
//! `p` OS threads execute the same block partition of every work list
//! that the MPI ranks of the paper (and the virtual ranks of
//! [`crate::sim::SimEngine`]) would, with shared-memory "collectives"
//! (results are concatenated in rank order, so the all-gather is a
//! no-op). This engine exists to demonstrate genuine parallel
//! execution of the partitioned algorithms and to validate, with real
//! concurrency, the determinism contract: the learned network is
//! byte-identical for any thread count.
//!
//! Wall-clock phase timing plus measured per-rank busy time give the
//! same report shape as the other engines, so the bench harness can
//! drive any engine uniformly.

use crate::core::{collect_kernel, core_methods, timed, EngineCore, Event};
use crate::cost::Collective;
use crate::costmodel::{PartitionGovernor, Run};
use crate::engine::{ParEngine, SegmentBatchFn, Wire};
use crate::fault::FaultPlan;
use crate::hooks;
use crate::segments::Segments;
use mn_obs::Recorder;

/// Multi-threaded engine over `p` rank-threads.
#[derive(Debug)]
pub struct ThreadEngine {
    p: usize,
    core: EngineCore,
}

impl ThreadEngine {
    /// Engine with `p` rank-threads (`p ≥ 1`).
    pub fn new(p: usize) -> Self {
        assert!(p >= 1, "need at least one rank");
        Self {
            p,
            core: EngineCore::new(Recorder::new(p)),
        }
    }

    /// The partitioning governor (strategy, cost model, feedback
    /// state) — read access for tests and benches.
    pub fn governor(&self) -> &PartitionGovernor {
        &self.core.gov
    }

    /// Attach a deterministic fault plan (rank-0 entries apply; see
    /// [`crate::fault::FaultPlan`]). A scheduled `Kill` unwinds with
    /// [`crate::fault::InjectedCrash`] at that engine event.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.core.set_fault_plan(plan);
        self
    }

    /// Engine events counted so far (for choosing sweep fault points).
    pub fn fault_events(&self) -> u64 {
        self.core.fault_events()
    }
}

impl ParEngine for ThreadEngine {
    fn nranks(&self) -> usize {
        self.p
    }

    /// The governor plans each rank's runs (the paper's block split by
    /// default), each rank-thread runs the kernel over its runs, and
    /// the caller puts the blocks back in item order — the
    /// shared-memory analogue of the msg engine's all-gather.
    /// With one rank or at most one item the work runs inline.
    fn dist_map_segmented_batch<T: Wire>(
        &mut self,
        segments: &Segments,
        words_per_item: usize,
        f: SegmentBatchFn<'_, T>,
    ) -> Vec<T> {
        let n_items = segments.n_items();
        self.core.event(Event::Map {
            items: n_items,
            words: words_per_item,
        });
        let p = self.p;
        let plan = self.core.gov.plan(p, segments);
        let run = |runs: &[Run]| timed(|| collect_kernel(runs, f));
        let (blocks, busy): (Vec<_>, Vec<f64>) = if p == 1 || n_items <= 1 {
            (0..p).map(|rank| run(plan.runs(rank))).unzip()
        } else {
            let flight = self.core.obs.flight();
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..p)
                    .map(|rank| {
                        let (runs, flight) = (plan.runs(rank), flight.clone());
                        scope.spawn(move || {
                            hooks::install_thread_hooks(flight);
                            run(runs)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("rank thread panicked"))
                    .unzip()
            })
        };
        self.core.obs.charge_busy(&busy);
        let results = plan.reorder(blocks.into_iter().flatten().collect());
        self.core.calibrate(p, segments, results)
    }

    fn collective(&mut self, _op: Collective, words: usize) {
        // Shared memory: collectives are free, but the logical event
        // still counts (the counter contract is engine-independent).
        self.core.event(Event::Collective { words });
    }

    fn replicated(&mut self, work_units: u64) {
        // Real engines do the replicated work inline in the caller;
        // only the logical units are counted.
        self.core.event(Event::Replicated { units: work_units });
    }

    fn partition_feedback(&mut self) {
        // Measured thread busy imbalance of the current phase window.
        // Engage-only hint: wall-clock noise can pull the CostGuided
        // ratchet forward but never flips it back, and re-partitioning
        // only moves work between threads — results and counters are
        // unchanged by construction.
        let measured = self.core.phase_imbalance();
        self.core.gov.feedback(measured);
    }

    core_methods!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionStrategy;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_match_serial_for_any_thread_count() {
        let f = |i: usize| (i * 31 % 97, 1u64);
        let expected: Vec<usize> = (0..100).map(|i| f(i).0).collect();
        for p in [1usize, 2, 3, 4, 7] {
            let mut e = ThreadEngine::new(p);
            let out = e.dist_map(100, 1, &f);
            assert_eq!(out, expected, "p={p}");
        }
    }

    #[test]
    fn every_item_computed_exactly_once() {
        let counter = AtomicUsize::new(0);
        let mut e = ThreadEngine::new(4);
        let out = e.dist_map(53, 1, &|i| {
            counter.fetch_add(1, Ordering::Relaxed);
            (i, 1)
        });
        assert_eq!(out.len(), 53);
        assert_eq!(counter.load(Ordering::Relaxed), 53);
    }

    #[test]
    fn phase_report_has_wall_times() {
        let mut e = ThreadEngine::new(2);
        e.begin_phase("work");
        e.dist_map(64, 1, &|i| {
            // Small but nonzero work.
            let mut acc = 0u64;
            for k in 0..500 {
                acc = acc.wrapping_add((i as u64).wrapping_mul(k));
            }
            (acc, 1)
        });
        let r = e.report();
        assert_eq!(r.nranks, 2);
        assert_eq!(r.phases.len(), 1);
        assert!(r.phases[0].elapsed_s > 0.0);
        assert!(r.phases[0].busy_max_s >= r.phases[0].busy_avg_s);
    }

    #[test]
    fn empty_and_tiny_maps() {
        let mut e = ThreadEngine::new(8);
        let empty: Vec<usize> = e.dist_map(0, 1, &|i| (i, 1));
        assert!(empty.is_empty());
        let one = e.dist_map(1, 1, &|i| (i + 5, 1));
        assert_eq!(one, vec![5]);
    }

    #[test]
    fn every_strategy_matches_block_results() {
        let f = |i: usize| (i.wrapping_mul(2654435761) % 1013, (i as u64 % 17) + 1);
        let segments = Segments::from_lens([7usize, 1, 30, 0, 12, 3]);
        let mut reference = ThreadEngine::new(3);
        let expect_flat = reference.dist_map(53, 1, &f);
        let expect_seg = reference.dist_map_segmented(&segments, 1, &f);
        for strategy in PartitionStrategy::ALL {
            for p in [1usize, 2, 3, 5, 8] {
                let mut e = ThreadEngine::new(p);
                e.set_partition_strategy(strategy);
                assert_eq!(e.partition_strategy(), strategy);
                // Repeat so the cost model has observations on the
                // second round (exercises calibrated planning too).
                for _ in 0..2 {
                    let flat = e.dist_map(53, 1, &f);
                    assert_eq!(flat, expect_flat, "{strategy} p={p} flat");
                    let seg = e.dist_map_segmented(&segments, 1, &f);
                    assert_eq!(seg, expect_seg, "{strategy} p={p} segmented");
                    let batched = e.dist_map_segmented_batch(&segments, 1, &|_seg, range, out| {
                        out.extend(range.map(f))
                    });
                    assert_eq!(batched, expect_seg, "{strategy} p={p} batched");
                    e.partition_feedback();
                }
            }
        }
    }

    #[test]
    fn strategy_does_not_change_counters() {
        let segments = Segments::from_lens([9usize, 4, 20]);
        let mut snaps = Vec::new();
        for strategy in PartitionStrategy::ALL {
            let mut e = ThreadEngine::new(4);
            e.set_partition_strategy(strategy);
            e.begin_phase("t");
            e.dist_map(33, 2, &|i| (i, 1));
            e.dist_map_segmented_batch(&segments, 3, &|_seg, range, out| {
                out.extend(range.map(|i| (i, (i as u64 % 5) + 1)))
            });
            let _ = e.report();
            snaps.push(e.obs().snapshot(e.now_s()).counters);
        }
        for (i, snap) in snaps.iter().enumerate().skip(1) {
            assert_eq!(snap, &snaps[0], "strategy #{i} perturbed counters");
        }
    }
}
