//! The engine core: the per-event plumbing every engine shares.
//!
//! The engines differ only in how they execute a rank's share of a map
//! and how they move bytes. Everything around that — the cancellation
//! and fault-injection clock, the deterministic counters, telemetry,
//! the thread hooks, the partition governor and the phase report —
//! lives here, once. Each engine holds one [`EngineCore`] and calls
//! [`EngineCore::event`] at the top of every `dist_map*`,
//! `collective` and `replicated` call.
//!
//! There is one clock: [`EngineCore::report`] reads the
//! [`RunReport`] off the recorder's depth-1 (phase) spans, so the
//! report, the span tree and the trace cannot disagree.

use crate::cancel::{check_cancel, CancelToken};
use crate::costmodel::{PartitionGovernor, Run};
use crate::engine::{Costed, SegmentBatchFn};
use crate::fault::{FaultAction, FaultClock, FaultPlan, InjectedCrash};
use crate::hooks;
use crate::metrics::RunReport;
use crate::segments::Segments;
use mn_obs::{FlightEvent, Recorder, SnapshotStash};
use std::time::Instant;

/// One engine event, with what the deterministic counters charge for
/// it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// A `dist_map*` call over `items` (global) items of `words` words.
    Map { items: usize, words: usize },
    /// An explicit collective of `words` total payload.
    Collective { words: usize },
    /// Work of `units` units executed on every rank.
    Replicated { units: u64 },
}

/// Where [`EngineCore::now_s`] reads time from.
#[derive(Debug, Clone)]
enum Clock {
    /// Wall time since the engine was built.
    Wall(Instant),
    /// The simulated bulk-synchronous clock, advanced by the engine.
    Sim(f64),
}

/// The state every engine carries besides its execution strategy.
#[derive(Debug, Clone)]
pub(crate) struct EngineCore {
    /// Spans, counters, flight recorder and communication matrix.
    pub obs: Recorder,
    /// Partition strategy, online cost model and feedback ratchet.
    pub gov: PartitionGovernor,
    clock: Clock,
    /// Engine-event clock for deterministic fault injection. The
    /// single-process engines tick it (events attributed to rank 0);
    /// the msg engine injects at the fabric, so its plan stays empty.
    faults: FaultClock,
    /// Last-snapshot stash filled just before the engine dies (the
    /// handle is an `Arc`: clone it before `catch_unwind`).
    stash: SnapshotStash,
    /// Cooperative cancellation token, observed at every event.
    cancel: Option<CancelToken>,
}

impl EngineCore {
    /// A core on the wall clock.
    pub fn new(obs: Recorder) -> Self {
        Self::with_clock(obs, Clock::Wall(Instant::now()))
    }

    /// A core on a simulated clock starting at 0, advanced only by
    /// [`EngineCore::advance`].
    pub fn simulated(obs: Recorder) -> Self {
        Self::with_clock(obs, Clock::Sim(0.0))
    }

    fn with_clock(obs: Recorder, clock: Clock) -> Self {
        Self {
            obs,
            gov: PartitionGovernor::default(),
            clock,
            faults: FaultClock::new(FaultPlan::new(), 0),
            stash: SnapshotStash::new(),
            cancel: None,
        }
    }

    /// Replace the death stash with an externally held handle.
    pub fn with_stash(mut self, stash: SnapshotStash) -> Self {
        self.stash = stash;
        self
    }

    /// Attach a fault plan; its rank-0 entries apply to engine events.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultClock::new(plan, 0);
    }

    /// Engine events counted so far.
    pub fn fault_events(&self) -> u64 {
        self.faults.events()
    }

    /// Attach a cooperative cancellation token.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// The death stash handle.
    pub fn death_stash(&self) -> SnapshotStash {
        self.stash.clone()
    }

    /// Seconds since the engine's epoch, on its clock.
    pub fn now_s(&self) -> f64 {
        match &self.clock {
            Clock::Wall(epoch) => epoch.elapsed().as_secs_f64(),
            Clock::Sim(now) => *now,
        }
    }

    /// Advance the simulated clock (no-op on the wall clock).
    pub fn advance(&mut self, dt: f64) {
        if let Clock::Sim(now) = &mut self.clock {
            *now += dt;
        }
    }

    /// Leave a final snapshot in the death stash.
    pub fn stash_snapshot(&self) {
        self.stash.store(self.obs.snapshot(self.now_s()));
    }

    /// The per-event entry, run first by every `dist_map*`,
    /// `collective` and `replicated` call: cancel check, fault tick
    /// (a scheduled `Kill` — or `Die`, which means `Kill` off the proc
    /// transport — records the injection, stashes a final snapshot and
    /// unwinds with [`InjectedCrash`]; `Delay`/`Drop` only mean
    /// something to a fabric and are ignored), deterministic counters,
    /// telemetry, and — before a map, whose kernel may run on this
    /// thread — this thread's observability hooks.
    pub fn event(&mut self, event: Event) {
        check_cancel(self.cancel.as_ref(), self.faults.events());
        if let Some(action @ (FaultAction::Kill | FaultAction::Die)) = self.faults.tick() {
            let at = self.faults.events();
            self.obs.flight_event(FlightEvent::FaultInjected {
                action: action.label().to_string(),
                event: at,
            });
            self.stash_snapshot();
            std::panic::panic_any(InjectedCrash {
                rank: self.faults.rank(),
                event: at,
            });
        }
        match event {
            Event::Map { items, words } => self.obs.count_dist_map(items, words),
            Event::Collective { words } => self.obs.count_collective(words),
            Event::Replicated { units } => self.obs.count_replicated(units),
        }
        let now = self.now_s();
        self.obs.telemetry_tick(now);
        if let Event::Map { .. } = event {
            hooks::install_thread_hooks(self.obs.flight());
        }
    }

    /// Close any open phase and open `name`.
    pub fn begin_phase(&mut self, name: &str) {
        let now = self.now_s();
        self.obs.begin_phase(name, now);
        self.obs.telemetry_tick(now);
    }

    /// The §5.3.1 busy imbalance of the open phase, when any rank was
    /// busy in it — the measured hint of the partition feedback loop.
    pub fn phase_imbalance(&self) -> Option<f64> {
        let busy = self.obs.phase_busy();
        let max = busy.iter().copied().fold(0.0, f64::max);
        let avg = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        (avg > 0.0).then(|| (max - avg) / avg)
    }

    /// Close every span and read the phase report off the span tree.
    pub fn report(&mut self) -> RunReport {
        let now = self.now_s();
        self.obs.finish(now);
        hooks::clear_thread_hooks();
        RunReport::from_recorder(&self.obs)
    }

    /// Strip the costs off a map's item-ordered results, first feeding
    /// them to the governor if the strategy calibrates.
    pub fn calibrate<T>(
        &mut self,
        p: usize,
        segments: &Segments,
        results: Vec<Costed<T>>,
    ) -> Vec<T> {
        if !self.gov.calibrating() {
            return results.into_iter().map(|(value, _)| value).collect();
        }
        let (values, costs): (Vec<T>, Vec<u64>) = results.into_iter().unzip();
        self.gov.observe_map(p, segments, &costs);
        values
    }
}

/// Run a segment-batched kernel over `runs` (each a sub-range of one
/// segment), handing each costed result to `emit` in run order.
pub(crate) fn run_kernel<T>(
    runs: impl IntoIterator<Item = Run>,
    f: SegmentBatchFn<'_, T>,
    mut emit: impl FnMut(Costed<T>),
) {
    let mut buf = Vec::new();
    for (seg, range) in runs {
        let expect = range.len();
        buf.reserve(expect);
        f(seg, range, &mut buf);
        debug_assert_eq!(buf.len(), expect, "kernel must emit one result per item");
        buf.drain(..).for_each(&mut emit);
    }
}

/// [`run_kernel`] over one rank's runs, collecting the costed results.
pub(crate) fn collect_kernel<T>(runs: &[Run], f: SegmentBatchFn<'_, T>) -> Vec<Costed<T>> {
    let mut out = Vec::with_capacity(runs.iter().map(|(_, range)| range.len()).sum());
    run_kernel(runs.iter().cloned(), f, |result| out.push(result));
    out
}

/// `f()` and the seconds it took.
pub(crate) fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The `ParEngine` methods every engine answers from its `core` field.
macro_rules! core_methods {
    () => {
        fn begin_phase(&mut self, name: &str) {
            self.core.begin_phase(name);
        }

        fn report(&mut self) -> crate::metrics::RunReport {
            self.core.report()
        }

        fn obs(&self) -> &mn_obs::Recorder {
            &self.core.obs
        }

        fn obs_mut(&mut self) -> &mut mn_obs::Recorder {
            &mut self.core.obs
        }

        fn death_stash(&self) -> mn_obs::SnapshotStash {
            self.core.death_stash()
        }

        fn now_s(&self) -> f64 {
            self.core.now_s()
        }

        fn set_partition_strategy(&mut self, strategy: crate::partition::PartitionStrategy) {
            self.core.gov.set_strategy(strategy);
        }

        fn partition_strategy(&self) -> crate::partition::PartitionStrategy {
            self.core.gov.strategy()
        }

        fn set_cancel_token(&mut self, token: crate::cancel::CancelToken) {
            self.core.set_cancel_token(token);
        }
    };
}
pub(crate) use core_methods;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_order_is_cancel_then_fault_then_counters() {
        crate::fault::silence_injected_panics();
        let mut core = EngineCore::new(Recorder::new(1));
        core.set_fault_plan(FaultPlan::new().kill(0, 2));
        core.event(Event::Replicated { units: 3 });
        let stash = core.death_stash();
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            core.event(Event::Map { items: 4, words: 1 })
        }));
        let crash = died.unwrap_err().downcast::<InjectedCrash>().unwrap();
        assert_eq!((crash.rank, crash.event), (0, 2));
        // The dying event was not counted; the stash holds the state
        // just before it.
        let snap = stash.get().expect("stashed");
        assert_eq!(snap.counters.get("engine.replicated_units"), Some(&3));
        assert_eq!(snap.counters.get("engine.dist_maps"), None);

        // A pending cancel wins over a kill scheduled at the same event.
        let mut core = EngineCore::new(Recorder::new(1));
        core.set_fault_plan(FaultPlan::new().kill(0, 1));
        let token = CancelToken::new();
        token.cancel();
        core.set_cancel_token(token);
        let stopped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            core.event(Event::Collective { words: 1 })
        }));
        assert!(stopped.unwrap_err().is::<crate::cancel::JobCancelled>());
    }
}
