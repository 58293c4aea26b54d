//! The traced run: a timing [`ParEngine`] wrapper and the pipeline
//! driven stage by stage through the crates' public functions.
//!
//! [`Timed`] forwards every method to the engine it wraps. Each
//! `dist_map*` and `collective` call becomes a child span of the current
//! stage, and the work closure handed to `dist_map*` is timed on every
//! thread that runs it, so a map's time splits into the busiest
//! thread's work and the rest (fork/join, exchange, waiting). Spans are
//! kept in memory and written by the caller at exit. Nothing inside the
//! program changes: the traced network is byte-identical to the
//! untraced one.

use monet::learn::phases;
use monet::mn_comm::{
    spmd_run, CancelToken, Collective, Costed, ParEngine, PartitionStrategy, Recorder, RunReport,
    SegmentBatchFn, Segments, SerialEngine, ThreadEngine, Wire,
};
use monet::mn_data::Dataset;
use monet::mn_obs::SnapshotStash;
use monet::mn_rand::MasterRng;
use monet::mn_tree::{assign_splits, learn_module_trees, learn_parents};
use monet::stages::{run_consensus, run_ganesh};
use monet::{LearnerConfig, Module, ModuleNetwork};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::ops::Range;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Stage name, `dist_map*` or `collective`.
    pub name: &'static str,
    /// Seconds since the run's epoch.
    pub start_s: f64,
    /// Seconds since the run's epoch.
    pub end_s: f64,
    /// Index of the enclosing span in the same rank's list.
    pub parent: Option<usize>,
}

/// Per-stage totals of one rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageStat {
    /// Wall time of the stage.
    pub elapsed_s: f64,
    /// Closure time inside `dist_map_segmented_batch`, summed over
    /// threads: the segment-batched kernels' total work.
    pub batch_kernel_s: f64,
}

/// The stages of the pipeline, in the order `monet::stages` runs them.
pub const STAGES: [&str; 5] = ["ganesh", "consensus", "trees", "assign_splits", "parents"];

/// One rank's trace.
#[derive(Debug, Clone)]
pub struct Trace {
    epoch: Instant,
    /// All spans, in opening order.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    stage: Option<usize>,
    /// Totals per entry of [`STAGES`].
    pub stages: [StageStat; 5],
    /// (map_s, work_s) of every `dist_map*` call, in call order.
    pub maps: Vec<(f64, f64)>,
}

impl Trace {
    /// An empty trace whose times count from `epoch`.
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            stage: None,
            stages: Default::default(),
            maps: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn open(&mut self, name: &'static str) {
        let id = self.spans.len();
        let now = self.now();
        self.spans.push(Span {
            name,
            start_s: now,
            end_s: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
    }

    fn close(&mut self) -> f64 {
        let id = self.stack.pop().expect("span stack is balanced");
        let now = self.now();
        let span = &mut self.spans[id];
        span.end_s = now;
        span.end_s - span.start_s
    }

    fn record_map(&mut self, elapsed: f64, work: &Work, batch: bool) {
        self.maps.push((elapsed, work.busiest()));
        if let (true, Some(s)) = (batch, self.stage) {
            self.stages[s].batch_kernel_s += work.total();
        }
    }
}

/// Time `f` as stage `STAGES[index]`.
fn stage<'a, E: ParEngine, R>(
    t: &mut Timed<'a, E>,
    index: usize,
    f: impl FnOnce(&mut Timed<'a, E>) -> R,
) -> R {
    t.trace.stage = Some(index);
    t.trace.open(STAGES[index]);
    let out = f(t);
    t.trace.stages[index].elapsed_s += t.trace.close();
    t.trace.stage = None;
    out
}

/// Closure time per thread during one `dist_map*` call.
#[derive(Default)]
struct Work {
    per_thread: Mutex<Vec<(ThreadId, f64)>>,
}

impl Work {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let dt = start.elapsed().as_secs_f64();
        let id = std::thread::current().id();
        let mut slots = self.per_thread.lock().expect("work slots lock");
        match slots.iter_mut().find(|(t, _)| *t == id) {
            Some(slot) => slot.1 += dt,
            None => slots.push((id, dt)),
        }
        out
    }

    fn busiest(&self) -> f64 {
        let slots = self.per_thread.lock().expect("work slots lock");
        slots.iter().map(|&(_, s)| s).fold(0.0, f64::max)
    }

    fn total(&self) -> f64 {
        let slots = self.per_thread.lock().expect("work slots lock");
        slots.iter().map(|&(_, s)| s).sum()
    }
}

/// A [`ParEngine`] that forwards every method to `inner` and records
/// spans and closure times in [`Timed::trace`].
pub struct Timed<'a, E: ParEngine> {
    inner: &'a mut E,
    /// What has been recorded so far.
    pub trace: Trace,
}

impl<'a, E: ParEngine> Timed<'a, E> {
    /// Wrap `inner`, timing from `epoch`.
    pub fn new(inner: &'a mut E, epoch: Instant) -> Self {
        Timed {
            inner,
            trace: Trace::new(epoch),
        }
    }
}

impl<E: ParEngine> ParEngine for Timed<'_, E> {
    fn nranks(&self) -> usize {
        self.inner.nranks()
    }

    fn dist_map<T: Wire>(
        &mut self,
        n_items: usize,
        words_per_item: usize,
        f: &(dyn Fn(usize) -> Costed<T> + Sync),
    ) -> Vec<T> {
        let work = Work::default();
        self.trace.open("dist_map");
        let out = self
            .inner
            .dist_map(n_items, words_per_item, &|i| work.time(|| f(i)));
        let elapsed = self.trace.close();
        self.trace.record_map(elapsed, &work, false);
        out
    }

    fn dist_map_segmented<T: Wire>(
        &mut self,
        segments: &Segments,
        words_per_item: usize,
        f: &(dyn Fn(usize) -> Costed<T> + Sync),
    ) -> Vec<T> {
        let work = Work::default();
        self.trace.open("dist_map_segmented");
        let out = self
            .inner
            .dist_map_segmented(segments, words_per_item, &|i| work.time(|| f(i)));
        let elapsed = self.trace.close();
        self.trace.record_map(elapsed, &work, false);
        out
    }

    fn dist_map_segmented_batch<T: Wire>(
        &mut self,
        segments: &Segments,
        words_per_item: usize,
        f: SegmentBatchFn<'_, T>,
    ) -> Vec<T> {
        let work = Work::default();
        self.trace.open("dist_map_segmented_batch");
        let timed =
            |s: usize, r: Range<usize>, out: &mut Vec<Costed<T>>| work.time(|| f(s, r, out));
        let out = self
            .inner
            .dist_map_segmented_batch(segments, words_per_item, &timed);
        let elapsed = self.trace.close();
        self.trace.record_map(elapsed, &work, true);
        out
    }

    fn collective(&mut self, op: Collective, words: usize) {
        self.trace.open("collective");
        self.inner.collective(op, words);
        self.trace.close();
    }

    fn replicated(&mut self, work_units: u64) {
        self.inner.replicated(work_units)
    }

    fn begin_phase(&mut self, name: &str) {
        self.inner.begin_phase(name)
    }

    fn report(&mut self) -> RunReport {
        self.inner.report()
    }

    fn obs(&self) -> &Recorder {
        self.inner.obs()
    }

    fn obs_mut(&mut self) -> &mut Recorder {
        self.inner.obs_mut()
    }

    fn death_stash(&self) -> SnapshotStash {
        self.inner.death_stash()
    }

    fn now_s(&self) -> f64 {
        self.inner.now_s()
    }

    fn span_enter(&mut self, name: &str) {
        self.inner.span_enter(name)
    }

    fn span_exit(&mut self) {
        self.inner.span_exit()
    }

    fn count(&mut self, counter: &str, by: u64) {
        self.inner.count(counter, by)
    }

    fn io_rank(&self) -> bool {
        self.inner.io_rank()
    }

    fn set_partition_strategy(&mut self, strategy: PartitionStrategy) {
        self.inner.set_partition_strategy(strategy)
    }

    fn partition_strategy(&self) -> PartitionStrategy {
        self.inner.partition_strategy()
    }

    fn partition_feedback(&mut self) {
        self.inner.partition_feedback()
    }

    fn set_cancel_token(&mut self, token: CancelToken) {
        self.inner.set_cancel_token(token)
    }

    fn io_barrier(&mut self) {
        self.inner.io_barrier()
    }
}

/// Learn `data` on `t` stage by stage, as `monet::stages` composes the
/// pipeline: GaneSH, consensus, one `learn_module_trees` per module,
/// split assignment, parent scoring, then network assembly.
pub fn staged_learn<E: ParEngine>(
    t: &mut Timed<'_, E>,
    data: &Dataset,
    config: &LearnerConfig,
) -> ModuleNetwork {
    let config = config
        .clone()
        .validated()
        .expect("benchmark configs are valid");
    let master = MasterRng::new(config.seed);
    let ganesh = stage(t, 0, |t| run_ganesh(t, data, &config));
    let consensus = stage(t, 1, |t| run_consensus(t, data, &config, &ganesh));
    t.begin_phase(phases::MODULES);
    let ensembles: Vec<_> = stage(t, 2, |t| {
        consensus
            .modules
            .iter()
            .enumerate()
            .map(|(k, vars)| learn_module_trees(t, data, &master, k, vars, &config.tree))
            .collect()
    });
    let parents_list = config.resolved_parents(data.n_vars());
    let assignment = stage(t, 3, |t| {
        assign_splits(t, data, &master, &ensembles, &parents_list, &config.tree)
    });
    let parents = stage(t, 4, |t| learn_parents(t, &ensembles, &assignment));

    let mut var_assignment: Vec<Option<usize>> = vec![None; data.n_vars()];
    let mut modules = Vec::with_capacity(ensembles.len());
    for ((k, ensemble), parents) in ensembles.into_iter().enumerate().zip(parents) {
        for &v in &ensemble.vars {
            var_assignment[v] = Some(k);
        }
        modules.push(Module {
            index: k,
            vars: ensemble.vars.clone(),
            ensemble,
            parents,
        });
    }
    ModuleNetwork {
        var_names: data.var_names.clone(),
        modules,
        assignment: var_assignment,
        seed: config.seed,
    }
}

/// Engines the traced run covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracedEngine {
    /// `serial`
    Serial,
    /// `threads:2`
    Threads2,
    /// `msg:2`, every rank wrapped.
    Msg2,
}

impl TracedEngine {
    /// All of them, in report order.
    pub const ALL: [TracedEngine; 3] = [
        TracedEngine::Serial,
        TracedEngine::Threads2,
        TracedEngine::Msg2,
    ];

    /// Metric-name suffix.
    pub fn key(self) -> &'static str {
        match self {
            TracedEngine::Serial => "serial",
            TracedEngine::Threads2 => "threads2",
            TracedEngine::Msg2 => "msg2",
        }
    }
}

/// One traced learn.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// `monet::to_json` of the network (rank 0's on msg).
    pub json: String,
    /// Engine creation to network assembled, seconds.
    pub wall_s: f64,
    /// One trace per rank (one for the shared-memory engines).
    pub ranks: Vec<Trace>,
    /// The deterministic counters after the run (rank 0's on msg).
    pub counters: BTreeMap<String, u64>,
    /// Every rank learned the same bytes.
    pub ranks_agree: bool,
}

/// The engine-wide totals of a traced run, across ranks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommTotals {
    /// `dist_map*` calls.
    pub maps: u64,
    /// Time inside `dist_map*`: the slowest rank's total.
    pub map_s: f64,
    /// Per map, the busiest thread of any rank, summed over maps.
    pub work_s: f64,
}

impl TracedRun {
    /// Stage `index`'s wall time: the slowest rank's.
    pub fn stage_s(&self, index: usize) -> f64 {
        self.ranks
            .iter()
            .map(|t| t.stages[index].elapsed_s)
            .fold(0.0, f64::max)
    }

    /// Total segment-batched kernel time in stage `index`, all ranks.
    pub fn batch_kernel_s(&self, index: usize) -> f64 {
        self.ranks
            .iter()
            .map(|t| t.stages[index].batch_kernel_s)
            .sum()
    }

    /// Map totals combined across ranks (maps are replicated control
    /// flow, so call `k` is the same map on every rank).
    pub fn comm(&self) -> CommTotals {
        let n = self.ranks.iter().map(|t| t.maps.len()).min().unwrap_or(0);
        let work_s = (0..n)
            .map(|k| self.ranks.iter().map(|t| t.maps[k].1).fold(0.0, f64::max))
            .sum();
        let map_s = self
            .ranks
            .iter()
            .map(|t| t.maps.iter().map(|m| m.0).sum::<f64>())
            .fold(0.0, f64::max);
        CommTotals {
            maps: n as u64,
            map_s,
            work_s,
        }
    }

    /// Share of the learn's wall time outside every timed stage.
    pub fn unattributed_frac(&self) -> f64 {
        let staged = (0..STAGES.len()).map(|i| self.stage_s(i)).sum::<f64>();
        1.0 - staged / self.wall_s
    }

    /// Write every rank's spans as JSON lines tagged with `tag`.
    pub fn write_spans(&self, out: &mut impl Write, tag: &str) -> io::Result<()> {
        for (rank, trace) in self.ranks.iter().enumerate() {
            for (id, s) in trace.spans.iter().enumerate() {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                writeln!(
                    out,
                    "{{\"run\":\"{tag}\",\"rank\":{rank},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
                    s.name, s.start_s, s.end_s
                )?;
            }
        }
        Ok(())
    }
}

fn finish<E: ParEngine>(
    t: Timed<'_, E>,
    network: &ModuleNetwork,
) -> (String, Trace, BTreeMap<String, u64>) {
    let counters = t.obs().counters().clone();
    (monet::to_json(network), t.trace, counters)
}

/// Learn `data` under `config` on `engine`, traced.
pub fn run_traced(engine: TracedEngine, data: &Dataset, config: &LearnerConfig) -> TracedRun {
    let epoch = Instant::now();
    let ranks: Vec<(String, Trace, BTreeMap<String, u64>)> = match engine {
        TracedEngine::Serial => {
            let mut e = SerialEngine::new();
            let mut t = Timed::new(&mut e, epoch);
            let network = staged_learn(&mut t, data, config);
            vec![finish(t, &network)]
        }
        TracedEngine::Threads2 => {
            let mut e = ThreadEngine::new(2);
            let mut t = Timed::new(&mut e, epoch);
            let network = staged_learn(&mut t, data, config);
            vec![finish(t, &network)]
        }
        TracedEngine::Msg2 => spmd_run(2, |e| {
            let mut t = Timed::new(e, epoch);
            let network = staged_learn(&mut t, data, config);
            finish(t, &network)
        }),
    };
    let wall_s = epoch.elapsed().as_secs_f64();
    let ranks_agree = ranks.windows(2).all(|w| w[0].0 == w[1].0);
    let mut ranks = ranks.into_iter();
    let (json, first, counters) = ranks.next().expect("at least one rank");
    let mut traces = vec![first];
    traces.extend(ranks.map(|(_, trace, _)| trace));
    TracedRun {
        json,
        wall_s,
        ranks: traces,
        counters,
        ranks_agree,
    }
}
