//! Online per-item cost model and the partition governor.
//!
//! §5.3.1 observes that "the time required for this phase cannot be
//! estimated a priori and varies significantly across splits" — which
//! is exactly why the paper's block split leaves imbalance on the
//! table, and why a *dynamic* strategy needs a predictor: a real
//! engine must choose owners **before** any rank executes an item, so
//! it cannot use true per-item costs the way the sim engine's oracle
//! strategies do.
//!
//! The workaround this module implements: every engine already charges
//! measured per-item work units (the `Costed<T>` contract), and those
//! units are deterministic functions of the item — identical on every
//! engine and rank count. [`ItemCostModel`] calibrates online from
//! them, keyed by the one feature the engine can see before executing
//! (the item's segment length, which dominates both the split-scoring
//! cost `(1 + s_eff)·n·COST_CELL` and the Gibbs tile costs), and
//! predicts the next map's per-item cost. [`PartitionGovernor`] turns
//! those predictions into owner assignments for the configured
//! [`PartitionStrategy`] and runs the imbalance-feedback loop:
//! [`PartitionStrategy::CostGuided`] stays on the paper's block split
//! until the measured §5.3.1 imbalance of that split crosses
//! [`ENGAGE_THRESHOLD`], then switches to LPT packing over predicted
//! costs.
//!
//! Determinism: predictions feed only the owner *assignment*; results
//! are assembled in item order and the RNG streams are item-keyed, so
//! no assignment can change the learned network (DESIGN.md §14). On
//! the message engine every rank must still compute the *same*
//! assignment — guaranteed because calibration inputs are the gathered
//! global per-item units (replicated) and the feedback ratchet uses
//! only those deterministic unit-domain statistics there.

use crate::partition::{
    assign_owners, block_owners, block_range, load_imbalance, rank_loads, PartitionStrategy,
};
use crate::segments::Segments;
use std::collections::BTreeMap;
use std::ops::Range;

/// Online predictor of per-item work units, keyed by segment length.
///
/// Per observed segment length the model keeps the running mean of the
/// measured units; prediction is that mean, falling back to the global
/// mean for unseen lengths and to `1` (uniform) when cold. Integer
/// state only — the model must evolve identically on every engine and
/// rank.
#[derive(Debug, Clone, Default)]
pub struct ItemCostModel {
    /// Per segment length: `(items observed, total units)`.
    by_len: BTreeMap<usize, (u64, u128)>,
    items: u64,
    units: u128,
}

impl ItemCostModel {
    /// A cold model: predicts uniform cost `1` everywhere.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one item's measured units, observed in a segment of
    /// `seg_len` items.
    pub fn observe(&mut self, seg_len: usize, units: u64) {
        let slot = self.by_len.entry(seg_len).or_insert((0, 0));
        slot.0 += 1;
        slot.1 += u128::from(units);
        self.items += 1;
        self.units += u128::from(units);
    }

    /// Predicted work units of one item in a segment of `seg_len`
    /// items. Never zero, so the dynamic strategies keep a total order
    /// on loads.
    pub fn predict(&self, seg_len: usize) -> u64 {
        if let Some(&(k, total)) = self.by_len.get(&seg_len) {
            if k > 0 {
                return ((total / u128::from(k)) as u64).max(1);
            }
        }
        if self.items > 0 {
            ((self.units / u128::from(self.items)) as u64).max(1)
        } else {
            1
        }
    }

    /// Predicted per-item costs for a whole segmented list.
    pub fn predict_items(&self, segments: &Segments) -> Vec<u64> {
        let mut out = vec![1u64; segments.n_items()];
        for (_, range) in segments.iter() {
            let c = self.predict(range.len());
            out[range].fill(c);
        }
        out
    }

    /// Items observed so far.
    pub fn observations(&self) -> u64 {
        self.items
    }

    /// True until the first observation.
    pub fn is_cold(&self) -> bool {
        self.items == 0
    }
}

/// §5.3.1 imbalance above which [`PartitionStrategy::CostGuided`]
/// abandons the block split for LPT packing.
pub const ENGAGE_THRESHOLD: f64 = 0.10;

/// EWMA weight of the newest map's block-imbalance observation.
const EWMA_ALPHA: f64 = 0.5;

/// Per-engine partitioning state: the configured strategy, the online
/// cost model, and the imbalance-feedback ratchet.
#[derive(Debug, Clone)]
pub struct PartitionGovernor {
    strategy: PartitionStrategy,
    model: ItemCostModel,
    /// EWMA of the §5.3.1 imbalance the *block* split would have had
    /// on recent maps (computed counterfactually from measured units,
    /// whatever assignment actually ran — so engagement cannot
    /// oscillate once LPT flattens the realized imbalance).
    block_imbalance: f64,
    maps_observed: u64,
    engaged: bool,
}

impl Default for PartitionGovernor {
    fn default() -> Self {
        Self::new(PartitionStrategy::Block)
    }
}

impl PartitionGovernor {
    /// Governor for the given strategy, with a cold model.
    pub fn new(strategy: PartitionStrategy) -> Self {
        Self {
            strategy,
            model: ItemCostModel::new(),
            block_imbalance: 0.0,
            maps_observed: 0,
            engaged: false,
        }
    }

    /// The configured strategy.
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// Reconfigure the strategy; calibration state is kept (the cost
    /// model is strategy-independent).
    pub fn set_strategy(&mut self, strategy: PartitionStrategy) {
        self.strategy = strategy;
    }

    /// The calibrated cost model.
    pub fn model(&self) -> &ItemCostModel {
        &self.model
    }

    /// Whether the CostGuided feedback loop has engaged LPT packing.
    pub fn engaged(&self) -> bool {
        self.engaged
    }

    /// EWMA of the counterfactual block-split imbalance (§5.3.1, work
    /// units domain).
    pub fn block_imbalance(&self) -> f64 {
        self.block_imbalance
    }

    /// Whether maps under the configured strategy feed their measured
    /// per-item units back into the model ([`Self::observe_map`]).
    /// Every strategy but the plain block split does: on the msg
    /// engine that means shipping costed `(T, u64)` pairs, so the
    /// calibration inputs replicate to every rank.
    pub fn calibrating(&self) -> bool {
        self.strategy != PartitionStrategy::Block
    }

    /// The plan for an upcoming map of `segments` over `p` ranks. The
    /// block split is one plan among the others, and CostGuided plans
    /// it too until the feedback loop engages.
    pub fn plan(&self, p: usize, segments: &Segments) -> Plan {
        let n = segments.n_items();
        let owners = match self.strategy {
            PartitionStrategy::Block => return Plan::block(p, segments),
            // Cost-independent: identical owners on every engine.
            PartitionStrategy::SegmentOwner => {
                assign_owners(self.strategy, p, &vec![1u64; n], segments)
            }
            PartitionStrategy::SelfScheduling => {
                let predicted = self.model.predict_items(segments);
                assign_owners(self.strategy, p, &predicted, segments)
            }
            PartitionStrategy::CostGuided => {
                if !self.engaged || self.model.is_cold() {
                    return Plan::block(p, segments);
                }
                let predicted = self.model.predict_items(segments);
                assign_owners(self.strategy, p, &predicted, segments)
            }
        };
        Plan::from_owners(p, owners, segments)
    }

    /// Record the realized per-item units of a strategy-mode map:
    /// calibrates the model and advances the counterfactual block
    /// imbalance that drives CostGuided engagement. Must be fed the
    /// *global* cost vector (identical on every rank).
    pub fn observe_map(&mut self, p: usize, segments: &Segments, costs: &[u64]) {
        debug_assert_eq!(costs.len(), segments.n_items());
        for (_, range) in segments.iter() {
            let len = range.len();
            for i in range {
                self.model.observe(len, costs[i]);
            }
        }
        if costs.is_empty() || p <= 1 {
            return;
        }
        let block = block_owners(costs.len(), p);
        let imb = load_imbalance(&rank_loads(p, &block, costs));
        self.maps_observed += 1;
        self.block_imbalance = if self.maps_observed == 1 {
            imb
        } else {
            EWMA_ALPHA * imb + (1.0 - EWMA_ALPHA) * self.block_imbalance
        };
        if self.block_imbalance > ENGAGE_THRESHOLD {
            self.engaged = true;
        }
    }

    /// The imbalance-feedback hook (§5.3.1), called between GaneSH
    /// runs and split-selection rounds. `measured_imbalance` is the
    /// engine's own busy-time imbalance for the elapsed window, when
    /// the engine has a replicated view of it (single-process engines;
    /// the msg engine passes `None` because each rank only measures
    /// its own busy time and the decision must be identical on every
    /// rank). Engagement is a ratchet: feedback can engage LPT, never
    /// disengage it — re-partitioning only ever moves *toward* the
    /// balanced assignment, so the loop cannot oscillate.
    pub fn feedback(&mut self, measured_imbalance: Option<f64>) {
        if let Some(m) = measured_imbalance {
            if m > ENGAGE_THRESHOLD {
                self.engaged = true;
            }
        }
        if self.block_imbalance > ENGAGE_THRESHOLD {
            self.engaged = true;
        }
    }
}

/// One kernel call's worth of work: a sub-range of one segment.
pub type Run = (usize, Range<usize>);

/// Who computes what in one map: each rank's runs, and how to put the
/// ranks' results back in item order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Every rank's runs, rank after rank, each rank's in ascending
    /// item order (one flat list: a map plans in two allocations).
    runs: Vec<Run>,
    /// Rank `r`'s runs are `runs[starts[r]..starts[r + 1]]`.
    starts: Vec<usize>,
    /// Per-item owners, for plans whose rank blocks do not simply
    /// concatenate in item order; `None` for the block split.
    owners: Option<Vec<usize>>,
}

impl Plan {
    /// The paper's block split: rank `r` runs the segments clipped to
    /// its [`block_range`], so a block boundary may bisect a segment.
    pub fn block(p: usize, segments: &Segments) -> Plan {
        let n = segments.n_items();
        // Each of the p − 1 block boundaries cuts at most one segment.
        let mut runs = Vec::with_capacity(segments.n_segments() + p);
        let mut starts = Vec::with_capacity(p + 1);
        starts.push(0);
        for rank in 0..p {
            let (lo, hi) = block_range(n, p, rank);
            runs.extend(segments.overlapping(lo, hi));
            starts.push(runs.len());
        }
        Plan {
            runs,
            starts,
            owners: None,
        }
    }

    /// The plan of an arbitrary per-item owner vector.
    pub fn from_owners(p: usize, owners: Vec<usize>, segments: &Segments) -> Plan {
        let per_rank = owner_runs(p, &owners, segments);
        let mut starts = vec![0];
        starts.extend(per_rank.iter().scan(0, |end, runs| {
            *end += runs.len();
            Some(*end)
        }));
        Plan {
            runs: per_rank.concat(),
            starts,
            owners: Some(owners),
        }
    }

    /// The runs rank `rank` executes, in ascending item order.
    pub fn runs(&self, rank: usize) -> &[Run] {
        &self.runs[self.starts[rank]..self.starts[rank + 1]]
    }

    /// The per-item owners; `None` for the block split.
    pub fn owners(&self) -> Option<&[usize]> {
        self.owners.as_deref()
    }

    /// Items each rank computes.
    pub fn counts(&self) -> Vec<usize> {
        (0..self.starts.len() - 1)
            .map(|rank| self.runs(rank).iter().map(|(_, range)| range.len()).sum())
            .collect()
    }

    /// Reorder the rank-ordered concatenation of every rank's results
    /// (what an all-gather yields) into item order. Each rank's block
    /// holds its items in ascending order, so one cursor per rank,
    /// driven by the owner vector, restores the global order; the
    /// block split needs no reordering at all.
    pub fn reorder<E>(&self, mut gathered: Vec<E>) -> Vec<E> {
        let Some(owners) = &self.owners else {
            return gathered;
        };
        let mut blocks: Vec<_> = self
            .counts()
            .iter()
            .rev()
            .map(|&count| gathered.split_off(gathered.len() - count).into_iter())
            .collect();
        blocks.reverse();
        owners
            .iter()
            .map(|&owner| blocks[owner].next().expect("one result per owned item"))
            .collect()
    }
}

/// Per-rank execution plan for an owner assignment: for each rank, the
/// maximal same-owner runs `(segment, sub-range)` in ascending item
/// order. Segment-batched kernels require contiguous sub-ranges of one
/// segment per call; this is the finest cut that satisfies both the
/// kernel contract and an arbitrary owner vector.
pub fn owner_runs(p: usize, owners: &[usize], segments: &Segments) -> Vec<Vec<Run>> {
    let mut plans: Vec<Vec<Run>> = vec![Vec::new(); p];
    for (seg, range) in segments.iter() {
        let mut i = range.start;
        while i < range.end {
            let r = owners[i];
            let mut j = i + 1;
            while j < range.end && owners[j] == r {
                j += 1;
            }
            plans[r].push((seg, i..j));
            i = j;
        }
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_model_predicts_uniform() {
        let m = ItemCostModel::new();
        assert!(m.is_cold());
        assert_eq!(m.predict(5), 1);
        assert_eq!(m.predict(1000), 1);
    }

    #[test]
    fn model_learns_per_length_means() {
        let mut m = ItemCostModel::new();
        for _ in 0..10 {
            m.observe(4, 100);
            m.observe(16, 400);
        }
        assert_eq!(m.predict(4), 100);
        assert_eq!(m.predict(16), 400);
        // Unseen length: global mean.
        assert_eq!(m.predict(8), 250);
        assert_eq!(m.observations(), 20);
    }

    #[test]
    fn model_never_predicts_zero() {
        let mut m = ItemCostModel::new();
        m.observe(3, 0);
        assert_eq!(m.predict(3), 1);
        assert_eq!(m.predict(99), 1);
    }

    #[test]
    fn cost_guided_engages_on_skew_and_ratchets() {
        let mut gov = PartitionGovernor::new(PartitionStrategy::CostGuided);
        let segments = Segments::from_lens([8usize, 56]);
        let p = 8;
        // Cold: the plan is the block split.
        assert_eq!(gov.plan(p, &segments), Plan::block(p, &segments));
        let block = block_owners(64, p);
        // One skewed map (expensive prefix) calibrates and engages.
        let costs: Vec<u64> = (0..64).map(|i| if i < 8 { 500 } else { 5 }).collect();
        gov.observe_map(p, &segments, &costs);
        assert!(gov.engaged(), "block imbalance {}", gov.block_imbalance());
        let hot = gov
            .plan(p, &segments)
            .owners()
            .expect("engaged plans owners")
            .to_vec();
        assert_ne!(hot, block);
        // The engaged plan spreads the predicted load better than block.
        let predicted = gov.model().predict_items(&segments);
        let imb = |owners: &[usize]| load_imbalance(&rank_loads(p, owners, &predicted));
        assert!(imb(&hot) < imb(&block));
        // Balanced maps afterwards do not disengage the ratchet.
        gov.feedback(Some(0.0));
        assert!(gov.engaged());
    }

    #[test]
    fn block_strategy_plans_the_block_split_without_calibrating() {
        let gov = PartitionGovernor::new(PartitionStrategy::Block);
        let segments = Segments::from_lens([3usize, 0, 7]);
        let plan = gov.plan(4, &segments);
        // The block runs are the block owner vector's runs, already in
        // item order.
        let runs: Vec<Vec<Run>> = (0..4).map(|rank| plan.runs(rank).to_vec()).collect();
        assert_eq!(runs, owner_runs(4, &block_owners(10, 4), &segments));
        assert_eq!(plan.owners(), None);
        assert!(!gov.calibrating());
        assert!(PartitionGovernor::new(PartitionStrategy::SegmentOwner).calibrating());
    }

    #[test]
    fn owner_runs_cover_every_item_once_within_segments() {
        let segments = Segments::from_lens([5usize, 0, 7, 3]);
        let n = segments.n_items();
        let owners: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let plans = owner_runs(3, &owners, &segments);
        let mut seen = vec![0u32; n];
        for (r, plan) in plans.iter().enumerate() {
            for (seg, range) in plan {
                let seg_range = segments.range(*seg);
                assert!(range.start >= seg_range.start && range.end <= seg_range.end);
                for i in range.clone() {
                    assert_eq!(owners[i], r);
                    seen[i] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&s| s == 1));
    }

    #[test]
    fn reorder_restores_item_order() {
        let segments = Segments::whole(5);
        let plan = Plan::from_owners(3, vec![1, 0, 1, 2, 0], &segments);
        assert_eq!(plan.counts(), vec![2, 2, 1]);
        // Rank-ordered concatenation: rank 0's items 1 and 4, rank 1's
        // items 0 and 2, rank 2's item 3.
        assert_eq!(
            plan.reorder(vec!['b', 'e', 'a', 'c', 'd']),
            vec!['a', 'b', 'c', 'd', 'e']
        );
        let block = Plan::block(3, &segments);
        assert_eq!(block.reorder(vec![1, 2, 3, 4, 5]), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn feedback_measured_hint_engages() {
        let mut gov = PartitionGovernor::new(PartitionStrategy::CostGuided);
        // No unit-domain evidence yet, but the engine's recorder saw a
        // badly imbalanced phase.
        gov.feedback(Some(0.8));
        assert!(gov.engaged());
    }
}
