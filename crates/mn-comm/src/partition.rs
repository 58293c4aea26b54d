//! Work partitioning strategies.
//!
//! §3.2.3 of the paper motivates the central partitioning decision: "A
//! simple parallelization scheme for this phase may assign all the
//! probability computations for a module, a tree, or a node to one
//! processor ... However, such a scheme is sub-optimal because the
//! total number of splits assigned to different processors will vary
//! significantly". The paper therefore block-partitions the flat list
//! of candidate splits and names dynamic load balancing as future work
//! (§3.2.3). We implement the paper's block split, the strawman
//! per-segment owner scheme (for the ablation bench), the dynamic
//! self-scheduling oracle, and the realizable adaptive cost-guided
//! scheme built on the online cost model of [`crate::costmodel`].

use crate::segments::Segments;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How a list of work items is distributed over ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PartitionStrategy {
    /// The paper's scheme: contiguous equal blocks of the flat item
    /// list (Alg. 5 line 5).
    #[default]
    Block,
    /// The strawman of §3.2.3: all items of a segment (node / tree /
    /// module) go to one owner, segments dealt round-robin.
    SegmentOwner,
    /// The paper's future-work proposal: dynamic load balancing,
    /// modeled as greedy self-scheduling — each item goes to the
    /// currently least-loaded rank. On the sim engine this is an
    /// *oracle* (it sees true per-item costs before assigning, which
    /// no real engine can); the real engines realize it with predicted
    /// costs from the online cost model.
    SelfScheduling,
    /// The adaptive default of the dynamic-partitioning subsystem:
    /// starts as `Block`, calibrates the cost model online from the
    /// measured per-item accounting, and switches to LPT assignment
    /// once the §5.3.1 imbalance feedback says the block split is
    /// leaving efficiency on the table. LPT is Longest-Processing-Time
    /// list scheduling over predicted costs: items sorted by descending
    /// cost, each placed on the least-loaded rank (see
    /// [`crate::costmodel::PartitionGovernor`]).
    CostGuided,
}

impl PartitionStrategy {
    /// Every strategy, in declaration order (for benches and tests).
    pub const ALL: [PartitionStrategy; 4] = [
        PartitionStrategy::Block,
        PartitionStrategy::SegmentOwner,
        PartitionStrategy::SelfScheduling,
        PartitionStrategy::CostGuided,
    ];

    /// Stable slug used by the CLI, the bench records, and the CI
    /// gates.
    pub fn slug(&self) -> &'static str {
        match self {
            PartitionStrategy::Block => "block",
            PartitionStrategy::SegmentOwner => "segment-owner",
            PartitionStrategy::SelfScheduling => "self-scheduling",
            PartitionStrategy::CostGuided => "cost-guided",
        }
    }
}

impl std::fmt::Display for PartitionStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.slug())
    }
}

impl std::str::FromStr for PartitionStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PartitionStrategy::ALL
            .iter()
            .copied()
            .find(|strategy| strategy.slug() == s)
            .ok_or_else(|| {
                let known: Vec<&str> = PartitionStrategy::ALL.iter().map(|s| s.slug()).collect();
                format!("unknown partition strategy `{s}` (known: {})", known.join(", "))
            })
    }
}

/// The half-open item range `[lo, hi)` owned by `rank` under a block
/// partition of `n` items over `p` ranks. Ranges differ in size by at
/// most one item.
#[inline]
pub fn block_range(n: usize, p: usize, rank: usize) -> (usize, usize) {
    debug_assert!(rank < p);
    (rank * n / p, (rank + 1) * n / p)
}

/// The owning rank of `item` under a block partition. Inverse of
/// [`block_range`].
///
/// Closed form: the owner is the smallest rank `r` whose block ends
/// past `item`, i.e. the smallest `r` with `item + 1 ≤ ⌊(r+1)·n/p⌋`.
/// Over the integers,
///
/// ```text
/// item + 1 ≤ ⌊(r+1)·n/p⌋  ⇔  (item+1)·p ≤ (r+1)·n
///                         ⇔  r + 1 ≥ ⌈(item+1)·p/n⌉
///                         ⇔  r ≥ ⌊((item+1)·p − 1)/n⌋,
/// ```
///
/// so `owner = ⌊((item+1)·p − 1)/n⌋`. Because the block ranges tile
/// `[0, n)` in rank order, the smallest such `r` does own `item` (all
/// earlier blocks end at or before it) and is `< p` (rank `p − 1`'s
/// block ends at `n > item`) — no clamp or correction step is needed.
/// Pinned against [`block_range`] over all `(n, p, item)` by
/// `prop_block_owner_matches_block_range`.
#[inline]
pub fn block_owner(n: usize, p: usize, item: usize) -> usize {
    debug_assert!(item < n);
    ((item + 1) * p - 1) / n
}

/// The block partition as an owner vector: `owner[i] ==
/// block_owner(n, p, i)`, filled range by range.
pub fn block_owners(n: usize, p: usize) -> Vec<usize> {
    let mut owners = vec![0usize; n];
    for rank in 0..p {
        let (lo, hi) = block_range(n, p, rank);
        owners[lo..hi].fill(rank);
    }
    owners
}

/// Deal work to the least-loaded rank via a min-heap keyed by
/// `(load, rank)`; ties break toward the lowest rank, so the schedule
/// is deterministic.
struct LeastLoaded {
    heap: BinaryHeap<Reverse<(u128, usize)>>,
}

impl LeastLoaded {
    fn new(p: usize) -> Self {
        Self {
            heap: (0..p).map(|r| Reverse((0u128, r))).collect(),
        }
    }

    /// Pop the least-loaded rank, charge it `cost`, and return it.
    fn assign(&mut self, cost: u128) -> usize {
        let Reverse((load, r)) = self.heap.pop().expect("p >= 1");
        self.heap.push(Reverse((load + cost, r)));
        r
    }
}

/// LPT list scheduling: items in descending cost order (index breaks
/// ties) each go to the least-loaded rank.
fn lpt_owners(p: usize, costs: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| (Reverse(costs[i]), i));
    let mut pool = LeastLoaded::new(p);
    let mut owners = vec![0usize; costs.len()];
    for i in order {
        owners[i] = pool.assign(u128::from(costs[i]));
    }
    owners
}

/// Assign each item to a rank according to `strategy`.
///
/// * `costs[i]` — the work units of item `i` (used by the dynamic
///   strategies; pass predicted costs to model what a real engine can
///   know before executing, true costs for the oracle view).
/// * `segments` — the boundary structure of the item list (used by the
///   segment-owner strawman).
///
/// Returns `owner[i]` for every item. Every strategy yields a total
/// assignment: each item owned by exactly one rank `< p` (the proptest
/// `prop_every_item_owned_by_valid_rank` pins this).
pub fn assign_owners(
    strategy: PartitionStrategy,
    p: usize,
    costs: &[u64],
    segments: &Segments,
) -> Vec<usize> {
    let n = costs.len();
    assert_eq!(n, segments.n_items());
    match strategy {
        PartitionStrategy::Block => block_owners(n, p),
        PartitionStrategy::SegmentOwner => {
            // Non-empty segment k (in order of appearance) is owned by
            // rank k mod p.
            let mut owners = vec![0usize; n];
            for (k, (_, range)) in segments.iter().enumerate() {
                owners[range].fill(k % p);
            }
            owners
        }
        PartitionStrategy::SelfScheduling => {
            // Greedy: deal items (in order, mimicking a chunk queue of
            // size 1) to the least-loaded rank so far. Deterministic.
            let mut pool = LeastLoaded::new(p);
            costs
                .iter()
                .map(|&c| pool.assign(u128::from(c)))
                .collect()
        }
        // Cost-guided is *adaptive* at the engine level (Block until
        // the governor engages); as a pure assignment over given costs
        // it is LPT — the packing it converges to.
        PartitionStrategy::CostGuided => lpt_owners(p, costs),
    }
}

/// Per-rank total cost implied by an owner assignment. Accumulates in
/// `u128` so extreme per-item costs (up to `u64::MAX` each) cannot
/// overflow the per-rank sums.
pub fn rank_loads(p: usize, owners: &[usize], costs: &[u64]) -> Vec<u128> {
    let mut loads = vec![0u128; p];
    for (&o, &c) in owners.iter().zip(costs) {
        loads[o] += u128::from(c);
    }
    loads
}

/// `(max - avg) / avg` over per-rank loads — the paper's §5.3.1
/// imbalance metric applied to an assignment. The total is accumulated
/// in `u128`, so the sum over ranks cannot overflow either.
pub fn load_imbalance(loads: &[u128]) -> f64 {
    if loads.is_empty() {
        return 0.0;
    }
    let max = *loads.iter().max().unwrap() as f64;
    let total: u128 = loads.iter().sum();
    let avg = total as f64 / loads.len() as f64;
    if avg <= 0.0 {
        0.0
    } else {
        (max - avg) / avg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn block_ranges_tile_the_list() {
        for &(n, p) in &[(10usize, 3usize), (7, 7), (5, 8), (100, 1), (0, 4)] {
            let mut covered = 0;
            for r in 0..p {
                let (lo, hi) = block_range(n, p, r);
                assert_eq!(lo, covered, "n={n} p={p} r={r}");
                covered = hi;
                assert!(hi - lo <= n / p + 1);
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn block_owner_inverts_block_range() {
        for &(n, p) in &[(10usize, 3usize), (7, 7), (13, 4), (100, 8), (5, 8)] {
            for i in 0..n {
                let r = block_owner(n, p, i);
                let (lo, hi) = block_range(n, p, r);
                assert!(i >= lo && i < hi, "n={n} p={p} i={i} -> r={r}");
            }
        }
    }

    #[test]
    fn block_owners_match_block_owner() {
        for &(n, p) in &[(0usize, 3usize), (10, 3), (7, 7), (5, 8), (100, 8)] {
            let owners = block_owners(n, p);
            assert_eq!(owners.len(), n);
            for (i, &owner) in owners.iter().enumerate() {
                assert_eq!(owner, block_owner(n, p, i), "n={n} p={p} i={i}");
            }
        }
    }

    #[test]
    fn block_owner_exhaustive_small() {
        // Exhaustive over every (n, p, item) in a small box: the closed
        // form inverts block_range with no correction step.
        for n in 1usize..=48 {
            for p in 1usize..=48 {
                for i in 0..n {
                    let r = block_owner(n, p, i);
                    assert!(r < p, "n={n} p={p} i={i} -> r={r}");
                    let (lo, hi) = block_range(n, p, r);
                    assert!(i >= lo && i < hi, "n={n} p={p} i={i} -> r={r} [{lo},{hi})");
                }
            }
        }
    }

    #[test]
    fn segment_owner_keeps_segments_whole() {
        let segments = Segments::from_lens([3, 2, 4, 1]);
        let costs = vec![1u64; segments.n_items()];
        let owners = assign_owners(PartitionStrategy::SegmentOwner, 3, &costs, &segments);
        // Items of one segment share an owner.
        let ids: Vec<u32> = segments.ids().collect();
        for w in ids.windows(2).zip(owners.windows(2)) {
            let (seg, own) = w;
            if seg[0] == seg[1] {
                assert_eq!(own[0], own[1]);
            }
        }
        // Four segments over three ranks: round robin 0,1,2,0.
        assert_eq!(owners[0], 0);
        assert_eq!(owners[3], 1);
        assert_eq!(owners[5], 2);
        assert_eq!(owners[9], 0);
    }

    #[test]
    fn self_scheduling_balances_skewed_costs() {
        // One huge item followed by many small ones: block split puts
        // the huge item plus a share of small ones on rank 0, while
        // self-scheduling gives rank 0 only the huge item.
        let mut costs = vec![1000u64];
        costs.extend(std::iter::repeat_n(10, 99));
        let segments = Segments::whole(costs.len());
        let p = 4;

        let block = rank_loads(p, &assign_owners(PartitionStrategy::Block, p, &costs, &segments), &costs);
        let dynamic = rank_loads(
            p,
            &assign_owners(PartitionStrategy::SelfScheduling, p, &costs, &segments),
            &costs,
        );
        assert!(
            load_imbalance(&dynamic) <= load_imbalance(&block),
            "dynamic {dynamic:?} vs block {block:?}"
        );
    }

    #[test]
    fn cost_guided_balances_skewed_costs() {
        // Expensive prefix: Block loads rank 0 heavily; LPT packing
        // spreads it.
        let mut costs = vec![500u64; 8];
        costs.extend(std::iter::repeat_n(5u64, 120));
        let segments = Segments::whole(costs.len());
        let p = 8;
        let imb = |strategy| {
            load_imbalance(&rank_loads(
                p,
                &assign_owners(strategy, p, &costs, &segments),
                &costs,
            ))
        };
        let block = imb(PartitionStrategy::Block);
        assert!(
            imb(PartitionStrategy::CostGuided) < block / 2.0,
            "vs block {block}"
        );
    }

    #[test]
    fn imbalance_zero_for_uniform_loads() {
        assert_eq!(load_imbalance(&[5, 5, 5, 5]), 0.0);
        assert_eq!(load_imbalance(&[]), 0.0);
        assert_eq!(load_imbalance(&[0, 0]), 0.0);
    }

    #[test]
    fn extreme_costs_do_not_overflow_loads() {
        // Regression: per-rank loads and the imbalance total are
        // accumulated in u128, so costs near u64::MAX cannot wrap.
        let costs = vec![u64::MAX; 64];
        let segments = Segments::whole(costs.len());
        for strategy in PartitionStrategy::ALL {
            let owners = assign_owners(strategy, 3, &costs, &segments);
            let loads = rank_loads(3, &owners, &costs);
            let total: u128 = loads.iter().sum();
            assert_eq!(total, 64u128 * u128::from(u64::MAX), "{strategy}");
            let imb = load_imbalance(&loads);
            assert!(imb.is_finite() && imb >= 0.0, "{strategy}: {imb}");
        }
    }

    proptest! {
        #[test]
        fn prop_block_owner_matches_block_range(
            n in 1usize..4000,
            p in 1usize..512,
        ) {
            // Closed form == the unique rank whose block_range contains
            // the item, for every item of the list.
            for i in 0..n {
                let r = block_owner(n, p, i);
                prop_assert!(r < p);
                let (lo, hi) = block_range(n, p, r);
                prop_assert!(i >= lo && i < hi, "n={} p={} i={} -> r={}", n, p, i, r);
            }
        }

        #[test]
        fn prop_every_item_owned_by_valid_rank(
            n in 1usize..200,
            p in 1usize..32,
            strategy in prop_oneof![
                Just(PartitionStrategy::Block),
                Just(PartitionStrategy::SegmentOwner),
                Just(PartitionStrategy::SelfScheduling),
                Just(PartitionStrategy::CostGuided),
            ],
        ) {
            let costs: Vec<u64> = (0..n).map(|i| (i % 7 + 1) as u64).collect();
            let segments =
                Segments::from_lens((0..n.div_ceil(5)).map(|k| 5.min(n - k * 5)));
            let owners = assign_owners(strategy, p, &costs, &segments);
            prop_assert_eq!(owners.len(), n);
            prop_assert!(owners.iter().all(|&o| o < p));
            // Loads account for every unit of cost.
            let loads = rank_loads(p, &owners, &costs);
            let total: u128 = loads.iter().sum();
            prop_assert_eq!(total, costs.iter().map(|&c| u128::from(c)).sum::<u128>());
        }
    }
}
