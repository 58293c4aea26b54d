//! One clock: every engine's `RunReport` is read off its span tree.
//!
//! For each engine, every report phase must equal the depth-1 span it
//! came from — name, order, elapsed, busy max/avg and comm — so the
//! phase report, the span aggregates of `RUN_METRICS.json` and the
//! trace cannot disagree.

use mn_comm::{
    spmd_run, with_span, Collective, ObsSnapshot, ParEngine, RunReport, Segments, SerialEngine,
    SimEngine, ThreadEngine,
};
use std::time::Duration;

/// A small program touching every engine entry point, with a repeated
/// phase name and replicated (non-map) work that takes real time.
fn program<E: ParEngine>(e: &mut E) -> (RunReport, ObsSnapshot) {
    e.begin_phase("a");
    e.dist_map(40, 1, &|i| (i * 3, 1 + i as u64 % 7));
    e.collective(Collective::AllReduce, 2);
    e.replicated(1_000);
    e.begin_phase("b");
    with_span(e, "inner", |e| {
        e.dist_map_segmented_batch(&Segments::from_lens([5, 0, 12]), 1, &|_seg, range, out| {
            out.extend(range.map(|i| (i, 3)))
        })
    });
    // Replicated control flow outside any map: elapsed, not busy.
    std::thread::sleep(Duration::from_millis(5));
    e.begin_phase("a");
    e.dist_map(3, 2, &|i| (i, 1));
    let report = e.report();
    let snapshot = e.obs().snapshot(e.now_s());
    (report, snapshot)
}

/// Assert the report equals the depth-1 spans. `rank` is the owning
/// rank of a per-rank (SPMD) recorder, whose busy vector only has its
/// own slot filled.
fn assert_one_clock(label: &str, report: &RunReport, snapshot: &ObsSnapshot, rank: Option<usize>) {
    let spans: Vec<_> = snapshot.spans.iter().filter(|s| s.depth == 1).collect();
    let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, ["a", "b", "a"], "{label}: phase order");
    assert_eq!(report.phases.len(), spans.len(), "{label}");
    assert_eq!(report.nranks, snapshot.nranks, "{label}");
    for (phase, span) in report.phases.iter().zip(spans) {
        let (busy_max, busy_avg) = match rank {
            Some(r) => (span.busy_s[r], span.busy_s[r]),
            None => (
                span.busy_s.iter().copied().fold(0.0, f64::max),
                span.busy_s.iter().sum::<f64>() / span.busy_s.len() as f64,
            ),
        };
        assert_eq!(phase.name, span.name, "{label}");
        assert_eq!(
            phase.elapsed_s,
            span.elapsed_s(),
            "{label} {} elapsed",
            phase.name
        );
        assert_eq!(
            phase.busy_max_s, busy_max,
            "{label} {} busy max",
            phase.name
        );
        assert_eq!(
            phase.busy_avg_s, busy_avg,
            "{label} {} busy avg",
            phase.name
        );
        assert_eq!(phase.comm_s, span.comm_s, "{label} {} comm", phase.name);
    }
}

#[test]
fn serial_report_is_its_span_tree_and_busy_is_closure_time() {
    let (report, snapshot) = program(&mut SerialEngine::new());
    assert_one_clock("serial", &report, &snapshot, None);
    // Phase b spent ≥ 5 ms outside any map: busy is closure time, not
    // elapsed.
    let b = &report.phases[1];
    assert!(b.elapsed_s >= 0.005, "{b:?}");
    assert!(b.busy_max_s < b.elapsed_s, "{b:?}");
    assert!(report.phases.iter().all(|p| p.comm_s == 0.0));
}

#[test]
fn thread_report_is_its_span_tree() {
    let (report, snapshot) = program(&mut ThreadEngine::new(3));
    assert_one_clock("threads:3", &report, &snapshot, None);
}

#[test]
fn sim_report_is_its_span_tree() {
    let (report, snapshot) = program(&mut SimEngine::new(4));
    assert_one_clock("sim:4", &report, &snapshot, None);
    // Simulated elapsed time is bulk-synchronous busy plus comm.
    let a = &report.phases[0];
    assert!(a.comm_s > 0.0 && a.elapsed_s >= a.busy_max_s + a.comm_s - 1e-15);
}

#[test]
fn msg_report_is_each_ranks_span_tree() {
    let outs = spmd_run(3, |e| {
        let (report, snapshot) = program(e);
        (e.rank(), report, snapshot)
    });
    for (rank, report, snapshot) in &outs {
        assert_one_clock(&format!("msg:3 rank {rank}"), report, snapshot, Some(*rank));
        // comm is measured collective time, so it never exceeds the
        // phase's elapsed time.
        for phase in &report.phases {
            assert!(phase.comm_s <= phase.elapsed_s, "rank {rank} {phase:?}");
        }
    }
}
