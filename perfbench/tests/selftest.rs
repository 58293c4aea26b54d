//! Self-tests of the benchmark's own machinery: the timing wrapper
//! forwards faithfully, and the correctness gate counts a mismatch.

use monet::mn_comm::{spmd_run, ParEngine, SerialEngine, ThreadEngine};
use monet::mn_data::synthetic;
use monet::{learn_module_network, LearnerConfig};
use perfbench::check::{self, check_output};
use perfbench::inputs::{self, Learn};
use perfbench::report::Tally;
use perfbench::trace::{run_traced, staged_learn, Timed, TracedEngine};
use std::collections::BTreeMap;
use std::time::Instant;

type Outcome = (String, BTreeMap<String, u64>);

fn plain<E: ParEngine>(mut engine: E) -> Outcome {
    let data = synthetic::yeast_like(30, 16, 5).dataset;
    let config = LearnerConfig::paper_minimum(11);
    let (network, _) = learn_module_network(&mut engine, &data, &config);
    (monet::to_json(&network), engine.obs().counters().clone())
}

fn wrapped<E: ParEngine>(mut engine: E) -> Outcome {
    let data = synthetic::yeast_like(30, 16, 5).dataset;
    let config = LearnerConfig::paper_minimum(11);
    let mut timed = Timed::new(&mut engine, Instant::now());
    let (network, _) = learn_module_network(&mut timed, &data, &config);
    let counters = timed.obs().counters().clone();
    assert!(
        !timed.trace.spans.is_empty(),
        "the wrapper recorded no spans"
    );
    (monet::to_json(&network), counters)
}

#[test]
fn wrapper_forwards_faithfully_on_serial_threads_and_msg() {
    let reference = plain(SerialEngine::new());
    assert_eq!(wrapped(SerialEngine::new()), reference, "serial");
    assert_eq!(plain(ThreadEngine::new(2)).0, reference.0);
    assert_eq!(
        wrapped(ThreadEngine::new(2)),
        plain(ThreadEngine::new(2)),
        "threads:2"
    );

    let data = synthetic::yeast_like(30, 16, 5).dataset;
    let config = LearnerConfig::paper_minimum(11);
    let msg_plain: Vec<Outcome> = spmd_run(2, |e| {
        let (network, _) = learn_module_network(e, &data, &config);
        (monet::to_json(&network), e.obs().counters().clone())
    });
    let msg_wrapped: Vec<Outcome> = spmd_run(2, |e| {
        let mut timed = Timed::new(e, Instant::now());
        let (network, _) = learn_module_network(&mut timed, &data, &config);
        (monet::to_json(&network), timed.obs().counters().clone())
    });
    assert_eq!(msg_wrapped, msg_plain, "msg:2");
    assert_eq!(msg_plain[0].0, reference.0);
}

#[test]
fn staged_traced_learn_matches_the_library_pipeline() {
    let data = synthetic::yeast_like(30, 16, 5).dataset;
    let config = LearnerConfig::paper_minimum(11);
    let (reference, _) = plain(SerialEngine::new());
    let mut engine = SerialEngine::new();
    let mut timed = Timed::new(&mut engine, Instant::now());
    assert_eq!(
        monet::to_json(&staged_learn(&mut timed, &data, &config)),
        reference
    );
    for engine in TracedEngine::ALL {
        let run = run_traced(engine, &data, &config);
        assert!(run.ranks_agree, "{engine:?}");
        assert_eq!(run.json, reference, "{engine:?}");
        assert!(run.comm().maps > 0, "{engine:?} recorded no maps");
        let frac = run.unattributed_frac();
        assert!((0.0..1.0).contains(&frac), "{engine:?}: {frac}");
    }
}

#[test]
fn fail_frac_counts_an_injected_mismatch() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest");
    std::fs::create_dir_all(&dir).unwrap();
    let case = inputs::batch_cases(&dir, 3, 1, (30, 16), Learn::MINIMUM)
        .unwrap()
        .remove(0);
    let reference = check::reference(&case).unwrap();
    let tally = Tally::default();
    tally.record(
        "same bytes",
        check_output(&reference.bytes.clone(), &reference),
    );
    let tampered = reference.bytes.replacen("\"seed\"", "\"seed\" ", 1);
    assert_ne!(tampered, reference.bytes);
    tally.record("tampered bytes", check_output(&tampered, &reference));
    tally.record("not a network", check_output("{}", &reference));
    assert_eq!(tally.counts(), (3, 2));
    assert!((tally.fail_frac() - 2.0 / 3.0).abs() < 1e-12);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
    let base = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-inputs");
    let read = |seed: u64, sub: &str| {
        let dir = base.join(sub);
        std::fs::create_dir_all(&dir).unwrap();
        let cases = inputs::batch_cases(&dir, seed, 2, (20, 8), Learn::MINIMUM).unwrap();
        cases
            .iter()
            .map(|c| (std::fs::read(&c.tsv).unwrap(), c.seed))
            .collect::<Vec<_>>()
    };
    assert_eq!(read(7, "a"), read(7, "b"));
    assert_ne!(read(7, "a"), read(8, "c"));
    std::fs::remove_dir_all(&base).unwrap();
}
