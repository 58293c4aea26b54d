//! Batch learns through the `monet` CLI, one process per learn.

use crate::check::{check_output, Reference};
use crate::child::{self, Exit};
use crate::inputs::Case;
use crate::report::Tally;
use crate::stats;
use std::path::PathBuf;
use std::process::Stdio;
use std::time::{Duration, Instant};

/// The CLI engines measured, as (metric suffix, `--engine` value).
pub const ENGINES: [(&str, &str); 4] = [
    ("serial", "serial"),
    ("threads2", "threads:2"),
    ("msg2", "msg:2"),
    ("proc2", "proc:2"),
];

/// A learn that takes longer than this counts as failed (the slowest
/// healthy learn takes about 3 s).
const LEARN_TIMEOUT: Duration = Duration::from_secs(30);

/// Where the CLI lives and where its files go.
pub struct Cli {
    /// The `monet` binary.
    pub monet: PathBuf,
    /// Scratch directory for outputs and logs.
    pub work: PathBuf,
}

impl Cli {
    fn stderr(&self) -> Stdio {
        std::fs::File::create(self.work.join("cli.stderr")).map_or(Stdio::null(), Stdio::from)
    }

    /// Run one learn and check its network against `reference`. Counts
    /// one operation in `tally`; returns the exit on success.
    pub fn learn(
        &self,
        case: &Case,
        engine: &str,
        reference: &Reference,
        extra: &[String],
        tally: &Tally,
    ) -> Option<Exit> {
        let json = self
            .work
            .join(format!("{}-{}.json", case.label, engine.replace(':', "")));
        let _ = std::fs::remove_file(&json);
        let mut args = case.flags();
        args.extend(["--engine", engine, "--quiet", "--json"].map(String::from));
        args.push(json.display().to_string());
        args.extend_from_slice(extra);
        let outcome = child::run(&self.monet, &args, LEARN_TIMEOUT, self.stderr())
            .map_err(|e| format!("spawn: {e}"))
            .and_then(|exit| {
                if exit.timed_out {
                    return Err(format!("timed out after {LEARN_TIMEOUT:?}"));
                }
                if !exit.success() {
                    return Err(format!("exit {:?}: {}", exit.code, self.stderr_tail()));
                }
                let bytes = std::fs::read_to_string(&json).map_err(|e| format!("output: {e}"))?;
                check_output(&bytes, reference)?;
                Ok(exit)
            });
        let what = format!("{} on {engine}", case.label);
        match outcome {
            Ok(exit) => tally.record(&what, Ok(())).then_some(exit),
            Err(why) => {
                tally.record(&what, Err(why));
                None
            }
        }
    }

    fn stderr_tail(&self) -> String {
        let text = std::fs::read_to_string(self.work.join("cli.stderr")).unwrap_or_default();
        let lines: Vec<&str> = text.lines().rev().take(3).collect();
        lines.into_iter().rev().collect::<Vec<_>>().join(" | ")
    }
}

/// Samples of one engine: `per_case[c]` holds case `c`'s exits.
#[derive(Debug, Default, Clone)]
pub struct EngineSamples {
    /// One list per case, one exit per round.
    pub per_case: Vec<Vec<Exit>>,
}

impl EngineSamples {
    /// Interquartile mean of `f` over every learn of the run, all sets
    /// and rounds; NaN when a set has no successful learn. Not the
    /// median: `proc` wall times move in 100 ms steps, so a median jumps
    /// a whole step between runs, and a plain mean follows one slow
    /// learn.
    pub fn iqm(&self, f: impl Fn(&Exit) -> f64) -> f64 {
        if self.per_case.iter().any(Vec::is_empty) {
            return f64::NAN;
        }
        let all: Vec<f64> = self.per_case.iter().flatten().map(f).collect();
        stats::interquartile_mean(&all).unwrap_or(f64::NAN)
    }

    /// Total samples.
    pub fn count(&self) -> usize {
        self.per_case.iter().map(Vec::len).sum()
    }
}

/// Learn every case on every engine, round after round: the first
/// round in full, then case by case while the next case still fits in
/// `budget`. Returns samples per entry of [`ENGINES`] and the learns
/// of each case run.
pub fn measure(
    cli: &Cli,
    cases: &[Case],
    refs: &[Reference],
    budget: Duration,
    tally: &Tally,
) -> Vec<EngineSamples> {
    let mut samples = vec![
        EngineSamples {
            per_case: vec![Vec::new(); cases.len()],
        };
        ENGINES.len()
    ];
    let start = Instant::now();
    let mut last_case = Duration::ZERO;
    for round in 0.. {
        for (c, (case, reference)) in cases.iter().zip(refs).enumerate() {
            if round > 0 && start.elapsed() + last_case > budget {
                return samples;
            }
            let case_start = Instant::now();
            for (e, (_, engine)) in ENGINES.iter().enumerate() {
                if let Some(exit) = cli.learn(case, engine, reference, &[], tally) {
                    samples[e].per_case[c].push(exit);
                }
            }
            last_case = case_start.elapsed();
        }
    }
    samples
}

/// The fixed cost every batch run pays: median wall time of `reps`
/// `proc:2` learns of the tiny case.
pub fn fixed_cost(
    cli: &Cli,
    tiny: &Case,
    reference: &Reference,
    reps: usize,
    tally: &Tally,
) -> f64 {
    let walls: Vec<f64> = (0..reps)
        .filter_map(|_| cli.learn(tiny, "proc:2", reference, &[], tally))
        .map(|exit| exit.wall_s)
        .collect();
    stats::median(&walls).unwrap_or(f64::NAN)
}
