//! `perfbench --monet <bin> --workload splits|ganesh|serve --seed N
//! --seconds S --trace 0|1`
//!
//! Generates the workload's inputs from the seed, drives the `monet`
//! binary from outside (batch CLI per engine, `monet serve` through
//! `monet_serve::Client`), checks every output, and prints one line per
//! metric followed by the JSON result line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the traced pipeline and reports
//! the per-layer metrics, writing the span tree under
//! `.bench_work/spans/`. Run it through `perfbench/run.sh`, which
//! builds both binaries first.

use perfbench::batch::{self, Cli, ENGINES};
use perfbench::check::{self, Reference};
use perfbench::inputs::{self, Case, Learn, PoolEntry};
use perfbench::report::{Metrics, Tally};
use perfbench::serve::{self, LoopResult, Server, WORKERS};
use perfbench::stats;
use perfbench::trace::{self, TracedEngine, TracedRun, STAGES};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Splits,
    Ganesh,
    Serve,
}

struct Args {
    monet: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut monet = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or(format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--monet" => monet = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(match value.as_str() {
                    "splits" => Workload::Splits,
                    "ganesh" => Workload::Ganesh,
                    "serve" => Workload::Serve,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    Ok(Args {
        monet: monet.ok_or("--monet is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Data sets learned per `splits` run. Several per run average out how
/// much one seed's data set happens to cost.
const SPLITS_CASES: usize = 8;
/// Data sets learned per `ganesh` run.
const GANESH_CASES: usize = 4;
/// `proc:2` learns of the 8×6 input per batch run, for `setup_s`.
const FIXED_COST_REPS: usize = 7;
/// Server start-ups per serve run, for `setup_s`.
const SERVER_STARTS: usize = 9;
/// Jobs each client completes in the batch workloads' served phase:
/// 300 in all, so p90 has 30 samples beyond it and a few seconds of
/// host noise do not decide the tail.
const BATCH_SERVED_JOBS: usize = 150;
/// Jobs each `serve` client completes per second of `--seconds`: a
/// fixed amount of work that takes about the rest of the run.
const SERVED_JOBS_PER_SECOND: usize = 12;
/// Share of `--seconds` the `serve` workload spends on batch learns of
/// its pool before serving.
const SERVE_BATCH_SHARE: f64 = 0.6;

/// The workload's inputs.
struct Plan {
    /// Learns measured through the batch CLI and traced in process.
    cases: Vec<Case>,
    /// The served job pool.
    pool: Vec<PoolEntry>,
    tiny: Case,
}

impl Plan {
    fn pool_cases(&self) -> Vec<Case> {
        self.pool.iter().map(|e| e.case.clone()).collect()
    }
}

fn plan(args: &Args, dir: &Path) -> std::io::Result<Plan> {
    let pool = inputs::serve_pool(dir, args.seed)?;
    let cases = match args.workload {
        Workload::Splits => {
            inputs::batch_cases(dir, args.seed, SPLITS_CASES, (200, 100), Learn::MINIMUM)?
        }
        Workload::Ganesh => inputs::batch_cases(
            dir,
            args.seed,
            GANESH_CASES,
            (400, 100),
            Learn {
                ganesh_runs: 2,
                update_steps: 3,
                planted_candidates: true,
            },
        )?,
        Workload::Serve => pool.iter().map(|e| e.case.clone()).collect(),
    };
    Ok(Plan {
        cases,
        pool,
        tiny: inputs::tiny_case(dir, args.seed)?,
    })
}

/// In-process serial references for `cases`; one operation each, which
/// fails if the network is invalid or (when `quality`) recovers the
/// planted modules below the floor.
fn references(cases: &[Case], quality: bool, tally: &Tally) -> Option<Vec<Reference>> {
    let mut refs = Vec::with_capacity(cases.len());
    for case in cases {
        let what = format!("reference {}", case.label);
        match check::reference(case) {
            Ok(r) => {
                let outcome = if quality { r.check_ari() } else { Ok(()) };
                tally.record(&what, outcome);
                refs.push(r);
            }
            Err(why) => {
                tally.record(&what, Err(why));
                return None;
            }
        }
    }
    Some(refs)
}

struct Served {
    result: LoopResult,
    /// Server start to datasets registered, per start.
    setups: Vec<f64>,
    peak_rss_mb: f64,
    completed: u64,
    busy_s: f64,
    checkpoint_units: u64,
    state_bytes: u64,
}

/// The served phase: start the server `starts` times (keeping the last
/// one), run the closed loop, read accounting, stop and reap it.
fn serve_phase(
    args: &Args,
    work: &Path,
    pool: &[PoolEntry],
    refs: &[Reference],
    starts: usize,
    jobs_per_client: usize,
    tally: &Tally,
) -> Option<Served> {
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..starts {
        let t0 = Instant::now();
        let started = Server::start(&args.monet, &work.join(format!("serve{i}")))
            .and_then(|s| s.register(pool, tally).map(|()| s));
        match started {
            Ok(s) => {
                setups.push(t0.elapsed().as_secs_f64());
                if let Some(prev) = server.replace(s) {
                    let _ = Server::stop(prev);
                }
            }
            Err(e) => {
                tally.record("server start", Err(e.to_string()));
                return None;
            }
        }
    }
    let server = server?;
    let result = serve::closed_loop(&server, pool, refs, args.seed, jobs_per_client, tally);
    let (completed, busy_s, checkpoint_units) = match server.accounting() {
        Ok(totals) => totals,
        Err(e) => {
            tally.record("accounting", Err(e.to_string()));
            (0, 0.0, 0)
        }
    };
    let state_bytes = serve::dir_bytes(&server.state_dir);
    let peak_rss_mb = match server.stop() {
        Ok(exit) if exit.success() => exit.peak_rss_mb,
        Ok(exit) => {
            tally.record("server exit", Err(format!("exit {:?}", exit.code)));
            f64::NAN
        }
        Err(e) => {
            tally.record("server exit", Err(e.to_string()));
            f64::NAN
        }
    };
    Some(Served {
        result,
        setups,
        peak_rss_mb,
        completed,
        busy_s,
        checkpoint_units,
        state_bytes,
    })
}

/// Check the batch CLI's serial network of every pool entry (the bytes
/// a served job must reproduce).
fn check_pool_batch(cli: &Cli, pool: &[PoolEntry], refs: &[Reference], tally: &Tally) {
    for (entry, reference) in pool.iter().zip(refs) {
        cli.learn(&entry.case, "serial", reference, &[], tally);
    }
}

fn served_jobs(args: &Args) -> usize {
    match args.workload {
        Workload::Serve => SERVED_JOBS_PER_SECOND * args.seconds as usize,
        _ => BATCH_SERVED_JOBS,
    }
}

fn end_to_end(args: &Args, plan: &Plan, cli: &Cli, tally: &Tally) -> Metrics {
    let mut m = Metrics::default();
    let serve_only = args.workload == Workload::Serve;
    let Some(refs) = references(&plan.cases, true, tally) else {
        return m;
    };
    let pool_refs = if serve_only {
        refs.clone()
    } else {
        match references(&plan.pool_cases(), true, tally) {
            Some(r) => r,
            None => return m,
        }
    };

    // Batch: every engine on every case, for `--seconds` (a share of it
    // on `serve`, whose batch learns are the pool's).
    let fixed = if serve_only {
        f64::NAN
    } else {
        let tiny_ref = references(std::slice::from_ref(&plan.tiny), false, tally);
        match tiny_ref {
            Some(r) => batch::fixed_cost(cli, &plan.tiny, &r[0], FIXED_COST_REPS, tally),
            None => f64::NAN,
        }
    };
    let seconds = args.seconds as f64;
    let batch_budget = Duration::from_secs_f64(if serve_only {
        seconds * SERVE_BATCH_SHARE
    } else {
        seconds
    });
    let samples = batch::measure(cli, &plan.cases, &refs, batch_budget, tally);
    for ((key, _), s) in ENGINES.iter().zip(&samples) {
        m.set(&format!("learn_s.{key}"), s.iqm(|e| e.wall_s), "s");
    }
    for (key, s) in ENGINES.iter().map(|e| e.0).zip(&samples) {
        if key != "threads2" {
            m.set(
                &format!("peak_rss_mb.{key}"),
                s.iqm(|e| e.peak_rss_mb),
                "MB",
            );
        }
    }
    println!(
        "batch: {} cases x {} engines, {} learns",
        plan.cases.len(),
        ENGINES.len(),
        samples.iter().map(|s| s.count()).sum::<usize>()
    );

    // Served.
    if !serve_only {
        check_pool_batch(cli, &plan.pool, &pool_refs, tally);
    }
    let starts = if serve_only { SERVER_STARTS } else { 1 };
    let jobs = served_jobs(args);
    let Some(served) = serve_phase(args, &cli.work, &plan.pool, &pool_refs, starts, jobs, tally)
    else {
        return m;
    };
    let setup_s = if serve_only {
        stats::median(&served.setups).unwrap_or(f64::NAN)
    } else {
        fixed
    };
    m.set("peak_rss_mb.server", served.peak_rss_mb, "MB");
    m.set("setup_s", setup_s, "s");
    let aris: Vec<f64> = refs.iter().map(|r| r.ari).collect();
    m.set("module_ari", stats::mean(&aris).unwrap_or(f64::NAN), "ARI");
    let job_s: Vec<f64> = served.result.jobs.iter().map(|j| j.job_s).collect();
    m.set("job_s.p50", stats::median(&job_s).unwrap_or(f64::NAN), "s");
    m.set(
        "job_s.p90",
        stats::percentile(&job_s, 90.0).unwrap_or(f64::NAN),
        "s",
    );
    m.set(
        "jobs_per_s",
        served.result.jobs.len() as f64 / served.result.wall_s,
        "1/s",
    );
    let repeats = served.result.repeat_frac;
    match stats::tail(&job_s, 10) {
        Some(t) => println!(
            "served: {} jobs, {repeats} repeated; tail p{} = {} s over {} samples (>= 10 beyond)",
            job_s.len(),
            t.pct,
            t.value,
            t.n
        ),
        None => println!(
            "served: {} jobs, {repeats} repeated; too few for a tail",
            job_s.len()
        ),
    }
    m
}

/// Per-case sums of one traced engine's numbers.
#[derive(Default)]
struct EngineLayers {
    stage_s: [f64; 5],
    split_kernel_s: f64,
    map_s: f64,
    work_s: f64,
    maps: f64,
    unattributed: f64,
}

impl EngineLayers {
    fn add(&mut self, run: &TracedRun) {
        for (i, s) in self.stage_s.iter_mut().enumerate() {
            *s += run.stage_s(i);
        }
        self.split_kernel_s += run.batch_kernel_s(3);
        let comm = run.comm();
        self.map_s += comm.map_s;
        self.work_s += comm.work_s;
        self.maps += comm.maps as f64;
        self.unattributed += run.unattributed_frac();
    }
}

fn counter(c: &BTreeMap<String, u64>, name: &str) -> f64 {
    c.get(name).copied().unwrap_or(0) as f64
}

fn per_layer(args: &Args, plan: &Plan, cli: &Cli, tally: &Tally, spans: &Path) -> Metrics {
    let mut m = Metrics::default();
    let serve_only = args.workload == Workload::Serve;
    let Some(refs) = references(&plan.cases, true, tally) else {
        return m;
    };
    let n = plan.cases.len() as f64;
    let mut layers: BTreeMap<&str, EngineLayers> = BTreeMap::new();
    let mut counters: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut read_s, mut overhead_s) = (0.0, 0.0);
    let (mut proc_comm_s, mut proc_busy_s) = (0.0, 0.0);
    let mut span_file = std::fs::File::create(spans).map(std::io::BufWriter::new);
    for (c, (case, reference)) in plan.cases.iter().zip(&refs).enumerate() {
        let mut reads = Vec::new();
        let mut read = Err(String::new());
        for _ in 0..3 {
            let t0 = Instant::now();
            read = case.read();
            reads.push(t0.elapsed().as_secs_f64());
        }
        read_s += stats::median(&reads).unwrap_or(f64::NAN);
        let data = match read {
            Ok(d) => d,
            Err(e) => {
                tally.record(&case.label, Err(e));
                continue;
            }
        };
        for engine in TracedEngine::ALL {
            let run = trace::run_traced(engine, &data, &reference.config);
            let outcome = if run.ranks_agree {
                check::check_output(&run.json, reference)
            } else {
                Err("ranks learned different networks".into())
            };
            tally.record(
                &format!("traced {} on {}", case.label, engine.key()),
                outcome,
            );
            if c == 0 {
                if let Ok(out) = span_file.as_mut() {
                    let _ = run.write_spans(out, &format!("{}/{}", case.label, engine.key()));
                }
                let stages: Vec<String> = STAGES
                    .iter()
                    .enumerate()
                    .map(|(i, s)| format!("{s} {:.4}", run.stage_s(i)))
                    .collect();
                println!(
                    "trace {} {}: wall {:.4} s; {}",
                    case.label,
                    engine.key(),
                    run.wall_s,
                    stages.join(", ")
                );
            }
            if engine == TracedEngine::Serial {
                overhead_s += run.wall_s - reference.lib_s;
                for (key, name) in [
                    ("proposed", "gibbs.moves_proposed"),
                    ("accepted", "gibbs.moves_accepted"),
                    ("hits", "gibbs.cache_hits"),
                    ("misses", "gibbs.cache_misses"),
                    ("nnz", "consensus.nnz"),
                    ("splits", "splits.scored"),
                    ("lg_calls", "score.ln_gamma_calls"),
                    ("lg_hits", "score.ln_gamma_table_hits"),
                    ("maps", "engine.dist_maps"),
                    ("collectives", "comm.collectives"),
                    ("words", "comm.allgather_words"),
                ] {
                    *counters.entry(key).or_default() += counter(&run.counters, name);
                }
            }
            layers.entry(engine.key()).or_default().add(&run);
        }
        let metrics_out = cli.work.join(format!("{}-metrics.json", case.label));
        let extra = [
            "--metrics-out".to_string(),
            metrics_out.display().to_string(),
        ];
        if cli
            .learn(case, "proc:2", reference, &extra, tally)
            .is_some()
        {
            let (comm, busy) = proc_split(&metrics_out);
            proc_comm_s += comm;
            proc_busy_s += busy;
        }
    }
    if let Ok(mut out) = span_file {
        let _ = out.flush();
    }

    m.set("mn-data.read_tsv_s", read_s / n, "s");
    let c = |k: &str| counters.get(k).copied().unwrap_or(0.0);
    for (i, name) in [
        (0, "mn-gibbs.ganesh_s"),
        (1, "mn-consensus.consensus_s"),
        (2, "mn-tree.trees_s"),
        (3, "mn-tree.assign_splits_s"),
        (4, "mn-tree.parents_s"),
    ] {
        for engine in TracedEngine::ALL {
            let l = &layers[engine.key()];
            m.set(&format!("{name}.{}", engine.key()), l.stage_s[i] / n, "s");
        }
    }
    m.set("mn-gibbs.moves_proposed", c("proposed") / n, "count");
    m.set(
        "mn-gibbs.accept_ratio",
        c("accepted") / c("proposed"),
        "ratio",
    );
    m.set(
        "mn-gibbs.cache_hit_ratio",
        c("hits") / (c("hits") + c("misses")),
        "ratio",
    );
    m.set("mn-consensus.nnz", c("nnz") / n, "count");
    m.set("mn-tree.splits_scored", c("splits") / n, "count");
    for engine in TracedEngine::ALL {
        let l = &layers[engine.key()];
        m.set(
            &format!("mn-score.split_kernel_s.{}", engine.key()),
            l.split_kernel_s / n,
            "s",
        );
    }
    m.set(
        "mn-score.ln_gamma_hit_ratio",
        c("lg_hits") / c("lg_calls"),
        "ratio",
    );
    m.set("mn-comm.dist_maps", c("maps") / n, "count");
    m.set("mn-comm.collectives", c("collectives") / n, "count");
    m.set("mn-comm.allgather_words", c("words") / n, "count");
    for engine in [TracedEngine::Threads2, TracedEngine::Msg2] {
        let l = &layers[engine.key()];
        let k = engine.key();
        m.set(&format!("mn-comm.map_s.{k}"), l.map_s / n, "s");
        m.set(&format!("mn-comm.work_s.{k}"), l.work_s / n, "s");
        m.set(
            &format!("mn-comm.sync_s.{k}"),
            (l.map_s - l.work_s) / n,
            "s",
        );
        m.set(
            &format!("mn-comm.sync_us_per_map.{k}"),
            1e6 * (l.map_s - l.work_s) / l.maps,
            "us",
        );
    }
    m.set("mn-comm.proc.comm_s", proc_comm_s / n, "s");
    m.set("mn-comm.proc.busy_s", proc_busy_s / n, "s");
    for engine in TracedEngine::ALL {
        let l = &layers[engine.key()];
        m.set(
            &format!("run.unattributed_frac.{}", engine.key()),
            l.unattributed / n,
            "ratio",
        );
    }
    m.set("run.trace_overhead_s", overhead_s / n, "s");

    // Served phase, timed from the client side.
    let pool_refs = if serve_only {
        Some(refs.clone())
    } else {
        references(&plan.pool_cases(), true, tally)
    };
    let Some(pool_refs) = pool_refs else {
        return m;
    };
    let jobs = served_jobs(args);
    let Some(served) = serve_phase(args, &cli.work, &plan.pool, &pool_refs, 1, jobs, tally) else {
        return m;
    };
    let jobs = &served.result.jobs;
    let per_job = served.completed.max(1) as f64;
    m.set(
        "monet.checkpoint_units_per_job",
        served.checkpoint_units as f64 / per_job,
        "count",
    );
    m.set(
        "monet.checkpoint_bytes_per_job",
        served.state_bytes as f64 / per_job,
        "bytes",
    );
    m.set(
        "monet-serve.submit_s.p50",
        serve::p50(jobs, |j| j.submit_s),
        "s",
    );
    m.set(
        "monet-serve.queue_s.p50",
        serve::p50(jobs, |j| j.queue_s),
        "s",
    );
    m.set("monet-serve.run_s.p50", serve::p50(jobs, |j| j.run_s), "s");
    m.set(
        "monet-serve.result_s.p50",
        serve::p50(jobs, |j| j.result_s),
        "s",
    );
    m.set(
        "monet-serve.overhead_s.p50",
        serve::p50(jobs, |j| j.job_s - pool_refs[j.entry].lib_s),
        "s",
    );
    m.set(
        "monet-serve.busy_frac",
        served.busy_s / (WORKERS as f64 * served.result.wall_s),
        "ratio",
    );
    m
}

/// (comm, busy) seconds summed over the phases of a `--metrics-out`
/// report.
fn proc_split(path: &Path) -> (f64, f64) {
    let Ok(text) = std::fs::read_to_string(path) else {
        return (f64::NAN, f64::NAN);
    };
    let Ok(value) = serde_json::from_str::<serde::Content>(&text) else {
        return (f64::NAN, f64::NAN);
    };
    let phases = value["report"]["phases"]
        .as_array()
        .cloned()
        .unwrap_or_default();
    let sum = |key: &str| phases.iter().filter_map(|p| p[key].as_f64()).sum::<f64>();
    (sum("comm_s"), sum("busy_max_s"))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("spawn") {
        return perfbench::child::helper_main(&raw[1..]);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --monet <bin> --workload splits|ganesh|serve --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if !args.monet.is_file() {
        eprintln!("perfbench: no monet binary at {}", args.monet.display());
        return ExitCode::from(2);
    }
    // Relative paths: every child runs in this directory, and a unix
    // socket path must stay under 108 bytes wherever the checkout lives.
    let root = PathBuf::from(".bench_work");
    let name = format!("{:?}-seed{}", args.workload, args.seed).to_lowercase();
    let work = root.join(format!("{name}-{}", std::process::id()));
    let plan = match std::fs::create_dir_all(&work).and_then(|()| plan(&args, &work)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: writing inputs under {}: {e}", work.display());
            return ExitCode::from(1);
        }
    };
    let cli = Cli {
        monet: args.monet.clone(),
        work: work.clone(),
    };
    let tally = Tally::default();
    let metrics = if args.trace {
        let spans = root.join("spans");
        let _ = std::fs::create_dir_all(&spans);
        let spans = spans.join(format!("{name}.jsonl"));
        let m = per_layer(&args, &plan, &cli, &tally, &spans);
        println!("spans: {}", spans.display());
        m
    } else {
        end_to_end(&args, &plan, &cli, &tally)
    };
    let _ = std::fs::remove_dir_all(&work);

    for line in metrics.lines() {
        println!("{line}");
    }
    let (attempted, failed) = tally.counts();
    println!(
        "fail_frac = {} ({failed} of {attempted} operations)",
        tally.fail_frac()
    );
    for why in tally.reasons() {
        println!("failure: {why}");
    }
    println!("{}", metrics.result_line(&tally));
    ExitCode::SUCCESS
}
