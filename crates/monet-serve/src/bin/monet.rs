//! `monet` — command-line module-network learner.
//!
//! ```text
//! monet --input expression.tsv [--engine serial|threads:<p>|sim:<p>|msg:<p>|proc:<p>]
//!       [--partition block|segment-owner|self-scheduling|cost-guided]
//!       [--seed N] [--ganesh-runs G] [--update-steps U]
//!       [--init-clusters K0] [--trees R] [--splits-per-node J]
//!       [--sampling-steps S] [--threshold T] [--reference]
//!       [--candidates file.txt] [--xml out.xml] [--json out.json]
//!       [--trace trace.json] [--metrics-out metrics.json]
//!       [--checkpoint-dir dir] [--resume] [--force-restart]
//!       [--fault spec] [--comm-timeout-ms T]
//!       [--telemetry-out path|-] [--telemetry-interval-ms T]
//!       [--flightrec-dir dir]
//!       [--dag] [--quiet]
//! monet --synthetic n,m [--engine ...]   # demo without an input file
//! monet serve --listen unix:<path>|tcp:<host:port> [--state-dir dir]
//!       [--workers N] [--max-queue N] [--telemetry-interval-ms T]
//! monet client --connect <addr> <op> [flags]   # talk to a server
//! ```
//!
//! The defaults reproduce the paper's minimum-runtime configuration
//! (§5.1): one GaneSH run, one update step, one regression tree per
//! module, every gene a candidate regulator.
//!
//! `--trace` writes a chrome://tracing timeline (open in
//! `chrome://tracing` or <https://ui.perfetto.dev>) with one track per
//! rank; `--metrics-out` writes `RUN_METRICS.json`, the machine-readable
//! superset of the run report (see [`monet::RunMetrics`]).
//!
//! `--checkpoint-dir` enables fine-grained checkpointing (per GaneSH
//! run / per module tree; DESIGN.md §10): a killed run resumes after
//! the last completed unit. `--resume` requires a valid checkpoint to
//! exist (a corrupt or mismatched one is a clean error); add
//! `--force-restart` to wipe it and start over. `--fault` plants
//! deterministic faults (`kill:<rank>@<event>`, `delay:<rank>@<event>:<ms>`,
//! `drop:<rank>@<event>`, `seed:<n>`) for kill–resume drills; a
//! fault-aborted run exits with code 3. `--comm-timeout-ms` bounds
//! every fabric receive on the msg engine so dropped messages surface
//! as timeouts instead of hangs.
//!
//! `--telemetry-out` streams live run telemetry as versioned JSONL
//! (DESIGN.md §13): a full snapshot line, then deltas, with heartbeat
//! lines while the run is between snapshots; `-` streams to stdout.
//! `--telemetry-interval-ms` sets both the snapshot rate limit and the
//! heartbeat cadence (default 1000).
//!
//! The flight recorder is always on: every rank keeps a bounded ring
//! of compact events (spans, sends/receives, checkpoint units, fault
//! injections, RNG jumps). A failed run dumps one
//! `flightrec-rank<k>.jsonl` per rank into `--flightrec-dir` (default
//! `.`); passing the flag explicitly also dumps after successful runs.
//!
//! `--engine proc:<p>` runs the msg fabric over `p` real supervised OS
//! processes (DESIGN.md §15): this process becomes the supervisor, and
//! each rank is a `monet worker` child connected over a Unix-domain
//! socket (`MN_PROC_ADDR=tcp:host:port` switches to TCP loopback). The
//! hidden `worker` subcommand is that child entrypoint — it takes
//! `--proc-rank`/`--proc-nranks`/`--proc-socket` plus the forwarded run
//! flags, and is not meant to be invoked by hand. A worker that dies —
//! a real SIGKILL, a `sigkill:<r>@<k>` fault, or an injected kill — is
//! detected by the supervisor (socket EOF, or heartbeat staleness for
//! stalls), the survivors abort with `PeerDisconnected`, and the run
//! exits 3 with per-rank flight-recorder dumps; results on the happy
//! path are byte-identical to every other engine.
//!
//! Every launch — a single-process engine, the in-process msg fabric,
//! a proc worker, and the proc supervisor's check before it spawns —
//! loads the data, builds the config and parses the fault plan in one
//! place, and every launch that learns ends in one outcome tail
//! (flight-recorder dumps, post-mortem trace, exit code 1 for an error
//! or 3 for a fault).
//!
//! `monet serve` runs the learner as a long-lived multi-tenant service
//! (DESIGN.md §16): line-delimited JSON over a Unix or TCP socket,
//! a fixed worker pool with fair per-tenant scheduling and bounded
//! admission, live telemetry via `watch`, cooperative cancel/suspend,
//! and per-job checkpointing with elastic resume. `monet client` is
//! the matching command-line client (ops: `ping`, `register`,
//! `submit`, `status`, `watch`, `result`, `cancel`, `suspend`,
//! `resume`, `accounting`, `jobs`, `shutdown`, `raw`); a served job's
//! result is byte-identical to this binary's batch `--json` output for
//! the same dataset, seed, and config.

use mn_comm::msg::proc::{
    connect_worker, ProcAddr, Supervisor, WorkerConfig, DEFAULT_CONNECT_TIMEOUT,
};
use mn_comm::{
    silence_injected_panics, spmd_run_faulty_recorded, CommError, EngineSpec, Fabric, FaultAbort,
    FaultPlan, InjectedCrash, ObsSnapshot, ParEngine, PartitionStrategy, RunReport, SerialEngine,
    SimEngine, SpmdCapture, ThreadEngine,
};
use mn_data::Dataset;
use mn_obs::{TelemetryHandle, TelemetrySink};
use mn_score::ScoreMode;
use monet::{
    learn_module_network, learn_with_checkpoint_policy, LearnerConfig, ModuleNetwork,
    ResumePolicy, RunMetrics,
};
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

struct Options {
    input: Option<String>,
    synthetic: Option<(usize, usize)>,
    engine: EngineSpec,
    partition: PartitionStrategy,
    seed: u64,
    ganesh_runs: usize,
    update_steps: usize,
    init_clusters: Option<usize>,
    trees: usize,
    splits_per_node: usize,
    sampling_steps: usize,
    threshold: f64,
    reference: bool,
    candidates: Option<String>,
    xml: Option<String>,
    json: Option<String>,
    trace: Option<String>,
    metrics_out: Option<String>,
    checkpoint_dir: Option<String>,
    resume: bool,
    force_restart: bool,
    fault: Option<String>,
    comm_timeout_ms: Option<u64>,
    telemetry_out: Option<String>,
    telemetry_interval_ms: u64,
    flightrec_dir: Option<String>,
    dag: bool,
    quiet: bool,
    /// Set when invoked as the hidden `worker` subcommand: this process
    /// is one rank of a `proc:<p>` run.
    worker: Option<WorkerOpts>,
}

impl Options {
    /// Flag defaults — shared by the batch parser and `client submit`,
    /// so a served job's config defaults match the batch CLI's exactly.
    fn defaults() -> Options {
        Options {
            input: None,
            synthetic: None,
            engine: EngineSpec::Serial,
            partition: PartitionStrategy::Block,
            seed: 0,
            ganesh_runs: 1,
            update_steps: 1,
            init_clusters: None,
            trees: 1,
            splits_per_node: 2,
            sampling_steps: 8,
            threshold: 0.0,
            reference: false,
            candidates: None,
            xml: None,
            json: None,
            trace: None,
            metrics_out: None,
            checkpoint_dir: None,
            resume: false,
            force_restart: false,
            fault: None,
            comm_timeout_ms: None,
            telemetry_out: None,
            telemetry_interval_ms: 1000,
            flightrec_dir: None,
            dag: false,
            quiet: false,
            worker: None,
        }
    }

    /// The rank count of the run: the worker's fabric size, or the
    /// engine's.
    fn nranks(&self) -> usize {
        if let Some(w) = &self.worker {
            return w.nranks;
        }
        match self.engine {
            EngineSpec::Serial => 1,
            EngineSpec::Threads(p)
            | EngineSpec::Sim(p)
            | EngineSpec::Msg(p)
            | EngineSpec::Proc(p) => p,
        }
    }

    /// The rank whose outputs this process writes: 0, unless it is a
    /// proc worker.
    fn rank(&self) -> usize {
        self.worker.as_ref().map_or(0, |w| w.rank)
    }

    /// Only rank 0 speaks: the summary, telemetry stream and output
    /// files all come from it; the other proc workers run silent.
    fn silent(&self) -> bool {
        self.quiet || self.rank() != 0
    }
}

/// The `monet worker` coordinates: which rank this process is, how
/// many ranks the fabric has, and where the supervisor listens.
struct WorkerOpts {
    rank: usize,
    nranks: usize,
    socket: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: monet --input <expression.tsv> | --synthetic <n,m>\n\
         \x20      [--engine serial|threads:<p>|sim:<p>|msg:<p>|proc:<p>] [--seed N]\n\
         \x20      [--partition block|segment-owner|self-scheduling|cost-guided]\n\
         \x20      [--ganesh-runs G] [--update-steps U] [--init-clusters K0]\n\
         \x20      [--trees R] [--splits-per-node J] [--sampling-steps S]\n\
         \x20      [--threshold T] [--reference]\n\
         \x20      [--candidates file]\n\
         \x20      [--xml out.xml] [--json out.json]\n\
         \x20      [--trace trace.json] [--metrics-out metrics.json]\n\
         \x20      [--checkpoint-dir dir] [--resume] [--force-restart]\n\
         \x20      [--fault kill:<r>@<k>|sigkill:<r>@<k>|delay:<r>@<k>:<ms>|drop:<r>@<k>|seed:<n>]\n\
         \x20      [--comm-timeout-ms T]\n\
         \x20      [--telemetry-out path|-] [--telemetry-interval-ms T]\n\
         \x20      [--flightrec-dir dir]\n\
         \x20      [--dag] [--quiet]\n\
         \x20apart from batch runs: monet serve --listen <addr> [...]\n\
         \x20                       monet client --connect <addr> <op> [...]"
    );
    std::process::exit(2)
}

/// Parse a flag value, or print `usage` and exit 2.
fn num<T: FromStr>(value: String, usage: fn() -> !) -> T {
    value.parse().unwrap_or_else(|_| usage())
}

/// Apply one learn flag — a flag that shapes the [`LearnerConfig`] —
/// to `opts`, taking its value from `value`; `false` when `flag` is
/// not a learn flag. The batch parser and `client submit` both read
/// their learn flags here, so a served job is configured exactly as a
/// batch run with the same flags.
fn learn_flag(
    opts: &mut Options,
    flag: &str,
    mut value: impl FnMut() -> String,
    usage: fn() -> !,
) -> bool {
    match flag {
        "--seed" => opts.seed = num(value(), usage),
        "--ganesh-runs" => opts.ganesh_runs = num(value(), usage),
        "--update-steps" => opts.update_steps = num(value(), usage),
        "--init-clusters" => opts.init_clusters = Some(num(value(), usage)),
        "--trees" => opts.trees = num(value(), usage),
        "--splits-per-node" => opts.splits_per_node = num(value(), usage),
        "--sampling-steps" => opts.sampling_steps = num(value(), usage),
        "--threshold" => opts.threshold = num(value(), usage),
        "--reference" => opts.reference = true,
        _ => return false,
    }
    true
}

fn parse_options() -> Options {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden subcommand: `monet worker --proc-rank k --proc-nranks p
    // --proc-socket addr <forwarded run flags>` — the per-rank child
    // entrypoint the proc-engine supervisor spawns.
    let is_worker = args.first().map(String::as_str) == Some("worker");
    if is_worker {
        args.remove(0);
    }
    let mut proc_rank: Option<usize> = None;
    let mut proc_nranks: Option<usize> = None;
    let mut proc_socket: Option<String> = None;
    let mut opts = Options::defaults();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        let mut value = || {
            i += 1;
            args.get(i).cloned().unwrap_or_else(|| usage())
        };
        if learn_flag(&mut opts, &flag, &mut value, usage) {
            i += 1;
            continue;
        }
        match flag.as_str() {
            "--input" => opts.input = Some(value()),
            "--synthetic" => {
                let v = value();
                let Some((n, m)) = v.split_once(',') else {
                    usage()
                };
                opts.synthetic = Some((num(n.to_string(), usage), num(m.to_string(), usage)));
            }
            "--engine" => {
                opts.engine = value().parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--partition" => {
                opts.partition = value().parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--candidates" => opts.candidates = Some(value()),
            "--xml" => opts.xml = Some(value()),
            "--json" => opts.json = Some(value()),
            "--trace" => opts.trace = Some(value()),
            "--metrics-out" => opts.metrics_out = Some(value()),
            "--checkpoint-dir" => opts.checkpoint_dir = Some(value()),
            "--resume" => opts.resume = true,
            "--force-restart" => opts.force_restart = true,
            "--fault" => opts.fault = Some(value()),
            "--comm-timeout-ms" => opts.comm_timeout_ms = Some(num(value(), usage)),
            "--telemetry-out" => opts.telemetry_out = Some(value()),
            "--telemetry-interval-ms" => opts.telemetry_interval_ms = num(value(), usage),
            "--flightrec-dir" => opts.flightrec_dir = Some(value()),
            "--dag" => opts.dag = true,
            "--quiet" => opts.quiet = true,
            "--proc-rank" if is_worker => proc_rank = Some(num(value(), usage)),
            "--proc-nranks" if is_worker => proc_nranks = Some(num(value(), usage)),
            "--proc-socket" if is_worker => proc_socket = Some(value()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
        i += 1;
    }
    if opts.input.is_none() == opts.synthetic.is_none() {
        eprintln!("exactly one of --input / --synthetic is required");
        usage();
    }
    if (opts.resume || opts.force_restart) && opts.checkpoint_dir.is_none() {
        eprintln!("--resume / --force-restart require --checkpoint-dir");
        usage();
    }
    if is_worker {
        match (proc_rank, proc_nranks, proc_socket) {
            (Some(rank), Some(nranks), Some(socket)) if rank < nranks && nranks >= 1 => {
                opts.worker = Some(WorkerOpts {
                    rank,
                    nranks,
                    socket,
                });
            }
            _ => {
                eprintln!("worker requires --proc-rank < --proc-nranks and --proc-socket");
                usage();
            }
        }
    }
    opts
}

/// The data-independent part of the config: everything except
/// candidate-regulator resolution. `client submit` uses it directly,
/// which is what makes a served job's config byte-identical to the
/// batch CLI's for the same flags.
fn base_config(opts: &Options) -> LearnerConfig {
    let mut config = LearnerConfig::paper_minimum(opts.seed);
    config.ganesh_runs = opts.ganesh_runs;
    config.ganesh.update_steps = opts.update_steps;
    config.ganesh.init_clusters = opts.init_clusters;
    config.consensus.threshold = opts.threshold;
    config.tree.update_steps = opts.trees + 1;
    config.tree.burn_in = 1;
    config.tree.splits_per_node = opts.splits_per_node;
    config.tree.max_sampling_steps = opts.sampling_steps;
    if opts.reference {
        config = config.with_mode(ScoreMode::Reference);
    }
    config
}

/// What every launch needs before it runs: the data, the validated
/// config, and the fault plan for the run's rank count.
struct Prepared {
    data: Dataset,
    config: LearnerConfig,
    plan: FaultPlan,
}

/// Load the data, build the config and parse the fault plan — once,
/// for every launch.
fn prepare(opts: &Options) -> Result<Prepared, String> {
    let data = load_data(opts)?;
    let config = build_config(opts, &data)?;
    let plan = match &opts.fault {
        Some(spec) => FaultPlan::parse(spec, opts.nranks())?,
        None => FaultPlan::new(),
    };
    if !plan.is_empty() {
        silence_injected_panics();
    }
    Ok(Prepared { data, config, plan })
}

fn load_data(opts: &Options) -> Result<Dataset, String> {
    if let Some(path) = &opts.input {
        return mn_data::read_tsv_file(path).map_err(|e| format!("reading {path}: {e}"));
    }
    let (n, m) = opts.synthetic.expect("the parser requires --input or --synthetic");
    mn_data::synthetic::try_yeast_like(n, m, opts.seed)
        .map(|synthetic| synthetic.dataset)
        .map_err(|e| e.to_string())
}

fn build_config(opts: &Options, data: &Dataset) -> Result<LearnerConfig, String> {
    let mut config = base_config(opts);
    if let Some(path) = &opts.candidates {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let mut indices = Vec::new();
        for name in text.split_whitespace() {
            match data.var_names.iter().position(|v| v == name) {
                Some(idx) => indices.push(idx),
                None => return Err(format!("candidate regulator {name:?} not in data set")),
            }
        }
        config.candidate_parents = Some(indices);
    }
    config.validated()
}

/// Print `error: {e}` and exit 1.
fn fail(e: impl Display) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::FAILURE
}

/// Why a run produced no network: an ordinary error (exit 1) or a
/// fault abort — injected or observed communication failure (exit 3,
/// so kill–resume drills can tell the two apart).
enum RunFailure {
    Error(String),
    Fault(String),
}

impl RunFailure {
    /// Report the failure on stderr — a proc worker's fault names its
    /// rank — and return its exit code.
    fn exit(self, worker_rank: Option<usize>) -> ExitCode {
        match (self, worker_rank) {
            (RunFailure::Error(e), _) => fail(e),
            (RunFailure::Fault(e), Some(rank)) => {
                eprintln!("fault: rank {rank}: {e}");
                ExitCode::from(3)
            }
            (RunFailure::Fault(e), None) => {
                eprintln!("fault: {e}");
                ExitCode::from(3)
            }
        }
    }
}

/// A learned run: the network, its report, and the (rank-merged)
/// observability snapshot.
type Learned = (ModuleNetwork, RunReport, ObsSnapshot);

/// The checkpoint resume policy the flags ask for.
fn resume_policy(opts: &Options) -> ResumePolicy {
    if opts.force_restart {
        ResumePolicy::ForceRestart
    } else if opts.resume {
        ResumePolicy::Strict
    } else {
        ResumePolicy::Auto
    }
}

/// Learn on one engine (or one SPMD rank): install the partition
/// strategy and the telemetry stream, run the pipeline — over
/// `--checkpoint-dir` when given — and take the final snapshot.
fn run_on<E: ParEngine>(
    engine: &mut E,
    opts: &Options,
    data: &Dataset,
    config: &LearnerConfig,
    telemetry: Option<&TelemetryHandle>,
) -> Result<Learned, RunFailure> {
    engine.set_partition_strategy(opts.partition);
    if let Some(handle) = telemetry {
        engine.obs_mut().set_telemetry(handle.clone());
    }
    let (network, report) = match &opts.checkpoint_dir {
        Some(dir) => learn_with_checkpoint_policy(engine, data, config, dir, resume_policy(opts))
            .map_err(|e| RunFailure::Error(e.to_string()))?,
        None => learn_module_network(engine, data, config),
    };
    let snapshot = engine.obs().snapshot(engine.now_s());
    Ok((network, report, snapshot))
}

/// Convert a caught panic payload into a fault failure, or propagate
/// it unchanged when it is not a fault-injection payload.
fn fault_failure(payload: Box<dyn std::any::Any + Send>) -> RunFailure {
    match payload.downcast::<InjectedCrash>() {
        Ok(crash) => RunFailure::Fault(format!(
            "injected kill: rank {} at event {}",
            crash.rank, crash.event
        )),
        Err(payload) => match payload.downcast::<FaultAbort>() {
            Ok(abort) => RunFailure::Fault(format!("communication failure: {}", abort.0)),
            Err(payload) => std::panic::resume_unwind(payload),
        },
    }
}

/// Run `learn`, catching fault-injection unwinds so an aborted run
/// exits cleanly (code 3) instead of with a panic trace.
fn catch_faults(
    learn: impl FnOnce() -> Result<Learned, RunFailure>,
) -> Result<Learned, RunFailure> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(learn))
        .unwrap_or_else(|payload| Err(fault_failure(payload)))
}

/// Run with the `--telemetry-out` stream open (on rank 0 only), then
/// drain it: by then the engines and their cloned handles are gone, so
/// finishing only flushes buffered lines and joins the writer.
fn with_telemetry<R>(
    opts: &Options,
    launch: impl FnOnce(Option<&TelemetryHandle>) -> R,
) -> Result<R, String> {
    let sink = match &opts.telemetry_out {
        Some(path) if opts.rank() == 0 => {
            let interval = Duration::from_millis(opts.telemetry_interval_ms);
            let sink = TelemetrySink::to_path(path, interval)
                .map_err(|e| format!("opening telemetry stream {path}: {e}"))?;
            Some(sink)
        }
        _ => None,
    };
    let handle = sink.as_ref().map(|s| s.handle());
    let out = launch(handle.as_ref());
    drop(handle);
    if let Some(sink) = sink {
        if let Err(e) = sink.finish() {
            eprintln!("warning: telemetry stream: {e}");
        }
    }
    Ok(out)
}

/// The outcome tail every learning launch shares. A failed run dumps
/// every captured flight recorder into `--flightrec-dir` (default `.`),
/// writes the post-mortem trace from a dying rank's stashed snapshot
/// when `--trace` asked for one, and exits 1 for an error or 3 for a
/// fault; a clean run dumps only when `--flightrec-dir` was given, and
/// rank 0 writes the outputs.
fn conclude(
    opts: &Options,
    capture: &SpmdCapture,
    result: Result<Learned, RunFailure>,
) -> ExitCode {
    let quiet = opts.silent();
    let failure = match result {
        Ok(learned) => {
            if let Some(dir) = &opts.flightrec_dir {
                dump_flight_recorders(capture, dir, quiet);
            }
            return match opts.rank() {
                0 => write_outputs(opts, &learned),
                _ => ExitCode::SUCCESS,
            };
        }
        Err(failure) => failure,
    };
    dump_flight_recorders(capture, opts.flightrec_dir.as_deref().unwrap_or("."), quiet);
    if let (Some(path), 0) = (&opts.trace, opts.rank()) {
        if let Some(snap) = capture.stashes.iter().find_map(|s| s.get()) {
            let trace = mn_comm::obs::chrome_trace_json(&snap);
            if let Err(e) = std::fs::write(path, trace) {
                eprintln!("warning: writing {path}: {e}");
            } else if !quiet {
                eprintln!("post-mortem trace: {path}");
            }
        }
    }
    failure.exit(opts.worker.as_ref().map(|w| w.rank))
}

/// Dump every captured flight recorder as `flightrec-rank<k>.jsonl`
/// into `dir` (created if missing). Best-effort: dump failures are
/// reported but never change the exit code — post-mortem tooling must
/// not mask the original failure.
fn dump_flight_recorders(capture: &SpmdCapture, dir: &str, quiet: bool) {
    let dir = std::path::Path::new(dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: flight recorder dir {}: {e}", dir.display());
        return;
    }
    for flight in &capture.flights {
        match flight.dump_to_dir(dir) {
            Ok(path) => {
                if !quiet {
                    eprintln!("flight recorder: {}", path.display());
                }
            }
            Err(e) => eprintln!("warning: flight recorder dump: {e}"),
        }
    }
}

fn main() -> ExitCode {
    // Service subcommands dispatch before the batch flag parser (the
    // same pattern as the hidden `worker` subcommand).
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => return serve_main(&args[1..]),
        Some("client") => return client_main(&args[1..]),
        _ => {}
    }
    let opts = parse_options();
    if opts.silent() {
        mn_comm::obs::set_quiet(true);
    }
    // Validate everything cheap before any engine starts: a typo
    // should fail in one process, not p+1.
    let prepared = match prepare(&opts) {
        Ok(prepared) => prepared,
        Err(e) => return fail(e),
    };
    match (&opts.worker, opts.engine) {
        (Some(worker), _) => run_worker(&opts, worker, prepared),
        (None, EngineSpec::Proc(p)) => {
            drop(prepared);
            run_supervisor(&opts, p)
        }
        (None, _) => {
            match with_telemetry(&opts, |telemetry| run_in_process(&opts, prepared, telemetry)) {
                Ok((result, capture)) => conclude(&opts, &capture, result),
                Err(e) => fail(e),
            }
        }
    }
}

/// Run on a single-process engine or the in-process msg fabric,
/// returning the outcome and every rank's post-mortem handles.
fn run_in_process(
    opts: &Options,
    prepared: Prepared,
    telemetry: Option<&TelemetryHandle>,
) -> (Result<Learned, RunFailure>, SpmdCapture) {
    let Prepared { data, config, plan } = prepared;
    let (data, config) = (&data, &config);
    match opts.engine {
        // Single-process engines count *engine* events (each dist_map /
        // collective / replicated call), attributed to rank 0.
        EngineSpec::Serial => {
            run_single(SerialEngine::new().with_fault_plan(plan), opts, data, config, telemetry)
        }
        EngineSpec::Threads(p) => {
            run_single(ThreadEngine::new(p).with_fault_plan(plan), opts, data, config, telemetry)
        }
        EngineSpec::Sim(p) => {
            run_single(SimEngine::new(p).with_fault_plan(plan), opts, data, config, telemetry)
        }
        EngineSpec::Msg(p) => run_msg(p, plan, opts, data, config, telemetry),
        EngineSpec::Proc(_) => unreachable!("proc runs launch through the supervisor"),
    }
}

/// Run a single-process engine. Its flight recorder and death stash
/// are cloned *before* the unwind-catching closure takes the engine,
/// so post-mortem dumps work even when the run dies.
fn run_single<E: ParEngine>(
    mut engine: E,
    opts: &Options,
    data: &Dataset,
    config: &LearnerConfig,
    telemetry: Option<&TelemetryHandle>,
) -> (Result<Learned, RunFailure>, SpmdCapture) {
    let capture = SpmdCapture {
        flights: vec![engine.obs().flight()],
        stashes: vec![engine.death_stash()],
    };
    let result = catch_faults(move || run_on(&mut engine, opts, data, config, telemetry));
    (result, capture)
}

/// True SPMD on the in-process msg fabric: every rank learns the full
/// network. All ranks produce the identical network and report (the
/// determinism contract); the per-rank observability snapshots are
/// merged so the timeline carries every rank's busy time. Faults are
/// fabric events (sends + receives, per endpoint); an empty plan makes
/// this path identical to the plain `spmd_run`.
fn run_msg(
    p: usize,
    plan: FaultPlan,
    opts: &Options,
    data: &Dataset,
    config: &LearnerConfig,
    telemetry: Option<&TelemetryHandle>,
) -> (Result<Learned, RunFailure>, SpmdCapture) {
    let timeout = opts.comm_timeout_ms.map(Duration::from_millis);
    let (outcomes, capture) = spmd_run_faulty_recorded(p, plan, timeout, |engine| {
        // The telemetry delta stream is a single per-stream state
        // machine, so exactly one rank feeds it.
        let telemetry = telemetry.filter(|_| engine.rank() == 0);
        run_on(engine, opts, data, config, telemetry)
    });
    let mut results = Vec::with_capacity(p);
    // Survivors abort *because* a peer was killed; report the injected
    // kill as the cause, not the downstream abort.
    let mut survivor_failure: Option<RunFailure> = None;
    for (rank, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(Ok(learned)) => results.push(learned),
            Ok(Err(failure)) => return (Err(failure), capture),
            Err(CommError::Injected { rank: r, event }) => {
                let cause = format!("injected kill: rank {r} at fabric event {event}");
                return (Err(RunFailure::Fault(cause)), capture);
            }
            Err(e) => {
                survivor_failure.get_or_insert(RunFailure::Fault(format!(
                    "rank {rank} aborted: {e}"
                )));
            }
        }
    }
    if let Some(failure) = survivor_failure {
        return (Err(failure), capture);
    }
    let snapshots: Vec<ObsSnapshot> = results.iter().map(|(_, _, s)| s.clone()).collect();
    let (network, report, _) = results.swap_remove(0);
    (merged(network, report, &snapshots), capture)
}

/// Rank 0's learned run with every rank's snapshot merged into one
/// timeline. A merge failure means the determinism contract itself
/// broke — surface the first divergence, don't panic.
fn merged(
    network: ModuleNetwork,
    report: RunReport,
    snapshots: &[ObsSnapshot],
) -> Result<Learned, RunFailure> {
    let merged = mn_comm::obs::merge_ranks(snapshots)
        .map_err(|e| RunFailure::Error(format!("rank merge failed: {e}")))?;
    Ok((network, report, merged))
}

/// Print the run summary and write every requested output artifact —
/// the tail of a successful run on rank 0.
fn write_outputs(opts: &Options, (network, report, snapshot): &Learned) -> ExitCode {
    if !opts.quiet {
        let summary = network.summary();
        println!(
            "learned {} modules over {} genes ({} assigned), {} module edges",
            summary.n_modules, summary.n_vars, summary.n_assigned_vars, summary.n_edges
        );
        for phase in &report.phases {
            println!("  task {:<10} {:.4}s", phase.name, phase.elapsed_s);
        }
        println!("total: {:.4}s on {} rank(s)", report.total_s(), report.nranks);
        if opts.dag {
            let dag = monet::acyclic::dag_edges(network);
            println!("acyclic module graph: {} edges", dag.len());
        }
    }
    let written = || -> Result<(), String> {
        let writing = |path: &str, e: &dyn Display| format!("writing {path}: {e}");
        if let Some(path) = &opts.xml {
            monet::write_xml_file(network, path).map_err(|e| writing(path, &e))?;
        }
        if let Some(path) = &opts.json {
            monet::write_json_file(network, path).map_err(|e| writing(path, &e))?;
        }
        if let Some(path) = &opts.trace {
            let trace = mn_comm::obs::chrome_trace_json(snapshot);
            std::fs::write(path, trace).map_err(|e| writing(path, &e))?;
        }
        if let Some(path) = &opts.metrics_out {
            let metrics = RunMetrics::new(report, snapshot);
            metrics.write_file(path).map_err(|e| writing(path, &e))?;
        }
        Ok(())
    };
    written().map_or_else(fail, |()| ExitCode::SUCCESS)
}

/// One rank of a `proc:<p>` run: connect to the supervisor, learn the
/// network over the proc fabric, and — on rank 0 — write every output
/// the user asked for. This is the `monet worker` entrypoint; the
/// supervisor spawns one per rank with the run flags forwarded
/// verbatim, so data loading and configuration are replicated exactly.
fn run_worker(opts: &Options, w: &WorkerOpts, prepared: Prepared) -> ExitCode {
    let Prepared { data, config, plan } = prepared;
    let addr = match ProcAddr::parse(&w.socket) {
        Ok(addr) => addr,
        Err(e) => return fail(format!("--proc-socket: {e}")),
    };
    let timeout = opts.comm_timeout_ms.map(Duration::from_millis);
    let dump_dir = opts.flightrec_dir.clone().unwrap_or_else(|| ".".to_string());
    // A supervisor that never appears (or never finishes the
    // handshake) is a bounded, typed failure — the same exit code 3 a
    // mid-run fault gets, since from this rank's perspective the
    // fabric failed.
    let ep = match connect_worker(WorkerConfig {
        rank: w.rank,
        nranks: w.nranks,
        addr,
        connect_timeout: timeout.unwrap_or(DEFAULT_CONNECT_TIMEOUT),
        recv_timeout: timeout,
        faults: plan,
        dump_dir: dump_dir.clone().into(),
    }) {
        Ok(ep) => ep,
        Err(e) => return RunFailure::Fault(format!("handshake: {e}")).exit(Some(w.rank)),
    };
    let (mut engine, flight, stash) = mn_comm::msg::spmd_worker_engine(ep);
    // A SIGTERMed or panicking worker still leaves its flight ring on
    // disk — this process IS the rank; nothing else holds the handle.
    let dump = {
        let (flight, dir) = (flight.clone(), dump_dir);
        move || {
            let _ = std::fs::create_dir_all(&dir);
            let _ = flight.dump_to_dir(std::path::Path::new(&dir));
        }
    };
    mn_comm::sys::on_sigterm(dump.clone());
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        dump();
        prev(info);
    }));
    let result = with_telemetry(opts, |telemetry| {
        let result = catch_faults(|| {
            let (network, report, snapshot) =
                run_on(&mut engine, opts, &data, &config, telemetry)?;
            // Post-run snapshot gather so rank 0 can merge every
            // rank's timeline, mirroring the in-process launcher's
            // thread-join collection. Muted: post-run traffic is
            // outside the deterministic accounting contract.
            engine.endpoint().set_obs_muted(true);
            let mut all = mn_comm::msg::allgatherv(engine.endpoint(), vec![snapshot])
                .map_err(|e| RunFailure::Fault(format!("snapshot gather: {e}")))?;
            engine.endpoint().set_obs_muted(false);
            match w.rank {
                0 => merged(network, report, &all),
                rank => Ok((network, report, all.swap_remove(rank))),
            }
        });
        // Goodbye on every deliberate exit — success or diagnosed
        // fault — so the supervisor's EOF-is-death detection only
        // fires for ranks that really vanished (SIGKILL, crash). A
        // survivor aborting on a peer's death reports it through exit
        // code 3, not by looking dead itself.
        engine.endpoint().goodbye();
        result
    });
    let capture = SpmdCapture {
        flights: vec![flight],
        stashes: vec![stash],
    };
    match result {
        Ok(result) => conclude(opts, &capture, result),
        Err(e) => fail(e),
    }
}

/// The `--engine proc:<p>` parent: bind the socket, spawn one `monet
/// worker` child per rank, route messages and watch liveness until
/// every worker departs, then fold the children's exits into the run's
/// exit code — 0 clean, 3 for any real or injected fault (with a
/// one-line diagnosis naming the dead rank and its heartbeat age), 1
/// for ordinary errors.
fn run_supervisor(opts: &Options, p: usize) -> ExitCode {
    let addr = match std::env::var("MN_PROC_ADDR") {
        Ok(spec) => match ProcAddr::parse(&spec) {
            Ok(addr) => addr,
            Err(e) => return fail(format!("MN_PROC_ADDR: {e}")),
        },
        Err(_) => ProcAddr::Unix(
            std::env::temp_dir().join(format!("mn-proc-{}.sock", std::process::id())),
        ),
    };
    let mut sup = match Supervisor::bind(&addr, p) {
        Ok(sup) => sup,
        Err(e) => return fail(format!("binding {addr}: {e}")),
    };
    let worker_addr = sup.addr().to_string();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return fail(format!("resolving own executable: {e}")),
    };
    // Forward the original command line verbatim (workers ignore
    // --engine); each child re-loads data and re-derives the identical
    // config, the SPMD way.
    let forwarded: Vec<String> = std::env::args().skip(1).collect();
    let mut children = Vec::with_capacity(p);
    let abandon = |children: &mut Vec<std::process::Child>, e: String| {
        for child in children {
            let _ = child.kill();
            let _ = child.wait();
        }
        fail(e)
    };
    for rank in 0..p {
        let spawned = std::process::Command::new(&exe)
            .arg("worker")
            .arg("--proc-rank")
            .arg(rank.to_string())
            .arg("--proc-nranks")
            .arg(p.to_string())
            .arg("--proc-socket")
            .arg(&worker_addr)
            .args(&forwarded)
            .spawn();
        match spawned {
            Ok(child) => children.push(child),
            Err(e) => return abandon(&mut children, format!("spawning worker {rank}: {e}")),
        }
    }
    let timeout = opts
        .comm_timeout_ms
        .map(Duration::from_millis)
        .unwrap_or(DEFAULT_CONNECT_TIMEOUT);
    if let Err(e) = sup.accept_workers(timeout) {
        return abandon(&mut children, format!("worker handshake: {e}"));
    }
    let pids = sup.pids();
    let report = sup.route(|rank| {
        // The stall monitor declared this rank dead; make it so, which
        // turns the stall into an ordinary socket-EOF death.
        let _ = mn_comm::sys::send_signal(pids[rank], mn_comm::sys::SIGKILL);
    });
    if let ProcAddr::Unix(path) = &addr {
        let _ = std::fs::remove_file(path);
    }
    use std::os::unix::process::ExitStatusExt;
    let mut fault: Option<String> = None;
    let mut error: Option<String> = None;
    for (rank, mut child) in children.into_iter().enumerate() {
        let status = match child.wait() {
            Ok(status) => status,
            Err(e) => {
                error.get_or_insert(format!("waiting on rank {rank}: {e}"));
                continue;
            }
        };
        if let Some(sig) = status.signal() {
            fault.get_or_insert(format!("rank {rank} killed by signal {sig}"));
        } else {
            match status.code() {
                Some(0) | None => {}
                Some(3) => {
                    fault.get_or_insert(format!(
                        "rank {rank} aborted on a fault (diagnosis on its stderr above)"
                    ));
                }
                Some(code) => {
                    error.get_or_insert(format!("rank {rank} exited with code {code}"));
                }
            }
        }
    }
    // A routed death carries the most precise diagnosis: which rank
    // vanished, how it was detected, and how stale its heartbeat was.
    if let Some((rank, age, stalled)) = report.first_death() {
        let how = if stalled {
            "stalled (heartbeat timeout)"
        } else {
            "died (socket closed)"
        };
        fault = Some(format!(
            "rank {rank} {how}; last heartbeat {} ms before detection",
            age.as_millis()
        ));
    }
    match (fault, error) {
        (Some(msg), _) => RunFailure::Fault(msg).exit(None),
        (None, Some(msg)) => RunFailure::Error(msg).exit(None),
        (None, None) => ExitCode::SUCCESS,
    }
}

// ---------------------------------------------------------------------
// `monet serve` / `monet client` — the long-lived service (DESIGN.md
// §16)
// ---------------------------------------------------------------------

fn serve_usage() -> ! {
    eprintln!(
        "usage: monet serve --listen unix:<path>|tcp:<host:port>\n\
         \x20      [--state-dir dir] [--workers N] [--max-queue N]\n\
         \x20      [--telemetry-interval-ms T]"
    );
    std::process::exit(2)
}

fn serve_main(args: &[String]) -> ExitCode {
    use monet_serve::{ServeConfig, Server};
    let mut listen: Option<String> = None;
    let mut state_dir = "monet-serve-state".to_string();
    let mut workers = 2usize;
    let mut max_queue = 64usize;
    let mut interval_ms = 50u64;
    let mut i = 0;
    let value = |args: &[String], i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| serve_usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => listen = Some(value(args, &mut i)),
            "--state-dir" => state_dir = value(args, &mut i),
            "--workers" => workers = value(args, &mut i).parse().unwrap_or_else(|_| serve_usage()),
            "--max-queue" => {
                max_queue = value(args, &mut i).parse().unwrap_or_else(|_| serve_usage())
            }
            "--telemetry-interval-ms" => {
                interval_ms = value(args, &mut i).parse().unwrap_or_else(|_| serve_usage())
            }
            _ => serve_usage(),
        }
        i += 1;
    }
    let Some(listen) = listen else { serve_usage() };
    let addr = match ProcAddr::parse(&listen) {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("error: --listen {listen}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut cfg = ServeConfig::new(addr, state_dir.into());
    cfg.workers = workers.max(1);
    cfg.max_queue = max_queue.max(1);
    cfg.telemetry_interval = Duration::from_millis(interval_ms.max(1));
    let server = match Server::bind(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: binding listener: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Scripts (CI, tests) wait for this exact line before connecting.
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: serving: {e}");
            ExitCode::FAILURE
        }
    }
}

fn client_usage() -> ! {
    eprintln!(
        "usage: monet client --connect <addr> <op> [flags]\n\
         ops:\n\
         \x20 ping\n\
         \x20 register --tenant T --dataset D (--synthetic n,m [--seed s] | --tsv path)\n\
         \x20 submit --tenant T --dataset D [--engine serial|threads:<p>|sim:<p>]\n\
         \x20        [--seed N] [--ganesh-runs G] [--update-steps U] [--init-clusters K0]\n\
         \x20        [--trees R] [--splits-per-node J] [--sampling-steps S] [--threshold T]\n\
         \x20        [--reference]\n\
         \x20 status --job J | watch --job J [--from N] | result --job J [--json path]\n\
         \x20 cancel --job J | suspend --job J | resume --job J [--engine E]\n\
         \x20 accounting [--tenant T] | jobs [--tenant T] | shutdown | raw <line>"
    );
    std::process::exit(2)
}

/// Flat `--flag value` parser for one client op.
fn client_flags(args: &[String]) -> std::collections::BTreeMap<String, String> {
    let mut flags = std::collections::BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let name = match args[i].strip_prefix("--") {
            Some(name) => name.to_string(),
            None => client_usage(),
        };
        i += 1;
        let Some(v) = args.get(i) else { client_usage() };
        flags.insert(name, v.clone());
        i += 1;
    }
    flags
}

fn client_main(args: &[String]) -> ExitCode {
    use monet_serve::client::Reply;
    use monet_serve::Client;

    // `--connect` may appear before or after the op token.
    let mut connect: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--connect" {
            i += 1;
            connect = Some(args.get(i).cloned().unwrap_or_else(|| client_usage()));
        } else {
            rest.push(args[i].clone());
        }
        i += 1;
    }
    let Some(connect) = connect else {
        client_usage()
    };
    if rest.is_empty() {
        client_usage();
    }
    let op = rest.remove(0);
    let addr = match ProcAddr::parse(&connect) {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("error: --connect {connect}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut client = match Client::connect(&addr, Duration::from_secs(10)) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("error: connecting to {connect}: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Each op prints the server's response line on stdout; a typed
    // refusal prints it and exits 1 (except `raw`, which only reports
    // transport failures — CI asserts on its output with jq).
    let finish = |reply: std::io::Result<Reply>| -> ExitCode {
        match reply {
            Ok(Reply::Ok(value)) => {
                println!("{}", serde_json::to_string(&value).expect("response reserializes"));
                ExitCode::SUCCESS
            }
            Ok(Reply::Err(err)) => {
                println!("{}", monet_serve::proto::err_line(&err));
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        }
    };

    match op.as_str() {
        "ping" => finish(client.ping()),
        "register" => {
            let flags = client_flags(&rest);
            let (Some(tenant), Some(dataset)) = (flags.get("tenant"), flags.get("dataset"))
            else {
                client_usage()
            };
            if let Some(tsv) = flags.get("tsv") {
                return finish(client.register_tsv(tenant, dataset, tsv));
            }
            let Some(synth) = flags.get("synthetic") else {
                client_usage()
            };
            let parts: Vec<&str> = synth.split(',').collect();
            if parts.len() != 2 {
                client_usage();
            }
            let n: usize = parts[0].parse().unwrap_or_else(|_| client_usage());
            let m: usize = parts[1].parse().unwrap_or_else(|_| client_usage());
            let seed: u64 = flags
                .get("seed")
                .map(|s| s.parse().unwrap_or_else(|_| client_usage()))
                .unwrap_or(0);
            finish(client.register_synthetic(tenant, dataset, n, m, seed))
        }
        "submit" => {
            // Learn flags land in the same Options the batch parser
            // fills, read by the same code, then go through the same
            // config builder.
            let mut opts = Options::defaults();
            let (mut tenant, mut dataset, mut engine) = (None, None, "serial".to_string());
            let mut i = 0;
            while i < rest.len() {
                let flag = rest[i].clone();
                let mut value = || {
                    i += 1;
                    rest.get(i).cloned().unwrap_or_else(|| client_usage())
                };
                match flag.as_str() {
                    "--tenant" => tenant = Some(value()),
                    "--dataset" => dataset = Some(value()),
                    "--engine" => engine = value(),
                    flag => {
                        if !learn_flag(&mut opts, flag, value, client_usage) {
                            client_usage()
                        }
                    }
                }
                i += 1;
            }
            let (Some(tenant), Some(dataset)) = (tenant, dataset) else {
                client_usage()
            };
            let config = match base_config(&opts).validated() {
                Ok(config) => config,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            finish(client.submit(&tenant, &dataset, &engine, &config))
        }
        "status" | "result" | "cancel" | "suspend" | "resume" | "watch" => {
            let flags = client_flags(&rest);
            let Some(job) = flags.get("job") else {
                client_usage()
            };
            match op.as_str() {
                "status" => finish(client.status(job)),
                "cancel" => finish(client.cancel(job)),
                "suspend" => finish(client.suspend(job)),
                "resume" => finish(client.resume(job, flags.get("engine").map(String::as_str))),
                "watch" => {
                    let from: usize = flags
                        .get("from")
                        .map(|v| v.parse().unwrap_or_else(|_| client_usage()))
                        .unwrap_or(0);
                    match client.watch(job, from, |line| println!("{line}")) {
                        Ok(done) => {
                            println!(
                                "{}",
                                serde_json::to_string(&done).expect("response reserializes")
                            );
                            ExitCode::SUCCESS
                        }
                        Err(e) => {
                            eprintln!("error: {e}");
                            ExitCode::FAILURE
                        }
                    }
                }
                "result" => match client.result_of(job) {
                    Ok(monet_serve::client::Reply::Ok(value)) => {
                        let Some(network_json) = value["network_json"].as_str() else {
                            eprintln!("error: response carried no network_json");
                            return ExitCode::FAILURE;
                        };
                        if let Some(path) = flags.get("json") {
                            // The exact batch-CLI `--json` bytes.
                            if let Err(e) = std::fs::write(path, network_json) {
                                eprintln!("error: writing {path}: {e}");
                                return ExitCode::FAILURE;
                            }
                        } else {
                            println!("{network_json}");
                        }
                        ExitCode::SUCCESS
                    }
                    other => finish(other),
                },
                _ => unreachable!(),
            }
        }
        "accounting" => {
            let flags = client_flags(&rest);
            finish(client.accounting(flags.get("tenant").map(String::as_str)))
        }
        "jobs" => {
            let flags = client_flags(&rest);
            finish(client.jobs(flags.get("tenant").map(String::as_str)))
        }
        "shutdown" => finish(client.shutdown()),
        "raw" => {
            // Send one arbitrary line and print whatever comes back —
            // the hostile-input drill hook. Exit 0 iff a response line
            // arrived; content assertions belong to the caller (jq).
            if rest.is_empty() {
                client_usage();
            }
            let line = rest.join(" ");
            match client.raw(&line) {
                Ok(value) => {
                    println!(
                        "{}",
                        serde_json::to_string(&value).expect("response reserializes")
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => client_usage(),
    }
}
