//! The served closed loop: `monet serve` as a child process, driven by
//! one client thread per tenant through `monet_serve::Client`.
//!
//! Each client submits a serial learn job, `watch`es it to `done`,
//! fetches the result, checks it byte for byte against the batch
//! network of the same (data set, seed), and only then submits the
//! next: a closed loop of two clients against two workers.

use crate::check::{check_output, Reference};
use crate::child::{Exit, Launched};
use crate::inputs::{mix, PoolEntry, TENANTS};
use crate::report::Tally;
use crate::stats;
use monet::mn_comm::msg::proc::ProcAddr;
use monet_serve::client::Reply;
use monet_serve::Client;
use serde::Content;
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Stdio;
use std::time::{Duration, Instant};

/// Worker threads of the server.
pub const WORKERS: usize = 2;
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// A server still running after this is killed.
const SERVER_TIMEOUT: Duration = Duration::from_secs(120);
/// A client gives up after this many failed jobs (the run has failed
/// by then anyway).
const MAX_CLIENT_FAILURES: usize = 10;

/// A running `monet serve` child; killed and reaped if dropped.
pub struct Server {
    process: Option<Launched>,
    addr: ProcAddr,
    /// The server's state directory (per-job checkpoints).
    pub state_dir: PathBuf,
}

impl Server {
    /// Spawn a server in `dir` and wait until it answers `ping`.
    pub fn start(monet: &Path, dir: &Path) -> io::Result<Server> {
        std::fs::create_dir_all(dir)?;
        let sock = dir.join("sock");
        let _ = std::fs::remove_file(&sock);
        let state_dir = dir.join("state");
        let log = std::fs::File::create(dir.join("server.log"))?;
        let args = [
            "serve".to_string(),
            "--listen".into(),
            format!("unix:{}", sock.display()),
            "--state-dir".into(),
            state_dir.display().to_string(),
            "--workers".into(),
            WORKERS.to_string(),
            "--max-queue".into(),
            "64".into(),
        ];
        let launched = Launched::spawn(monet, &args, SERVER_TIMEOUT, Stdio::from(log))?;
        let server = Server {
            process: Some(launched),
            addr: ProcAddr::Unix(sock),
            state_dir,
        };
        match server.client()?.ping()? {
            Reply::Ok(_) => Ok(server),
            Reply::Err(e) => Err(io::Error::other(e)),
        }
    }

    /// A new connection.
    pub fn client(&self) -> io::Result<Client> {
        Client::connect(&self.addr, CONNECT_TIMEOUT)
    }

    /// Register every tenant's pool data sets; one operation each.
    pub fn register(&self, pool: &[PoolEntry], tally: &Tally) -> io::Result<()> {
        let mut client = self.client()?;
        for entry in pool {
            let path = entry.case.tsv.display().to_string();
            let outcome = match client.register_tsv(entry.tenant, &entry.dataset, &path)? {
                Reply::Ok(_) => Ok(()),
                Reply::Err(e) => Err(e.to_string()),
            };
            tally.record(
                &format!("register {}/{}", entry.tenant, entry.dataset),
                outcome,
            );
        }
        Ok(())
    }

    /// Per-tenant accounting, summed: (completed jobs, busy seconds,
    /// checkpoint units written).
    pub fn accounting(&self) -> io::Result<(u64, f64, u64)> {
        let value = self.client()?.accounting(None)?.into_result()?;
        let mut totals = (0, 0.0, 0);
        if let Some(tenants) = value["tenants"].as_object() {
            for (_, acct) in tenants {
                totals.0 += acct["completed"].as_u64().unwrap_or(0);
                totals.1 += acct["busy_s"].as_f64().unwrap_or(0.0);
                totals.2 += acct["counters"]["checkpoint.units_written"]
                    .as_u64()
                    .unwrap_or(0);
            }
        }
        Ok(totals)
    }

    /// Ask the server to shut down and reap it.
    pub fn stop(mut self) -> io::Result<Exit> {
        let _ = self.client().and_then(|mut c| c.shutdown());
        let process = self.process.take().expect("server is stopped once");
        process.wait()
    }
}

/// Client-side timestamps of one served job, seconds.
#[derive(Debug, Clone, Copy)]
pub struct JobSample {
    /// Index into the pool.
    pub entry: usize,
    /// Submit request to its reply.
    pub submit_s: f64,
    /// Submit reply to the `running` event.
    pub queue_s: f64,
    /// `running` to `done`.
    pub run_s: f64,
    /// The `result` request to its reply.
    pub result_s: f64,
    /// Submit request to result received.
    pub job_s: f64,
}

/// The outcome of a closed loop.
#[derive(Debug, Clone)]
pub struct LoopResult {
    /// Completed, checked jobs.
    pub jobs: Vec<JobSample>,
    /// Wall time of the loop, seconds.
    pub wall_s: f64,
    /// Share of completed jobs whose (data set, seed) ran before.
    pub repeat_frac: f64,
}

/// Run one client per tenant until each has completed
/// `jobs_per_client` jobs, checking every result
/// against `refs` (one per pool entry). Each client cycles through its
/// tenant's pool entries in an order drawn from `seed`, so every run
/// serves the same mix of job sizes.
pub fn closed_loop(
    server: &Server,
    pool: &[PoolEntry],
    refs: &[Reference],
    seed: u64,
    jobs_per_client: usize,
    tally: &Tally,
) -> LoopResult {
    let start = Instant::now();
    let jobs: Vec<JobSample> = std::thread::scope(|scope| {
        let handles: Vec<_> = TENANTS
            .iter()
            .enumerate()
            .map(|(t, &tenant)| {
                scope.spawn(move || {
                    let mine = shuffled(
                        (0..pool.len())
                            .filter(|&i| pool[i].tenant == tenant)
                            .collect(),
                        mix(seed, 500 + t as u64),
                    );
                    let mut out = Vec::new();
                    let mut client = match server.client() {
                        Ok(c) => c,
                        Err(e) => {
                            tally.record(&format!("{tenant} connect"), Err(e.to_string()));
                            return out;
                        }
                    };
                    let mut failures = 0;
                    let mut next = 0;
                    while out.len() < jobs_per_client && failures < MAX_CLIENT_FAILURES {
                        let entry = mine[next % mine.len()];
                        next += 1;
                        let outcome = one_job(&mut client, &pool[entry], &refs[entry], entry);
                        let what = format!("{tenant} job {}", pool[entry].case.label);
                        match outcome {
                            Ok(sample) => {
                                tally.record(&what, Ok(()));
                                out.push(sample);
                            }
                            Err(why) => {
                                failures += 1;
                                tally.record(&what, Err(why));
                                // A broken connection would fail every
                                // later job the same way.
                                match server.client() {
                                    Ok(c) => client = c,
                                    Err(_) => break,
                                }
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let distinct = jobs.iter().map(|j| j.entry).collect::<BTreeSet<_>>().len();
    LoopResult {
        repeat_frac: 1.0 - distinct as f64 / jobs.len().max(1) as f64,
        jobs,
        wall_s,
    }
}

/// `items` in a seeded random order (Fisher-Yates).
fn shuffled(mut items: Vec<usize>, seed: u64) -> Vec<usize> {
    let mut rng = seed;
    for i in (1..items.len()).rev() {
        rng = mix(rng, i as u64);
        items.swap(i, (rng % (i as u64 + 1)) as usize);
    }
    items
}

fn reply_ok(reply: io::Result<Reply>, op: &str) -> Result<Content, String> {
    match reply {
        Ok(Reply::Ok(value)) => Ok(value),
        Ok(Reply::Err(e)) => Err(format!("{op}: {e}")),
        Err(e) => Err(format!("{op}: {e}")),
    }
}

fn one_job(
    client: &mut Client,
    entry: &PoolEntry,
    reference: &Reference,
    index: usize,
) -> Result<JobSample, String> {
    let t0 = Instant::now();
    let submitted = reply_ok(
        client.submit(entry.tenant, &entry.dataset, "serial", &reference.config),
        "submit",
    )?;
    let t_submitted = Instant::now();
    let job = submitted["job"]
        .as_str()
        .ok_or("submit reply has no job id")?
        .to_string();
    let mut running = None;
    let mut done = None;
    let finished = client
        .watch(&job, 0, |line| {
            if line.contains("\"what\":\"running\"") {
                running.get_or_insert_with(Instant::now);
            } else if line.contains("\"what\":\"done\"") {
                done.get_or_insert_with(Instant::now);
            }
        })
        .map_err(|e| format!("watch: {e}"))?;
    let (Some(running), Some(done)) = (running, done) else {
        return Err(format!(
            "job {job} ended without running/done events ({:?})",
            finished["state"].as_str()
        ));
    };
    let t_result = Instant::now();
    let result = reply_ok(client.result_of(&job), "result")?;
    let t_end = Instant::now();
    let bytes = result["network_json"]
        .as_str()
        .ok_or("result has no network_json")?;
    check_output(bytes, reference)?;
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    Ok(JobSample {
        entry: index,
        submit_s: secs(t0, t_submitted),
        queue_s: secs(t_submitted, running),
        run_s: secs(running, done),
        result_s: secs(t_result, t_end),
        job_s: secs(t0, t_end),
    })
}

/// Median of one timestamp difference over the jobs.
pub fn p50(jobs: &[JobSample], f: impl Fn(&JobSample) -> f64) -> f64 {
    stats::median(&jobs.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// Total bytes of the files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}
