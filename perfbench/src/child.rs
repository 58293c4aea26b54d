//! Child processes with wall time, peak memory and a timeout.
//!
//! Peak memory is `wait4(2)`'s `ru_maxrss`: the largest resident set of
//! the child and of every descendant it reaped, so a `proc:<p>`
//! supervisor reports the largest of itself and its workers. On exec,
//! Linux folds the high-water mark of the *spawning* process's memory
//! into that figure, and the benchmark holds whole data sets; so every
//! child is launched through a small helper, `perfbench spawn`, whose
//! own memory stays tiny. The helper starts the program, reaps it,
//! kills it on timeout or when the benchmark closes the helper's stdin,
//! and reports one result line on stdout.
//!
//! The workspace vendors no `libc`, so `wait4` is declared against the
//! platform C library, as `mn_comm::sys` does for its calls.

use monet::mn_comm::sys::{send_signal, SIGKILL};
use std::io::{self, BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of
/// which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

const EINTR: i32 = 4;

/// How a child ended.
#[derive(Debug, Clone, PartialEq)]
pub struct Exit {
    /// Spawn to reap, seconds.
    pub wall_s: f64,
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// Largest resident set of the child and its reaped descendants, MB.
    pub peak_rss_mb: f64,
    /// The timeout killed it.
    pub timed_out: bool,
}

impl Exit {
    /// Exited 0 within the timeout.
    pub fn success(&self) -> bool {
        self.code == Some(0) && !self.timed_out
    }

    fn to_line(&self) -> String {
        format!(
            "{} {} {} {}",
            self.code.map_or("signal".to_string(), |c| c.to_string()),
            self.wall_s,
            self.peak_rss_mb,
            u8::from(self.timed_out)
        )
    }

    fn from_line(line: &str) -> Option<Exit> {
        let f: Vec<&str> = line.split_whitespace().collect();
        let [code, wall, rss, timed_out] = f[..] else {
            return None;
        };
        Some(Exit {
            code: code.parse().ok(),
            wall_s: wall.parse().ok()?,
            peak_rss_mb: rss.parse().ok()?,
            timed_out: timed_out == "1",
        })
    }
}

/// Block in `wait4` for `pid`, retrying on EINTR.
fn reap(pid: i32) -> io::Result<(i32, Rusage)> {
    let mut status = 0;
    let mut rusage = Rusage::default();
    loop {
        // SAFETY: `status` and `rusage` are live, writable and laid out
        // as wait4(2) expects; `pid` is this process's unreaped child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut rusage) };
        if r == pid {
            return Ok((status, rusage));
        }
        let err = io::Error::last_os_error();
        if err.raw_os_error() != Some(EINTR) {
            return Err(err);
        }
    }
}

/// The helper: `perfbench spawn <timeout_ms> <program> [args...]`.
/// Runs the program with stdout discarded and stderr inherited, and
/// prints its [`Exit`] as one line.
pub fn helper_main(args: &[String]) -> ExitCode {
    let (Some(timeout_ms), Some(program)) =
        (args.first().and_then(|t| t.parse().ok()), args.get(1))
    else {
        eprintln!("usage: perfbench spawn <timeout_ms> <program> [args...]");
        return ExitCode::from(2);
    };
    let start = Instant::now();
    let child = Command::new(program)
        .args(&args[2..])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn();
    let pid = match child {
        Ok(c) => c.id() as i32,
        Err(e) => {
            eprintln!("perfbench spawn: {program}: {e}");
            return ExitCode::from(1);
        }
    };
    let reaped = Arc::new(AtomicBool::new(false));
    let kill = move |reaped: &AtomicBool| {
        if !reaped.load(Ordering::SeqCst) {
            send_signal(pid as u32, SIGKILL);
        }
    };
    // The benchmark closing our stdin (or dying) ends the child too.
    let abandoned = Arc::clone(&reaped);
    std::thread::spawn(move || {
        let _ = io::stdin().lock().read_to_end(&mut Vec::new());
        kill(&abandoned);
    });
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let expiry = Arc::clone(&reaped);
    let watchdog = std::thread::spawn(move || {
        let expired = done_rx.recv_timeout(Duration::from_millis(timeout_ms))
            == Err(mpsc::RecvTimeoutError::Timeout);
        if expired {
            kill(&expiry);
        }
        expired
    });
    let reaped_result = reap(pid);
    reaped.store(true, Ordering::SeqCst);
    let wall_s = start.elapsed().as_secs_f64();
    let _ = done_tx.send(());
    let timed_out = watchdog.join().unwrap_or(false);
    let (status, rusage) = match reaped_result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench spawn: wait4: {e}");
            return ExitCode::from(1);
        }
    };
    // WIFEXITED: low 7 bits clear; WEXITSTATUS: the next byte.
    let exit = Exit {
        wall_s,
        code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        peak_rss_mb: rusage.maxrss as f64 / 1024.0,
        timed_out,
    };
    println!("{}", exit.to_line());
    ExitCode::SUCCESS
}

/// A program running under the helper. Dropping it without
/// [`Launched::wait`] kills the program and reaps both processes.
pub struct Launched {
    helper: Child,
    stdin: Option<ChildStdin>,
}

impl Launched {
    /// Start `program args` under the helper, killed after `timeout`;
    /// its stderr goes to `stderr`.
    pub fn spawn(
        program: &Path,
        args: &[String],
        timeout: Duration,
        stderr: Stdio,
    ) -> io::Result<Launched> {
        let mut helper = Command::new(std::env::current_exe()?)
            .arg("spawn")
            .arg(timeout.as_millis().to_string())
            .arg(program)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()?;
        let stdin = helper.stdin.take();
        Ok(Launched { helper, stdin })
    }

    /// Wait for the program to end.
    pub fn wait(mut self) -> io::Result<Exit> {
        let mut line = String::new();
        if let Some(out) = self.helper.stdout.take() {
            BufReader::new(out).read_line(&mut line)?;
        }
        Exit::from_line(&line).ok_or_else(|| io::Error::other(format!("helper reported {line:?}")))
    }
}

impl Drop for Launched {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.helper.wait();
    }
}

/// Run `program args` to completion under `timeout`.
pub fn run(program: &Path, args: &[String], timeout: Duration, stderr: Stdio) -> io::Result<Exit> {
    Launched::spawn(program, args, timeout, stderr)?.wait()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_line_round_trips() {
        let exit = Exit {
            wall_s: 1.25,
            code: Some(3),
            peak_rss_mb: 12.5,
            timed_out: false,
        };
        assert_eq!(Exit::from_line(&exit.to_line()), Some(exit));
        let killed = Exit {
            wall_s: 0.5,
            code: None,
            peak_rss_mb: 1.0,
            timed_out: true,
        };
        assert_eq!(Exit::from_line(&killed.to_line()), Some(killed));
        assert_eq!(Exit::from_line("garbage"), None);
    }
}
