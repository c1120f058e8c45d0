//! The serving stack as a child process, so that its CPU time and
//! resident set are the program's and not the load generator's.
//!
//! The benchmark binary re-executes itself with `--child <role>`; the
//! child starts the role through the same public entry points the
//! `ktudc-serve` binary uses (`serve`, `serve_router`), announces its
//! addresses on stdout, and runs until its stdin closes — so a benchmark
//! that dies never leaves a server behind.

use ktudc_serve::{serve, serve_router, Membership, RetryPolicy, RouterConfig, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shards behind the router of the `cluster` role.
pub const SHARDS: usize = 3;

/// Scenario-cache capacity of each cluster shard: 3 × 64 entries against
/// 1024 specs keeps the measured miss share above 0.8, so the median
/// request computes.
const SHARD_CACHE_CAPACITY: usize = 64;

/// Entry point of `--child <role> [data-dir]`.
pub fn main(role: &str, data_dir: Option<&str>) {
    match role {
        "server" => server(data_dir.map(PathBuf::from)),
        "cluster" => cluster(),
        other => panic!("unknown child role `{other}`"),
    }
}

fn say(line: &str) {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{line}").expect("announce on stdout");
    out.flush().expect("flush stdout");
}

/// Blocks until the parent sends a line; `None` once stdin is closed.
fn next_command() -> Option<String> {
    let mut line = String::new();
    match std::io::stdin().lock().read_line(&mut line) {
        Ok(n) if n > 0 => Some(line.trim().to_string()),
        _ => None,
    }
}

/// One `serve` with defaults; durable when given a data directory
/// (`snapshot_every` stays at its default of 32).
fn server(data_dir: Option<PathBuf>) {
    let handle = serve(&ServeConfig {
        data_dir,
        ..ServeConfig::default()
    })
    .expect("bind server");
    say(&format!("ready {}", handle.addr()));
    while next_command().is_some() {}
    handle.shutdown();
    handle.join();
}

/// `serve_router` over three in-process `serve` shards. The parent owns
/// the relays between router and shards, so the child first announces the
/// shards, then waits to be told the addresses the router must use.
fn cluster() {
    let shards: Vec<_> = (0..SHARDS)
        .map(|_| {
            serve(&ServeConfig {
                cache_capacity: SHARD_CACHE_CAPACITY,
                ..ServeConfig::default()
            })
            .expect("bind shard")
        })
        .collect();
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
    say(&format!("shards {}", addrs.join(" ")));

    let relays = next_command().expect("the parent names the relays");
    let relays: Vec<String> = relays
        .strip_prefix("relays ")
        .expect("a `relays` line")
        .split(' ')
        .map(str::to_string)
        .collect();
    assert_eq!(relays.len(), SHARDS, "one relay per shard");
    // One short exchange deadline and one retry: how long a forward may
    // sit on a black-holed shard is what the outage workload measures.
    let router = serve_router(
        &RouterConfig {
            policy: RetryPolicy {
                request_timeout: Duration::from_millis(250),
                max_retries: 1,
                ..RetryPolicy::default()
            },
            ..RouterConfig::default()
        },
        Arc::new(Membership::new(relays)),
    )
    .expect("bind router");
    say(&format!("router {}", router.addr()));

    while let Some(command) = next_command() {
        if command == "failovers" {
            say(&format!("failovers {}", router.failovers()));
        }
    }
    router.shutdown();
    router.join();
    for shard in shards {
        shard.shutdown();
        shard.join();
    }
}

/// The parent's handle on a child: its pid for `/proc`, its stdout for
/// announcements, its stdin as the lifeline.
pub struct ChildProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl ChildProc {
    pub fn spawn(role: &str, data_dir: Option<&std::path::Path>) -> ChildProc {
        let exe = std::env::current_exe().expect("own executable path");
        let mut command = Command::new(exe);
        command.arg("--child").arg(role);
        if let Some(dir) = data_dir {
            command.arg(dir);
        }
        let mut child = command
            // The thread count is the machine's, never an inherited override.
            .env_remove("KTUDC_THREADS")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn child");
        ChildProc {
            stdin: child.stdin.take(),
            stdout: BufReader::new(child.stdout.take().expect("piped stdout")),
            child,
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Reads one announcement `"<keyword> <word>..."` and returns the words.
    pub fn expect(&mut self, keyword: &str) -> Vec<String> {
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .expect("read child announcement");
        let mut words = line.split_whitespace().map(str::to_string);
        assert_eq!(
            words.next().as_deref(),
            Some(keyword),
            "child announced `{}`, expected `{keyword}`",
            line.trim()
        );
        words.collect()
    }

    pub fn send(&mut self, line: &str) {
        let stdin = self.stdin.as_mut().expect("child stdin is open");
        writeln!(stdin, "{line}").expect("write to child");
        stdin.flush().expect("flush child stdin");
    }

    /// Closes the child's stdin (its cue to drain and exit) and waits for
    /// it, killing it if it has not gone within ten seconds.
    pub fn stop(mut self) {
        self.stdin.take();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // Drop kills and reaps it.
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
