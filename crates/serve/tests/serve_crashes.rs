//! Kill -9 soak of the durable `ktudc-serve` daemon and the `ctl
//! resume` checkpoint path. Real child processes are SIGKILLed at
//! arbitrary points — including mid-snapshot and mid-replay — and the
//! assertions are the recovery contract: every boot loads only
//! checksum-valid snapshots (corruption is skipped and counted, never
//! served), every answered request matches the direct library
//! computation, the generation strictly increases across restarts, and
//! the recovered cache answers warm where a cold start could not.

#![cfg(unix)]

use ktudc_core::harness::{run_cell, CellSpec, FdChoice, ProtocolChoice};
use ktudc_serve::{Call, Client, RequestKind, ResponseKind, ServerCall};
use ktudc_sim::{run_explore_spec, ExploreSpec};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!("ktudc-crash-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("create temp dir");
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Spawns a durable daemon on an ephemeral port and parses the bound
/// address from its stdout.
fn spawn_durable_server(data_dir: &Path) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ktudc-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--snapshot-every",
            "1",
            "--data-dir",
        ])
        .arg(data_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ktudc-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before announcing its address")
            .expect("read server stdout");
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest.trim().parse::<SocketAddr>().expect("parse addr");
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

fn sigkill(child: &mut Child) {
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");
}

/// The recurring request every cycle re-asks: once computed in cycle 0
/// it must be answered from the recovered cache forever after.
fn recurring() -> RequestKind {
    RequestKind::Explore(ExploreSpec::new(2, 2))
}

/// A per-cycle cell request, distinct for each cycle.
fn cycle_cell(cycle: usize) -> CellSpec {
    CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
        .trials(1)
        .horizon(60 + cycle as u64)
}

#[test]
fn kill_nine_soak_recovers_warm_and_never_answers_wrong() {
    const CYCLES: usize = 21;
    let tmp = TempDir::new("soak");
    let recurring_payload =
        ResponseKind::Explore(run_explore_spec(&ExploreSpec::new(2, 2)).expect("valid spec"));

    let mut last_generation = 0u64;
    let mut warm_hits_after_recovery = 0u64;
    for cycle in 0..CYCLES {
        let (mut child, addr) = spawn_durable_server(&tmp.0);
        let mut client = Client::connect(addr).expect("connect");

        // Recovery invariants: strictly increasing generation, and no
        // corrupt snapshot was ever loaded (skipped ones are counted).
        let health = client.health().expect("health");
        assert!(health.durable);
        assert!(
            health.generation > last_generation,
            "cycle {cycle}: generation {} after {last_generation}",
            health.generation
        );
        assert_eq!(
            health.corrupt_snapshots_skipped, 0,
            "cycle {cycle}: SIGKILL must never produce a corrupt snapshot \
             (atomic rename): {health:?}"
        );
        last_generation = health.generation;

        // The recurring request: computed exactly once (cycle 0), then
        // answered warm from the recovered snapshot on every restart.
        let response = client.request(recurring()).expect("recurring request");
        assert_eq!(response.result, recurring_payload, "cycle {cycle}");
        assert_eq!(response.generation, health.generation);
        if cycle == 0 {
            assert!(!response.cached, "nothing to recover on first boot");
        } else {
            assert!(
                response.cached,
                "cycle {cycle}: recovered cache must answer the recurring \
                 request warm"
            );
            warm_hits_after_recovery += 1;
        }

        // A fresh computation each cycle, correctness-checked against
        // the direct library call. With --snapshot-every 1 this also
        // schedules a snapshot we may SIGKILL in the middle of.
        let spec = cycle_cell(cycle);
        let response = client
            .request(RequestKind::Cell(spec.clone()))
            .expect("cell request");
        assert_eq!(
            response.result,
            ResponseKind::Cell(run_cell(&spec)),
            "cycle {cycle}: served payload diverged from direct computation"
        );

        if cycle == 0 {
            // Give the first snapshot time to land so every later boot
            // provably has something to recover.
            let _ = client.health();
            std::thread::sleep(Duration::from_millis(100));
        }
        // No shutdown, no drain: SIGKILL, possibly mid-snapshot.
        sigkill(&mut child);
    }

    // Cache hit-rate after recovery beats a cold start: a cold start
    // has zero hits, every recovered boot answered warm.
    assert_eq!(
        warm_hits_after_recovery,
        (CYCLES - 1) as u64,
        "every post-recovery cycle must hit the recovered cache"
    );
}

#[test]
fn ctl_resume_survives_sigkill_and_matches_uninterrupted_digest() {
    use ktudc_store::SyncPolicy;

    let tmp = TempDir::new("resume");
    let path = tmp.0.join("explore.ckpt");
    let spec = ExploreSpec::new(2, 3);
    let baseline = run_explore_spec(&spec).expect("valid spec");

    // Build a complete checkpoint journal, then tear its tail off so a
    // resume has real work left to do.
    let (result, _) = ktudc_sim::explore_spec_checkpointed(&spec, &path, SyncPolicy::Always)
        .expect("checkpointed exploration");
    assert_eq!(ktudc_sim::system_digest(&result.system), baseline.digest);
    let torn = std::fs::metadata(&path).expect("stat journal").len() - 37;
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("open journal");
    file.set_len(torn).expect("tear journal tail");
    drop(file);

    // First resume attempt: SIGKILL at an arbitrary point. Whether it
    // lands mid-replay, mid-compute, or after completion, the journal
    // must stay resumable.
    let mut child = Command::new(env!("CARGO_BIN_EXE_ctl"))
        .arg("resume")
        .arg(&path)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ctl resume");
    std::thread::sleep(Duration::from_millis(10));
    let _ = child.kill();
    let _ = child.wait();

    // Second resume attempt runs to completion and must reproduce the
    // uninterrupted digest bit-identically.
    let expected = format!("digest = {:#018x}", baseline.digest);
    for round in 0..2 {
        let output = Command::new(env!("CARGO_BIN_EXE_ctl"))
            .arg("resume")
            .arg(&path)
            .output()
            .expect("run ctl resume");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "round {round}: ctl resume failed: {stdout}\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(
            stdout.contains(&expected),
            "round {round}: digest diverged from uninterrupted run:\n{stdout}"
        );
    }
}

/// The same SIGKILL-mid-resume contract, but with the journal written
/// under group-commit batching ([`SyncPolicy::EveryN`]): multiple frames
/// share each fsync, so a kill can land with a whole batch's durability
/// in flight. Torn or unsynced tails must be truncated at recovery, and
/// the re-explored remainder must still land on the uninterrupted
/// digest.
#[test]
fn ctl_resume_survives_sigkill_with_group_commit_batching() {
    use ktudc_store::SyncPolicy;

    let tmp = TempDir::new("resume-batched");
    let path = tmp.0.join("explore-batched.ckpt");
    // A slightly wider spec than the Always-policy test: more subtrees,
    // so EveryN(4) actually spans several batches.
    let spec = ExploreSpec::new(2, 4);
    let baseline = run_explore_spec(&spec).expect("valid spec");

    let (result, _) = ktudc_sim::explore_spec_checkpointed(&spec, &path, SyncPolicy::EveryN(4))
        .expect("checkpointed exploration");
    assert_eq!(ktudc_sim::system_digest(&result.system), baseline.digest);
    let torn = std::fs::metadata(&path).expect("stat journal").len() - 23;
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("open journal");
    file.set_len(torn).expect("tear journal tail");
    drop(file);

    let mut child = Command::new(env!("CARGO_BIN_EXE_ctl"))
        .arg("resume")
        .arg(&path)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ctl resume");
    std::thread::sleep(Duration::from_millis(10));
    let _ = child.kill();
    let _ = child.wait();

    let expected = format!("digest = {:#018x}", baseline.digest);
    for round in 0..2 {
        let output = Command::new(env!("CARGO_BIN_EXE_ctl"))
            .arg("resume")
            .arg(&path)
            .output()
            .expect("run ctl resume");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "round {round}: ctl resume failed: {stdout}\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(
            stdout.contains(&expected),
            "round {round}: digest diverged from uninterrupted run:\n{stdout}"
        );
    }
}
