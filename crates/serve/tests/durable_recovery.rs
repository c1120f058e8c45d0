//! Both sides of checkpoint and restart, in process:
//!
//! * one exploration run plain, with a checkpoint journal (fsync on
//!   every entry, the worst case), and resumed from that journal after
//!   its tail was torn — all three produce the same run-set digest, and
//!   journaling costs at most 200 % of the plain walk (or, where the
//!   walk is too short for a ratio to mean anything, under 0.25 s);
//! * a durable daemon rebooted over a populated cache snapshot recovers
//!   exactly the entries it held.

use ktudc_core::harness::{CellSpec, FdChoice, ProtocolChoice};
use ktudc_serve::{serve, Call, Client, RequestKind, ServeConfig};
use ktudc_sim::{
    explore_spec_checkpointed, resume_checkpoint, run_explore_spec, system_digest, ExploreSpec,
};
use ktudc_store::SyncPolicy;
use std::path::PathBuf;
use std::time::Instant;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!("ktudc-recovery-{tag}-{}", std::process::id()));
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

#[test]
fn plain_checkpointed_and_torn_resumed_walks_share_one_digest() {
    let tmp = TempDir::new("journal");
    let mut spec = ExploreSpec::new(3, 6);
    spec.max_failures = 2;

    let t0 = Instant::now();
    let plain = run_explore_spec(&spec).expect("valid spec");
    let plain_secs = t0.elapsed().as_secs_f64();

    let journal = tmp.0.join("explore.ckpt");
    let t0 = Instant::now();
    let (checkpointed, _) = explore_spec_checkpointed(&spec, &journal, SyncPolicy::Always)
        .expect("checkpointed exploration");
    let checkpointed_secs = t0.elapsed().as_secs_f64();
    assert_eq!(system_digest(&checkpointed.system), plain.digest);

    // Tear the journal's tail, then resume: the lost subtrees are
    // recomputed, the surviving ones replayed.
    let len = std::fs::metadata(&journal).expect("stat journal").len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&journal)
        .expect("open journal")
        .set_len(len.saturating_sub(37))
        .expect("tear journal tail");
    let (_, resumed, _) =
        resume_checkpoint(&journal, SyncPolicy::Always).expect("resume torn journal");
    assert_eq!(system_digest(&resumed.system), plain.digest);

    let overhead_percent = (checkpointed_secs / plain_secs - 1.0) * 100.0;
    assert!(
        overhead_percent <= 200.0 || checkpointed_secs - plain_secs < 0.25,
        "checkpoint overhead {overhead_percent:.0}% ({checkpointed_secs:.3}s vs \
         {plain_secs:.3}s plain)"
    );
}

#[test]
fn a_durable_reboot_recovers_every_cached_entry() {
    let tmp = TempDir::new("serve");
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: Some(tmp.0.join("data")),
        snapshot_every: 1,
        ..ServeConfig::default()
    };
    let handle = serve(&config).expect("bind ephemeral port");
    let kinds: Vec<RequestKind> = (0..4)
        .map(|i| {
            RequestKind::Cell(
                CellSpec::new(3, 1, None, FdChoice::None, ProtocolChoice::Reliable)
                    .trials(2)
                    .horizon(80 + i),
            )
        })
        .collect();
    Client::connect(handle.addr())
        .expect("connect")
        .batch(kinds)
        .expect("populate cache");
    handle.shutdown();
    handle.join();

    let handle = serve(&config).expect("rebind");
    let recovery = handle.recovery();
    handle.shutdown();
    handle.join();
    assert_eq!(recovery.recovered_cache_entries, 4, "{recovery:?}");
}
