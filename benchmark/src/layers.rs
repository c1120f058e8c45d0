//! Per-layer probes: timed calls into one layer's public functions, made
//! from here so the program itself carries no tracing. Each probe runs
//! after the measured window of a traced run, on that workload's own
//! messages where the layer handles messages.

use crate::report::Layers;
use crate::scratch::Scratch;
use crate::stats;
use ktudc_core::harness::{run_cell, CellSpec};
use ktudc_fd::PhiEstimator;
use ktudc_par::Pool;
use ktudc_serve::cache::LruCache;
use ktudc_serve::metrics::{Endpoint, Metrics, PoolCounters};
use ktudc_serve::{
    AimdConfig, AimdController, ClusterClient, HashRing, Request, RequestKind, Response,
    ResponseKind,
};
use ktudc_sim::{explore_spec, explore_spec_checkpointed, ExploreSpec};
use ktudc_store::{Journal, SnapshotStore, SyncPolicy};
use std::hint::black_box;
use std::time::Instant;

/// Seconds per call of `op`: the median over five batches of `iters`.
fn per_call_s(iters: usize, mut op: impl FnMut(usize)) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..iters {
                op(i);
            }
            t0.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    stats::median(&batches)
}

/// Median seconds of `op` over `repeats` calls.
fn median_s(repeats: usize, mut op: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..repeats)
        .map(|_| {
            let t0 = Instant::now();
            op();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}

/// `sim.checkpoint.overhead_share` and `store.journal.append_batch_us`:
/// the journaling tax on an exploration (no fsync, so the figure is the
/// codec and the writes, not the disk) and one group-commit of sixteen
/// 256-byte entries.
pub fn checkpoint_and_journal(layers: &mut Layers) {
    let scratch = Scratch::new("journal");
    let mut spec = ExploreSpec::new(4, 16);
    spec.max_failures = 3;
    let plain = median_s(3, || {
        black_box(explore_spec(&spec).expect("valid spec"));
    });
    let mut attempt = 0;
    let checkpointed = median_s(3, || {
        attempt += 1;
        let path = scratch.path().join(format!("explore-{attempt}.ckpt"));
        black_box(
            explore_spec_checkpointed(&spec, &path, SyncPolicy::Never)
                .expect("checkpointed exploration"),
        );
    });
    layers.set("sim.checkpoint.overhead_share", checkpointed / plain - 1.0);

    let mut journal = Journal::create(&scratch.path().join("append.jl"), SyncPolicy::Never)
        .expect("create journal");
    let batch = vec![vec![0xa5u8; 256]; 16];
    let per_batch = per_call_s(200, |_| {
        journal.append_batch(&batch).expect("append batch");
    });
    layers.set("store.journal.append_batch_us", per_batch * 1e6);
}

/// Request and response lines as they crossed the wire in this run.
pub struct WireSample {
    pub request_lines: Vec<String>,
    pub response_lines: Vec<String>,
}

/// `serve.wire.*`, `serve.cache.key_of_us`, `serve.cache.get_hit_us`,
/// `serve.metrics.*`: the per-request work of a cache hit, one call at a
/// time, on the workload's own messages.
pub fn hit_path(sample: &WireSample, layers: &mut Layers) {
    if sample.request_lines.is_empty() || sample.response_lines.is_empty() {
        return;
    }
    let requests: Vec<Request> = sample
        .request_lines
        .iter()
        .map(|l| serde_json::from_str(l).expect("own request line parses"))
        .collect();
    let responses: Vec<Response> = sample
        .response_lines
        .iter()
        .map(|l| serde_json::from_str(l).expect("sampled response line parses"))
        .collect();
    let iters = 2_000;
    let pick = |i: usize, len: usize| i % len;
    layers.set(
        "serve.wire.request_decode_us",
        1e6 * per_call_s(iters, |i| {
            let line = &sample.request_lines[pick(i, requests.len())];
            black_box(serde_json::from_str::<Request>(black_box(line)).expect("parses"));
        }),
    );
    layers.set(
        "serve.wire.response_encode_us",
        1e6 * per_call_s(iters, |i| {
            let response = &responses[pick(i, responses.len())];
            black_box(serde_json::to_string(black_box(response)).expect("encodes"));
        }),
    );
    layers.set(
        "serve.wire.request_encode_us",
        1e6 * per_call_s(iters, |i| {
            let request = &requests[pick(i, requests.len())];
            black_box(serde_json::to_string(black_box(request)).expect("encodes"));
        }),
    );
    layers.set(
        "serve.wire.response_decode_us",
        1e6 * per_call_s(iters, |i| {
            let line = &sample.response_lines[pick(i, responses.len())];
            black_box(serde_json::from_str::<Response>(black_box(line)).expect("parses"));
        }),
    );

    // The cache is keyed by the canonical JSON of the request body.
    let canons: Vec<String> = requests
        .iter()
        .map(|r| serde_json::to_string(&r.kind).expect("encodes"))
        .collect();
    layers.set(
        "serve.cache.key_of_us",
        1e6 * per_call_s(iters, |i| {
            black_box(LruCache::key_of(black_box(&canons[pick(i, canons.len())])));
        }),
    );
    let mut cache = LruCache::new(256);
    for (canon, response) in canons.iter().zip(&responses) {
        cache.insert(canon.clone(), response.result.clone());
    }
    layers.set(
        "serve.cache.get_hit_us",
        1e6 * per_call_s(iters, |i| {
            black_box(cache.get(black_box(&canons[pick(i, canons.len())])));
        }),
    );

    let metrics = Metrics::new();
    layers.set(
        "serve.metrics.record_us",
        1e6 * per_call_s(20_000, |i| {
            metrics.record(Endpoint::Cell, i as u64 % 997, true)
        }),
    );
    layers.set(
        "serve.metrics.report_us",
        1e6 * per_call_s(200, |_| {
            black_box(metrics.report(PoolCounters::default(), 64, 256));
        }),
    );
}

/// `core.harness.run_cell_ms`: the direct cost of the specs the server
/// was asked to compute, one at a time on an otherwise idle machine.
pub fn run_cell_ms(specs: &[CellSpec], layers: &mut Layers) {
    let times: Vec<f64> = specs
        .iter()
        .map(|spec| {
            let t0 = Instant::now();
            black_box(run_cell(black_box(spec)));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    layers.set("core.harness.run_cell_ms", stats::median(&times) * 1e3);
}

/// `serve.cache.insert_evict_us`, `serve.admission.*`, `par.pool.submit_us`,
/// `store.snapshot.save_ms`: the per-request work a cache miss adds around
/// the computation itself.
pub fn miss_path(sample: &WireSample, layers: &mut Layers) {
    if sample.response_lines.is_empty() {
        return;
    }
    let results: Vec<ResponseKind> = sample
        .response_lines
        .iter()
        .map(|l| {
            serde_json::from_str::<Response>(l)
                .expect("sampled response line parses")
                .result
        })
        .collect();
    let result = |i: usize| results[i % results.len()].clone();

    // A full cache: every insert of a new key evicts the oldest entry.
    let mut cache = LruCache::new(256);
    for i in 0..256 {
        cache.insert(format!("warm-{i}"), result(i));
    }
    let mut fresh = (0..10_000).map(|i| format!("fresh-{i}"));
    layers.set(
        "serve.cache.insert_evict_us",
        1e6 * per_call_s(2_000, |i| {
            cache.insert(fresh.next().expect("a key per call"), result(i));
        }),
    );

    // The server's own controller settings: adaptation off (target 0),
    // limit pinned at queue capacity + workers.
    let workers = ktudc_par::thread_count();
    let controller = AimdController::new(AimdConfig {
        target_p99_micros: 0,
        min_limit: workers,
        max_limit: 64 + workers,
        window: 32,
    });
    layers.set(
        "serve.admission.try_admit_us",
        1e6 * per_call_s(20_000, |i| {
            black_box(controller.try_admit(black_box(i % 8), 0));
        }),
    );
    layers.set(
        "serve.admission.observe_us",
        1e6 * per_call_s(20_000, |i| controller.observe(black_box(i as u64))),
    );

    // Submission only: the jobs are empty, and each batch stays under the
    // queue's capacity so no submit is refused.
    let pool = Pool::new(workers, 4096);
    layers.set(
        "par.pool.submit_us",
        1e6 * per_call_s(512, |_| {
            pool.try_execute(|| {}).expect("the queue has room");
        }),
    );
    pool.shutdown();

    // What `snapshot_every` pays each time: export, encode, save (temp
    // file, fsync, rename, directory fsync) of a full 256-entry cache.
    let scratch = Scratch::new("snapshot");
    let mut store = SnapshotStore::open(scratch.path(), "cache").expect("open snapshot store");
    layers.set(
        "store.snapshot.save_ms",
        1e3 * median_s(9, || {
            let payload = serde_json::to_string(&cache.export()).expect("encodes");
            store.save(payload.as_bytes()).expect("save snapshot");
        }),
    );
}

/// `serve.ring.*` and `fd.phi.update_ns`: what routing one request and
/// accounting one heartbeat cost.
pub fn routing(kinds: &[RequestKind], layers: &mut Layers) {
    let ring = HashRing::new(3);
    let keys: Vec<u64> = kinds.iter().map(ClusterClient::shard_key).collect();
    layers.set(
        "serve.ring.shard_for_ns",
        1e9 * per_call_s(100_000, |i| {
            black_box(ring.shard_for(black_box(keys[i % keys.len()])));
        }),
    );
    layers.set(
        "serve.ring.replicas_ns",
        1e9 * per_call_s(100_000, |i| {
            black_box(ring.replicas(black_box(keys[i % keys.len()])));
        }),
    );
    // One beat every 50 ms, as the router's detector plane sees it.
    let mut estimator = PhiEstimator::new(50.0, 16);
    let mut now = 1.0;
    layers.set(
        "fd.phi.update_ns",
        1e9 * per_call_s(100_000, |_| {
            now += 50.0;
            estimator.observe(black_box(now));
            black_box(estimator.phi(now + 25.0));
        }),
    );
}
