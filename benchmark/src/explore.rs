//! Workload `explore`: exhaustive generation of a system, plain and with
//! state-space reduction, back to back in this process.
//!
//! One unit is one plain `explore_with_stats` plus one reduced
//! (`symmetric(1..n)` + sleep sets) exploration of the echo cell. Plain
//! and reduced are the same layer used two ways, so a canonicalisation
//! win that taxes the shared expand path shows up here.

use crate::fixtures::ExploreFixture;
use crate::layers;
use crate::procfs::Target;
use crate::report::Outcome;
use crate::stats;
use crate::window::{repeated_setup, run_windows, Meter, Until, WindowStats};
use ktudc_model::{System, Time};
use ktudc_sim::explorer::ExploreResult;
use ktudc_sim::{
    canonical_run_digests, explore_reference, explore_with_stats, system_digest, ReductionStats,
};
use std::collections::BTreeSet;
use std::time::Instant;

/// A pair answered later than this misses `ok_share`.
const LATENCY_LIMIT_S: f64 = 1.0;

/// The cell explored: n = 4, t = 1, horizon 5 gives 92,136 plain and
/// 15,181 reduced runs (≈ 0.16 s a pair on two cores) — over a hundred
/// latency samples in the window and no gigabyte resident set, which
/// horizon 6 (510,814 runs) would need.
pub struct Size {
    pub n: usize,
    pub horizon: Time,
}

pub const FULL: Size = Size { n: 4, horizon: 5 };
pub const SMOKE: Size = Size { n: 3, horizon: 4 };

/// What one pair produced, kept for the checks.
struct Pair {
    plain: ExploreResult<u8>,
    reduced: ExploreResult<u8>,
    reduced_stats: ReductionStats,
    plain_s: f64,
    reduced_s: f64,
}

fn explore_pair(fixture: &ExploreFixture) -> Pair {
    let t0 = Instant::now();
    let (plain, _) = explore_with_stats(&fixture.plain, fixture.make());
    let t1 = Instant::now();
    let (reduced, reduced_stats) = explore_with_stats(&fixture.reduced, fixture.make());
    Pair {
        plain,
        reduced,
        reduced_stats,
        plain_s: (t1 - t0).as_secs_f64(),
        reduced_s: t1.elapsed().as_secs_f64(),
    }
}

/// The counts of a pair that must be the same on every unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Counts {
    plain_runs: usize,
    reduced_runs: usize,
    complete: bool,
    states_canonicalized: u64,
    sleep_set_pruned: u64,
}

impl Pair {
    fn counts(&self) -> Counts {
        Counts {
            plain_runs: self.plain.system.len(),
            reduced_runs: self.reduced.system.len(),
            complete: self.plain.complete && self.reduced.complete,
            states_canonicalized: self.reduced_stats.states_canonicalized,
            sleep_set_pruned: self.reduced_stats.sleep_set_pruned,
        }
    }
}

struct ExploreWindow {
    stats: WindowStats,
    plain_s: Vec<f64>,
    reduced_s: Vec<f64>,
    steals: u64,
    last: Pair,
}

fn window(
    fixture: &ExploreFixture,
    expected: Counts,
    seconds: f64,
    out: &mut Outcome,
) -> ExploreWindow {
    let mut meter = Meter::start(Target::Own, Until::Seconds(seconds));
    let mut stats = WindowStats::default();
    let (mut plain_s, mut reduced_s, mut steals) = (Vec::new(), Vec::new(), 0);
    let mut last = None;
    while last.is_none() || meter.elapsed_s() < seconds {
        let t0 = Instant::now();
        // The previous pair is freed inside the timed span: giving the
        // runs back is part of what an exploration costs its caller.
        drop(last.take());
        let pair = explore_pair(fixture);
        let latency = t0.elapsed().as_secs_f64();
        stats.attempted += 1;
        let counts = pair.counts();
        if counts != expected {
            out.mismatch(format!(
                "pair counts {counts:?}, first pair had {expected:?}"
            ));
        } else {
            stats.work += (counts.plain_runs + counts.reduced_runs) as f64;
            if latency <= LATENCY_LIMIT_S {
                stats.ok += 1;
            }
        }
        stats.latencies_s.push(latency);
        plain_s.push(pair.plain_s);
        reduced_s.push(pair.reduced_s);
        steals += pair.reduced_stats.steals;
        last = Some(pair);
        meter.tick(stats.work, stats.latencies_s.len());
    }
    meter.stop(&mut stats);
    ExploreWindow {
        stats,
        plain_s,
        reduced_s,
        steals,
        last: last.expect("the window runs at least one pair"),
    }
}

/// The oracle: the clone-per-branch reference explorer must produce the
/// same runs as the plain pass, and its orbit under relabelling (untimed
/// canonical digests) must be exactly what the reduced pass kept.
fn check_against_reference(fixture: &ExploreFixture, pair: &Pair, out: &mut Outcome) {
    let reference = explore_reference(&fixture.plain, fixture.make());
    if reference.complete != pair.plain.complete
        || system_digest(&reference.system) != system_digest(&pair.plain.system)
        || reference.system.runs() != pair.plain.system.runs()
    {
        out.mismatch("plain exploration differs from explore_reference");
    }
    let orbit = |system: &System<u8>| -> BTreeSet<u64> {
        canonical_run_digests(&fixture.reduced, system, false)
            .into_iter()
            .collect()
    };
    if reference.complete != pair.reduced.complete
        || orbit(&reference.system) != orbit(&pair.reduced.system)
    {
        out.mismatch("reduced exploration lost or invented behaviours");
    }
}

pub fn run(size: &Size, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::new();
    let fixture = ExploreFixture::new(size.n, size.horizon, seed);

    // Set-up is fixed work: the fixture plus two warm-up pairs, which
    // start the pool's threads and grow the allocator's arenas to the
    // working size.
    let (expected, setup_s) = repeated_setup(
        || {
            let fixture = ExploreFixture::new(size.n, size.horizon, seed);
            explore_pair(&fixture);
            explore_pair(&fixture).counts()
        },
        drop,
    );

    let windows = run_windows(
        traced,
        seconds,
        |_, seconds| window(&fixture, expected, seconds, &mut out),
        |w| w.stats.throughput_per_s(),
    );
    let w = windows.reported;
    // Read before the oracle is built: the reference explorer's clones
    // must not pass for the program's own peak.
    let peak_rss_mb = Target::Own.peak_rss_mb();
    check_against_reference(&fixture, &w.last, &mut out);

    out.attempted = w.stats.attempted;
    out.failed = w.stats.attempted - w.stats.ok;
    out.latency_samples = w.stats.latencies_s.len();
    out.end_to_end = w.stats.end_to_end(setup_s, peak_rss_mb);
    out.exact_counts = vec![
        (
            "sim.explorer.runs",
            (expected.plain_runs + expected.reduced_runs) as u64,
        ),
        ("sim.explorer.sleep_set_pruned", expected.sleep_set_pruned),
    ];
    if traced {
        let l = &mut out.layers;
        l.set("sim.explorer.plain_s", stats::median(&w.plain_s));
        l.set("sim.explorer.reduced_s", stats::median(&w.reduced_s));
        l.set(
            "sim.explorer.runs",
            (expected.plain_runs + expected.reduced_runs) as f64,
        );
        l.set(
            "sim.explorer.states_canonicalized",
            expected.states_canonicalized as f64,
        );
        l.set(
            "sim.explorer.sleep_set_pruned",
            expected.sleep_set_pruned as f64,
        );
        l.set(
            "sim.explorer.steals",
            w.steals as f64 / w.stats.attempted as f64,
        );
        l.set("par.threads", ktudc_par::thread_count() as f64);
        layers::checkpoint_and_journal(l);
        l.set("trace.overhead_share", windows.trace_overhead_share);
    }
    out
}
