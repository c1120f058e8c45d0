//! Workload `check`: the epistemic model checker over one explored system.
//!
//! The system (n = 3, horizon 24, capped) is generated once in set-up; one
//! unit is a fresh `ModelChecker` plus the whole 145-formula battery, so
//! `epistemic::checker` and `bittable` dominate and the explorer costs
//! nothing inside the window. The cap is sized so the truth tables no
//! longer fit in cache and a unit takes a tenth of a second or more.

use crate::fixtures::CheckFixture;
use crate::procfs::Target;
use crate::report::Outcome;
use crate::stats;
use crate::window::{repeated_setup, run_windows, Meter, Until, WindowStats};
use ktudc_epistemic::{
    check_a1, check_a2, check_a3, check_a4, check_a5, Formula, ModelChecker, ReferenceChecker,
};
use ktudc_model::{ActionId, Point, ProcessId, System, Time};
use ktudc_sim::explore;
use std::time::Instant;

/// A battery answered later than this misses `ok_share`.
const LATENCY_LIMIT_S: f64 = 1.0;

pub struct Size {
    pub horizon: Time,
    /// Run cap of the explored system: 64,000 runs are 1.6 M points and
    /// 110 MB of truth tables, and a battery over them takes ≈ 0.12 s.
    pub max_runs: usize,
    /// Run cap of the system the A1–A5 probe runs over; A4 is quadratic in
    /// the runs, so the measured system is far out of its reach.
    pub conditions_runs: usize,
}

pub const FULL: Size = Size {
    horizon: 24,
    max_runs: 64_000,
    conditions_runs: 1_500,
};
pub const SMOKE: Size = Size {
    horizon: 8,
    max_runs: 300,
    conditions_runs: 100,
};

/// One verdict per formula: valid, or the earliest falsifying point.
type Verdicts = Vec<Result<(), Point>>;

/// Per-unit timings, split the way the per-layer metrics are.
#[derive(Default)]
struct UnitTimes {
    new_s: f64,
    knows_s: f64,
    temporal_s: f64,
}

struct Unit {
    verdicts: Verdicts,
    times: UnitTimes,
    tables: usize,
    table_bytes: usize,
}

/// A fresh checker and the whole battery. With `split`, each formula is
/// timed and charged to its top-level operator.
fn battery(system: &System<u8>, formulas: &[Formula<u8>], split: bool) -> Unit {
    let t0 = Instant::now();
    let mut checker = ModelChecker::new(system);
    let mut times = UnitTimes {
        new_s: t0.elapsed().as_secs_f64(),
        ..UnitTimes::default()
    };
    let verdicts = formulas
        .iter()
        .map(|formula| {
            if !split {
                return checker.valid(formula);
            }
            let t0 = Instant::now();
            let verdict = checker.valid(formula);
            let spent = t0.elapsed().as_secs_f64();
            match formula {
                Formula::Knows(..) => times.knows_s += spent,
                Formula::Always(_) | Formula::Eventually(_) => times.temporal_s += spent,
                _ => {}
            }
            verdict
        })
        .collect();
    Unit {
        verdicts,
        times,
        tables: checker.cached_table_count(),
        table_bytes: checker.table_bytes(),
    }
}

struct CheckWindow {
    stats: WindowStats,
    times: Vec<UnitTimes>,
}

fn window(
    system: &System<u8>,
    formulas: &[Formula<u8>],
    expected: &Unit,
    split: bool,
    seconds: f64,
    out: &mut Outcome,
) -> CheckWindow {
    let work_per_unit = (system.point_count() * formulas.len()) as f64;
    let mut meter = Meter::start(Target::Own, Until::Seconds(seconds));
    let mut stats = WindowStats::default();
    let mut times = Vec::new();
    while stats.attempted == 0 || meter.elapsed_s() < seconds {
        let t0 = Instant::now();
        let unit = battery(system, formulas, split);
        let latency = t0.elapsed().as_secs_f64();
        stats.attempted += 1;
        if unit.verdicts != expected.verdicts || unit.table_bytes != expected.table_bytes {
            out.mismatch("a battery's verdicts or table bytes differ from the first battery's");
        } else {
            stats.work += work_per_unit;
            if latency <= LATENCY_LIMIT_S {
                stats.ok += 1;
            }
        }
        stats.latencies_s.push(latency);
        times.push(unit.times);
        meter.tick(stats.work, stats.latencies_s.len());
    }
    meter.stop(&mut stats);
    CheckWindow { stats, times }
}

/// The oracle: the scalar `ReferenceChecker` must give the same verdict
/// (validity, or the same earliest counterexample) as the battery did, and
/// the same satisfying points, for every formula over the measured system.
fn check_against_reference(
    system: &System<u8>,
    formulas: &[Formula<u8>],
    verdicts: &Verdicts,
    out: &mut Outcome,
) {
    let mut reference = ReferenceChecker::new(system);
    let mut fast = ModelChecker::new(system);
    for (formula, verdict) in formulas.iter().zip(verdicts) {
        if reference.valid(formula) != *verdict {
            out.mismatch(format!(
                "verdict differs from ReferenceChecker on {formula}"
            ));
        }
        if reference.satisfying_points(formula) != fast.satisfying_points(formula) {
            out.mismatch(format!(
                "satisfying points differ from ReferenceChecker on {formula}"
            ));
        }
    }
}

/// `epistemic.conditions.a1_a5_s`: the paper's context conditions A1–A5
/// over the same scenario under a small run cap.
fn conditions_s(fixture: &CheckFixture, max_runs: usize) -> f64 {
    let system = &explore(&fixture.config.clone().max_runs(max_runs), fixture.make()).system;
    let alpha = ActionId::new(ProcessId::new(0), 0);
    let t0 = Instant::now();
    let _ = std::hint::black_box(check_a1(system));
    let _ = std::hint::black_box(check_a2(system));
    let mut checker = ModelChecker::new(system);
    let _ = std::hint::black_box(check_a3(&mut checker, alpha));
    let _ = std::hint::black_box(check_a4(
        &mut checker,
        &Formula::initiated(alpha),
        ProcessId::new(0),
    ));
    let _ = std::hint::black_box(check_a5(system, 1));
    t0.elapsed().as_secs_f64()
}

pub fn run(size: &Size, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::new();
    let fixture = CheckFixture::new(size.horizon, size.max_runs, seed);

    // Set-up is fixed work: generate the system and run one battery, whose
    // verdicts every later battery must repeat.
    let ((system, expected), setup_s) = repeated_setup(
        || {
            let system = explore(&fixture.config, fixture.make()).system;
            let expected = battery(&system, &fixture.formulas, false);
            (system, expected)
        },
        drop,
    );

    let windows = run_windows(
        traced,
        seconds,
        |split, seconds| {
            window(
                &system,
                &fixture.formulas,
                &expected,
                split,
                seconds,
                &mut out,
            )
        },
        |w| w.stats.throughput_per_s(),
    );
    let w = windows.reported;
    let peak_rss_mb = Target::Own.peak_rss_mb();
    check_against_reference(&system, &fixture.formulas, &expected.verdicts, &mut out);

    out.attempted = w.stats.attempted;
    out.failed = w.stats.attempted - w.stats.ok;
    out.latency_samples = w.stats.latencies_s.len();
    out.end_to_end = w.stats.end_to_end(setup_s, peak_rss_mb);
    out.exact_counts = vec![("epistemic.checker.table_bytes", expected.table_bytes as u64)];
    if traced {
        let column = |f: fn(&UnitTimes) -> f64| -> f64 {
            stats::median(&w.times.iter().map(f).collect::<Vec<_>>())
        };
        let l = &mut out.layers;
        l.set("epistemic.checker.new_s", column(|t| t.new_s));
        l.set("epistemic.checker.knows_s", column(|t| t.knows_s));
        l.set("epistemic.checker.temporal_s", column(|t| t.temporal_s));
        l.set("epistemic.checker.tables", expected.tables as f64);
        l.set("epistemic.checker.table_bytes", expected.table_bytes as f64);
        l.set(
            "epistemic.conditions.a1_a5_s",
            conditions_s(&fixture, size.conditions_runs),
        );
        l.set("par.threads", ktudc_par::thread_count() as f64);
        l.set("trace.overhead_share", windows.trace_overhead_share);
    }
    out
}
