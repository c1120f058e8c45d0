//! The measured window: what every workload counts while it runs, and how
//! those counts become the seven end-to-end metrics.

use crate::procfs::Target;
use crate::report::EndToEnd;
use crate::stats;
use std::time::Instant;

/// When a generator's loop ends: after a fixed amount of work (set-up) or
/// after a fixed time (the measured window).
#[derive(Clone, Copy, Debug)]
pub enum Until {
    Count(usize),
    Seconds(f64),
}

impl Until {
    /// Whether a loop that has done `count` units in `elapsed_s` goes on.
    pub fn open(self, count: usize, elapsed_s: f64) -> bool {
        match self {
            Until::Count(n) => count < n,
            Until::Seconds(s) => elapsed_s < s,
        }
    }

    /// The window's length for slicing: a counted window is one slice.
    fn seconds(self) -> f64 {
        match self {
            Until::Count(_) => f64::INFINITY,
            Until::Seconds(s) => s,
        }
    }
}

/// A window is cut into this many slices, and throughput, CPU per unit
/// and (for the serving workloads) the latency percentiles are the
/// interquartile means over the slices: a neighbour's burst on a shared
/// machine, or an outage the workload itself injects, then spoils a slice
/// or two and not the run's figure.
pub const SLICES: usize = 10;

/// Cumulative readings at a slice boundary.
#[derive(Clone, Copy, Debug)]
struct Mark {
    at_s: f64,
    cpu_s: f64,
    work: f64,
    samples: usize,
}

/// Wall clock and CPU of the process under test (and of the benchmark
/// itself, the load generator) across one window, slice by slice.
pub struct Meter {
    target: Target,
    started: Instant,
    slice_s: f64,
    own_cpu: f64,
    marks: Vec<Mark>,
}

impl Meter {
    pub fn start(target: Target, until: Until) -> Self {
        let mut meter = Meter {
            target,
            started: Instant::now(),
            slice_s: until.seconds() / SLICES as f64,
            own_cpu: Target::Own.cpu_seconds(),
            marks: Vec::with_capacity(SLICES + 1),
        };
        meter.mark(0.0, 0);
        meter
    }

    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    fn mark(&mut self, work: f64, samples: usize) {
        self.marks.push(Mark {
            at_s: self.elapsed_s(),
            cpu_s: self.target.cpu_seconds(),
            work,
            samples,
        });
    }

    /// To be called after every unit with the work done and the latency
    /// samples taken so far; reads the clocks when a slice has ended.
    pub fn tick(&mut self, work: f64, samples: usize) {
        if self.elapsed_s() >= self.marks.len() as f64 * self.slice_s {
            self.mark(work, samples);
        }
    }

    /// Closes the window and files the readings into `stats`.
    pub fn stop(mut self, stats: &mut WindowStats) {
        // What came after the last boundary is a slice of its own if it is
        // at least half a slice long, and otherwise part of the last one.
        let last = *self.marks.last().expect("the opening mark");
        if last.work < stats.work {
            if self.marks.len() > 1 && self.elapsed_s() - last.at_s < self.slice_s / 2.0 {
                self.marks.pop();
            }
            self.mark(stats.work, stats.latencies_s.len());
        }
        let (first, last) = (self.marks[0], *self.marks.last().expect("a mark"));
        stats.cpu_s = last.cpu_s - first.cpu_s;
        stats.loadgen_cpu_s = Target::Own.cpu_seconds() - self.own_cpu;
        stats.slices = self
            .marks
            .windows(2)
            .map(|pair| Slice {
                elapsed_s: pair[1].at_s - pair[0].at_s,
                cpu_s: pair[1].cpu_s - pair[0].cpu_s,
                work: pair[1].work - pair[0].work,
                samples: pair[0].samples..pair[1].samples,
            })
            .collect();
    }
}

/// (p50, p90) of latency samples given in seconds, in milliseconds.
fn percentiles_ms(samples_s: &[f64]) -> (f64, f64) {
    let sorted = stats::sort(samples_s.to_vec());
    (
        stats::percentile(&sorted, 50.0) * 1e3,
        stats::percentile(&sorted, 90.0) * 1e3,
    )
}

/// What one slice of a window counted.
#[derive(Clone, Debug)]
pub struct Slice {
    pub elapsed_s: f64,
    pub cpu_s: f64,
    pub work: f64,
    /// The slice's latency samples, as a range into `latencies_s`.
    pub samples: std::ops::Range<usize>,
}

/// What one window counted.
#[derive(Clone, Debug, Default)]
pub struct WindowStats {
    /// CPU seconds of the process under test.
    pub cpu_s: f64,
    /// CPU seconds of the benchmark process (the generator).
    pub loadgen_cpu_s: f64,
    /// Operations attempted, answered correctly within the latency limit,
    /// and failed (refused, typed error, unanswered).
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    /// Units of work answered correctly: the denominator of
    /// `cpu_us_per_unit` and the numerator of `throughput_per_s`.
    pub work: f64,
    pub latencies_s: Vec<f64>,
    pub slices: Vec<Slice>,
    /// Take the latency percentiles per slice and report their midmeans.
    /// Right where a slice holds hundreds of samples; the in-process
    /// workloads, with a dozen units a slice, use the whole window.
    pub latency_by_slice: bool,
}

impl WindowStats {
    fn over_slices(&self, value: impl Fn(&Slice) -> f64) -> f64 {
        stats::midmean(&self.slices.iter().map(value).collect::<Vec<_>>())
    }

    pub fn throughput_per_s(&self) -> f64 {
        self.over_slices(|s| s.work / s.elapsed_s)
    }

    pub fn cpu_us_per_unit(&self) -> f64 {
        self.over_slices(|s| s.cpu_s * 1e6 / s.work)
    }

    /// Share of the two processes' CPU that the generator used.
    pub fn loadgen_cpu_share(&self) -> f64 {
        self.loadgen_cpu_s / (self.loadgen_cpu_s + self.cpu_s)
    }

    /// (p50, p90) of the latency samples, in milliseconds.
    pub fn latency_percentiles_ms(&self) -> (f64, f64) {
        if !self.latency_by_slice {
            return percentiles_ms(&self.latencies_s);
        }
        let per_slice: Vec<(f64, f64)> = self
            .slices
            .iter()
            .filter(|s| !s.samples.is_empty())
            .map(|s| percentiles_ms(&self.latencies_s[s.samples.clone()]))
            .collect();
        (
            stats::midmean(&per_slice.iter().map(|p| p.0).collect::<Vec<_>>()),
            stats::midmean(&per_slice.iter().map(|p| p.1).collect::<Vec<_>>()),
        )
    }

    pub fn end_to_end(&self, setup_s: f64, peak_rss_mb: f64) -> EndToEnd {
        let (latency_p50_ms, latency_p90_ms) = self.latency_percentiles_ms();
        EndToEnd {
            setup_s,
            throughput_per_s: self.throughput_per_s(),
            latency_p50_ms,
            latency_p90_ms,
            cpu_us_per_unit: self.cpu_us_per_unit(),
            peak_rss_mb,
            ok_share: self.ok as f64 / self.attempted as f64,
        }
    }
}

/// How often set-up is repeated in one run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Runs `setup` [`SETUP_REPEATS`] times, `teardown`-ing all but the last
/// product, and returns that product with the median set-up time.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = kept.take() {
            teardown(previous);
        }
        let t0 = Instant::now();
        kept = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        kept.expect("SETUP_REPEATS is positive"),
        stats::median(&times),
    )
}

/// The windows of one run. An end-to-end run measures one untraced window
/// of `seconds`. A traced run splits `seconds` into an untraced and a
/// traced half, so the per-layer numbers come with the cost of taking
/// them: `trace.overhead_share` = 1 − traced ÷ untraced throughput.
pub struct Windows<T> {
    /// The window the run reports: untraced, or the traced half.
    pub reported: T,
    pub trace_overhead_share: f64,
}

pub fn run_windows<T>(
    traced: bool,
    seconds: f64,
    mut window: impl FnMut(bool, f64) -> T,
    throughput: impl Fn(&T) -> f64,
) -> Windows<T> {
    if !traced {
        return Windows {
            reported: window(false, seconds),
            trace_overhead_share: 0.0,
        };
    }
    let untraced = window(false, seconds / 2.0);
    let reported = window(true, seconds / 2.0);
    Windows {
        trace_overhead_share: 1.0 - throughput(&reported) / throughput(&untraced),
        reported,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_reports_the_median_and_keeps_the_last() {
        let mut built = 0;
        let mut torn_down = Vec::new();
        let (kept, median) = repeated_setup(
            || {
                built += 1;
                built
            },
            |old| torn_down.push(old),
        );
        assert_eq!(kept, SETUP_REPEATS);
        assert_eq!(torn_down, (1..SETUP_REPEATS).collect::<Vec<_>>());
        assert!(median >= 0.0);
    }

    #[test]
    fn traced_runs_split_the_window() {
        let mut calls = Vec::new();
        let w = run_windows(
            true,
            10.0,
            |traced, seconds| {
                calls.push((traced, seconds));
                if traced {
                    90.0
                } else {
                    100.0
                }
            },
            |tp| *tp,
        );
        assert_eq!(calls, [(false, 5.0), (true, 5.0)]);
        assert!((w.trace_overhead_share - 0.1).abs() < 1e-12);
        assert_eq!(w.reported, 90.0);
    }
}
