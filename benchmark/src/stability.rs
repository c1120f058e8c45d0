//! `--stability <k>`: does the benchmark agree with itself?
//!
//! For each workload, two sets of `k` runs of the same code, alternating
//! (A, B, A, B, …), every run a fresh process on a seed of its own — the
//! way the driver measures. For each end-to-end metric it prints both
//! medians, by how much the second is worse than the first, each set's
//! quartile spread, and PASS or FAIL against the metric's bound: the
//! second median may not be worse by more than the bound, and (except for
//! `setup_s`) neither spread may exceed it. Then two short runs on one
//! seed must report identical exact counts.

use crate::report::{END_TO_END, WORKLOADS};
use crate::stats;
use serde::Value;
use std::process::{Command, ExitCode};

/// One finished run: the seven end-to-end values and the exact counts.
struct Run {
    values: Vec<f64>,
    exact: Vec<String>,
}

fn run_once(workload: &str, seed: u64, seconds: f64) -> Run {
    let exe = std::env::current_exe().expect("own executable path");
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} seed {seed} failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the result line is JSON");
    let metrics = result.get("metrics").expect("metrics");
    let values = END_TO_END
        .iter()
        .map(|m| match metrics.get(m.name).and_then(|v| v.get("value")) {
            Some(Value::Float(x)) => *x,
            Some(Value::UInt(x)) => *x as f64,
            Some(Value::Int(x)) => *x as f64,
            other => panic!("metric {} is not a number: {other:?}", m.name),
        })
        .collect();
    let exact = stdout
        .lines()
        .filter(|l| l.trim_start().starts_with("exact "))
        .map(|l| l.trim().to_string())
        .collect();
    Run { values, exact }
}

pub fn run(k: usize, seconds: f64, seed: u64) -> ExitCode {
    if k < 2 {
        eprintln!("--stability needs at least 2 runs a set to have quartiles");
        return ExitCode::from(2);
    }
    let mut all_pass = true;
    for workload in WORKLOADS {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..k as u64 {
            a.push(run_once(workload, seed + 2 * i, seconds));
            b.push(run_once(workload, seed + 2 * i + 1, seconds));
        }
        println!("{workload}: two sets of {k} runs of {seconds} s");
        println!(
            "  {:<18} {:>14} {:>14} {:>9} {:>9} {:>9} {:>7}",
            "metric", "median A", "median B", "worse by", "spread A", "spread B", "bound"
        );
        for (i, metric) in END_TO_END.iter().enumerate() {
            let column = |runs: &[Run]| runs.iter().map(|r| r.values[i]).collect::<Vec<_>>();
            let (va, vb) = (column(&a), column(&b));
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let worse_by = if metric.higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let (sa, sb) = (stats::spread(&va), stats::spread(&vb));
            let spreads_ok = metric.name == "setup_s" || sa.max(sb) <= metric.bound;
            let pass = worse_by <= metric.bound && spreads_ok;
            all_pass &= pass;
            println!(
                "  {:<18} {ma:>14.4} {mb:>14.4} {:>8.2}% {:>8.2}% {:>8.2}% {:>6.0}%  {}",
                metric.name,
                worse_by * 100.0,
                sa * 100.0,
                sb * 100.0,
                metric.bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
        let short = (seconds / 4.0).max(1.0);
        let first = run_once(workload, seed, short).exact;
        let second = run_once(workload, seed, short).exact;
        let repeats = first == second;
        all_pass &= repeats;
        println!(
            "  exact counts on seed {seed}: {}  {}",
            if first.is_empty() {
                "(none)".to_string()
            } else {
                first.join("; ")
            },
            if repeats { "PASS" } else { "FAIL" }
        );
    }
    println!("stability: {}", if all_pass { "PASS" } else { "FAIL" });
    if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
