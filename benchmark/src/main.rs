//! The repository's benchmark: five workloads, seven end-to-end metrics,
//! per-layer timings taken from outside the program. `BENCHMARK.json` at
//! the repository root names the command; `benchmark/README.md` says what
//! each workload and metric is for and how the sizes were chosen.
//!
//! ```text
//! ktudc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ktudc-benchmark --smoke                  all five at toy size
//! ktudc-benchmark --stability <k> [--seconds <s>] [--seed <n>]
//! ```
//!
//! The last line of standard output of a `--workload` run is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`). The
//! exit code is 0 only if every answer was right.

mod check;
mod child;
mod cluster;
mod explore;
mod fixtures;
mod layers;
mod loadgen;
mod procfs;
mod relay;
mod report;
mod rng;
mod scratch;
mod serve_hot;
mod serve_miss;
mod stability;
mod stats;
mod window;
mod wirefast;

use report::{Outcome, WORKLOADS};
use std::process::ExitCode;

/// Toy or full size of every workload.
#[derive(Clone, Copy)]
enum Scale {
    Full,
    Smoke,
}

fn run_workload(name: &str, scale: Scale, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let full = matches!(scale, Scale::Full);
    match name {
        "explore" => {
            let size = if full {
                &explore::FULL
            } else {
                &explore::SMOKE
            };
            explore::run(size, seed, seconds, traced)
        }
        "check" => {
            let size = if full { &check::FULL } else { &check::SMOKE };
            check::run(size, seed, seconds, traced)
        }
        "serve_hot" => {
            let size = if full {
                &serve_hot::FULL
            } else {
                &serve_hot::SMOKE
            };
            serve_hot::run(size, seed, seconds, traced)
        }
        "serve_miss" => {
            let size = if full {
                &serve_miss::FULL
            } else {
                &serve_miss::SMOKE
            };
            serve_miss::run(size, seed, seconds, traced)
        }
        "cluster_outage" => {
            let size = if full {
                &cluster::FULL
            } else {
                &cluster::SMOKE
            };
            cluster::run(size, seed, seconds, traced)
        }
        other => usage(&format!("unknown workload `{other}`")),
    }
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "{problem}\n\
         usage: ktudc-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      ktudc-benchmark --smoke\n\
         \x20      ktudc-benchmark --stability <k> [--seconds <s>] [--seed <n>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

/// `--flag value` pairs, each flag at most once.
struct Args(Vec<(String, String)>);

impl Args {
    fn parse(args: &[String]) -> Args {
        let mut pairs = Vec::new();
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            let Some(value) = rest.next() else {
                usage(&format!("`{flag}` needs a value"));
            };
            if !flag.starts_with("--") || pairs.iter().any(|(f, _)| f == flag) {
                usage(&format!("unexpected `{flag}`"));
            }
            pairs.push((flag.clone(), value.clone()));
        }
        Args(pairs)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        let (_, value) = self.0.iter().find(|(f, _)| f == flag)?;
        match value.parse() {
            Ok(parsed) => Some(parsed),
            Err(_) => usage(&format!("`{flag} {value}` is not a valid value")),
        }
    }

    fn only(&self, allowed: &[&str]) {
        if let Some((flag, _)) = self.0.iter().find(|(f, _)| !allowed.contains(&f.as_str())) {
            usage(&format!("unexpected `{flag}`"));
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--child") => {
            let Some(role) = args.get(1) else {
                usage("`--child` needs a role");
            };
            child::main(role, args.get(2).map(String::as_str));
            ExitCode::SUCCESS
        }
        Some("--smoke") if args.len() == 1 => smoke(),
        Some("--stability") => {
            let args = Args::parse(&args);
            args.only(&["--stability", "--seconds", "--seed"]);
            stability::run(
                args.get("--stability").expect("matched above"),
                args.get("--seconds").unwrap_or(20.0),
                args.get("--seed").unwrap_or(1),
            )
        }
        _ => {
            let args = Args::parse(&args);
            args.only(&["--workload", "--seed", "--seconds", "--trace"]);
            let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
                args.get::<String>("--workload"),
                args.get::<u64>("--seed"),
                args.get::<f64>("--seconds"),
                args.get::<u8>("--trace"),
            ) else {
                usage("--workload, --seed, --seconds and --trace are all required");
            };
            if !(seconds > 0.0 && seconds.is_finite()) || trace > 1 {
                usage("--seconds must be positive and --trace 0 or 1");
            }
            let traced = trace == 1;
            let outcome = run_workload(&workload, Scale::Full, seed, seconds, traced);
            print!("{}", outcome.table(&workload, traced));
            println!("{}", outcome.json_line(traced));
            exit_code(outcome.correct)
        }
    }
}

fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// All five workloads at toy size, end to end and traced, in seconds.
fn smoke() -> ExitCode {
    let mut correct = true;
    for workload in WORKLOADS {
        for traced in [false, true] {
            let outcome = run_workload(workload, Scale::Smoke, 1, 0.6, traced);
            print!("{}", outcome.table(workload, traced));
            correct &= outcome.correct && outcome.attempted > 0;
        }
    }
    println!("smoke: {}", if correct { "PASS" } else { "FAIL" });
    exit_code(correct)
}
