//! rcforest benchmark: three workloads measured end to end, plus a traced
//! run that splits each workload's time over the crates it calls.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <query_batches|msf_stream|serve_open> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` the per-layer ones, from spans the
//! benchmark records around its calls into each layer (written to
//! `.perfbench/trace-<workload>.tsv`).
//! See `perfbench/README.md` for the workloads and every metric.

mod msf_stream;
mod query_batches;
mod report;
mod serve_open;
mod trace;

use report::Outcome;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Command-line settings of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The recorded environment of a run: seed, machine and pool
/// parallelism, and the source revision when the checkout has one.
fn environment(args: &Args) -> Vec<(String, String)> {
    // Only this directory's own `.git`: git would otherwise search the
    // parent directories for a repository.
    let rev = std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("workload".into(), args.workload.clone()),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), (args.trace as u8).to_string()),
        ("nproc".into(), nproc.to_string()),
        (
            "rayon_threads".into(),
            rayon::current_num_threads().to_string(),
        ),
        ("git_rev".into(), rev),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let env = environment(&args);
    let env_line: Vec<String> = env.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# env {}", env_line.join(" "));

    let mut tracer = Tracer::new(args.trace, Instant::now());
    let mut outcome: Outcome = match args.workload.as_str() {
        "query_batches" => query_batches::run(&args, &mut tracer),
        "msf_stream" => msf_stream::run(&args, &mut tracer),
        "serve_open" => serve_open::run(&args, &mut tracer),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };

    outcome.complete(if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    });
    if args.trace {
        let path = PathBuf::from(".perfbench").join(format!("trace-{}.tsv", args.workload));
        let mut env = env;
        env.push(("absent_registry_metrics".into(), outcome.absent.join(",")));
        match tracer.write_tsv(&path, &env) {
            Ok(()) => note!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => note!("could not write {}: {e}", path.display()),
        }
    }
    if !outcome.absent.is_empty() {
        note!(
            "absent registry metrics (reported as 0): {}",
            outcome.absent.join(", ")
        );
    }
    println!("{}", outcome.json());
}
