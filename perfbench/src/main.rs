//! The repository benchmark for the STMBench7 reproduction.
//!
//! ```text
//! stmbench7-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1> [--spans-dir <dir>]
//! ```
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! nothing in the way; with `--trace 1` they are the per-layer ones,
//! taken by wrapping the backend in a benchmark-owned tracer after an
//! untraced phase of the same length. The program is driven only
//! through its public entry points (`stmbench7_core::run_benchmark`,
//! `stmbench7_net::serve_net` and the `wire` codec). README.md explains
//! the workloads, the metrics and what each should move.

mod closed;
mod host;
mod report;
mod traced;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The unit of measurement: rates and latency percentiles are taken
/// per slice, and a run reports their median over `--seconds` slices.
pub const SLICE: Duration = Duration::from_secs(1);

const WORKLOADS: &[&str] = &["closed_rw_medium", "closed_w_tl2", "wire_pipelined"];

const USAGE: &str =
    "usage: stmbench7-perfbench --workload <closed_rw_medium|closed_w_tl2|wire_pipelined> \
--seed <n> --seconds <1..=60> --trace <0|1> [--spans-dir <dir>]";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where a traced run writes its raw spans.
    pub spans_dir: Option<PathBuf>,
}

impl Args {
    pub fn measure(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    /// Timing starts only after this much load: caches, allocator and
    /// branch predictors warm up, and the first second reads low.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds as f64 / 5.0).clamp(0.5, 2.0))
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans_dir = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload '{value}'")),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(n) if (1..=60).contains(&n) => seconds = Some(n),
                _ => return Err(format!("--seconds must be 1..=60, got '{value}'")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace must be 0 or 1, got '{value}'")),
            },
            "--spans-dir" => spans_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans_dir,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    host::print_identity();
    let steal_before = host::steal_s();
    let outcome = match args.workload.as_str() {
        "closed_rw_medium" => closed::run(&closed::RW_MEDIUM, &args),
        "closed_w_tl2" => closed::run(&closed::W_TL2, &args),
        _ => wire::run(&args),
    };
    eprintln!(
        "steal: {:.2} s of CPU time taken by the hypervisor during the run",
        host::steal_s() - steal_before
    );
    outcome.print()
}
