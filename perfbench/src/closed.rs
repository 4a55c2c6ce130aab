//! The paper's closed loop (§4): N threads draw operations back to back
//! from one mix and run them through a synchronization strategy, driven
//! through `stmbench7_core::run_benchmark`.

use std::time::{Duration, Instant};

use stmbench7_backend::{AnyBackend, Backend, BackendChoice};
use stmbench7_core::{run_benchmark, BenchConfig, Report, RunMode, WorkloadMix, WorkloadType};
use stmbench7_data::{validate, StructureParams, Workspace};

use crate::report::{
    median, percentile, quietest_half, rate_estimate, ratio, LayerSheet, Metric, Outcome,
};
use crate::traced::{exec_ns, write_spans, Span, Totals, Traced};
use crate::{host, Args, SLICE};

/// One closed-loop workload.
pub struct ClosedWorkload {
    pub name: &'static str,
    pub preset: fn() -> StructureParams,
    pub strategy: &'static str,
    pub mix: WorkloadType,
    pub long_traversals: bool,
    pub threads: usize,
}

/// Preset `small` (2 400 atomic parts, fits in L2), mix `rw` with long
/// traversals and structure modifications, the paper's medium-grained
/// locks, 2 threads: lock-plan waits and traversal bodies dominate.
pub const RW_MEDIUM: ClosedWorkload = ClosedWorkload {
    name: "closed_rw_medium",
    preset: StructureParams::small,
    strategy: "medium",
    mix: WorkloadType::ReadWrite,
    long_traversals: true,
    threads: 2,
};

/// Preset `standard` (100 000 atomic parts, larger than L2), mix `w`
/// without long traversals, sharded TL2, 2 threads: STM validation,
/// commit and aborts over a working set that misses cache, no locks.
pub const W_TL2: ClosedWorkload = ClosedWorkload {
    name: "closed_w_tl2",
    preset: StructureParams::standard,
    strategy: "tl2-sharded",
    mix: WorkloadType::WriteDominated,
    long_traversals: false,
    threads: 2,
};

impl ClosedWorkload {
    fn config(&self, seed: u64, length: Duration) -> BenchConfig {
        let mut cfg = BenchConfig::deterministic(self.mix, 0, seed);
        cfg.threads = self.threads;
        cfg.mode = RunMode::Timed(length);
        cfg.long_traversals = self.long_traversals;
        cfg.histograms = false;
        cfg
    }

    fn mix(&self) -> WorkloadMix {
        let cfg = self.config(0, Duration::ZERO);
        WorkloadMix::compute(
            cfg.workload,
            cfg.long_traversals,
            cfg.structure_mods,
            &cfg.filter,
        )
    }
}

/// The per-op ledger of one slice: something ran, nothing ran that the
/// mix excludes, and under STM every operation committed exactly once.
fn check_ledger(report: &Report, mix: &WorkloadMix) -> Result<(), String> {
    if report.total_started() == 0 {
        return Err("no operation completed".into());
    }
    for o in &report.per_op {
        if mix.expected(o.op) == 0.0 && o.completed + o.failed > 0 {
            return Err(format!(
                "{} ran {} times but is not in the mix",
                o.op.name(),
                o.completed + o.failed
            ));
        }
    }
    if let Some(stm) = &report.stm {
        if stm.commits != report.total_started() {
            return Err(format!(
                "{} STM commits for {} operations",
                stm.commits,
                report.total_started()
            ));
        }
    }
    Ok(())
}

/// Sums over the slices of one phase.
#[derive(Default)]
struct Phase {
    started: u64,
    failed: u64,
    aborts: u64,
    /// Threads × wall time, nanoseconds.
    thread_ns: u64,
    lock_acquires: u64,
    lock_contended: u64,
    lock_wait_ns: u64,
    commits: u64,
    stm_aborts: u64,
    reads: u64,
    writes: u64,
    validation_steps: u64,
    /// Each slice's steal time and steal-corrected throughput.
    rates: Vec<(f64, f64)>,
}

impl Phase {
    fn add(&mut self, r: &Report, steal_s: f64) {
        self.started += r.total_started();
        self.failed += r.total_failed();
        self.aborts += r.total_aborts();
        self.thread_ns += r.threads as u64 * r.elapsed.as_nanos() as u64;
        if let Some(c) = &r.contention {
            self.lock_acquires += c.lock_acquires;
            self.lock_contended += c.lock_contended;
            self.lock_wait_ns += c.lock_wait_ns;
        }
        if let Some(s) = &r.stm {
            self.commits += s.commits;
            self.stm_aborts += s.aborts;
            self.reads += s.reads;
            self.writes += s.writes;
            self.validation_steps += s.validation_steps;
        }
        self.rates.push((
            steal_s,
            host::corrected_rate(r.total_started(), r.elapsed, steal_s),
        ));
    }
}

/// One run of a closed-loop workload. Every slice starts from a freshly
/// built structure (the same seed each time), as a paper run does, so
/// slices do not drift as structure modifications grow the graph; each
/// build is also one setup sample.
struct Bench<'a> {
    w: &'a ClosedWorkload,
    params: StructureParams,
    mix: WorkloadMix,
    seed: u64,
    /// Launch to ready, and the structure build alone, per launch.
    setups: Vec<f64>,
    builds: Vec<f64>,
}

impl Bench<'_> {
    /// Builds the structure and the backend.
    fn launch(&mut self) -> AnyBackend {
        let choice = BackendChoice::parse(self.w.strategy).expect("strategy is in the catalog");
        let t0 = Instant::now();
        let ws = Workspace::build(self.params.clone(), self.seed);
        self.builds.push(t0.elapsed().as_secs_f64());
        let backend = AnyBackend::build(choice, ws);
        self.setups.push(t0.elapsed().as_secs_f64());
        backend
    }

    /// Runs one [`SLICE`] through `backend`, then checks the slice's
    /// ledger and the structure `fresh` ends in. Returns the steal time
    /// during the slice.
    fn slice<B: Backend>(
        &self,
        fresh: &AnyBackend,
        backend: &B,
        seed: u64,
        phase: &mut Phase,
    ) -> Result<f64, String> {
        let steal0 = host::steal_s();
        let report = run_benchmark(backend, &self.params, &self.w.config(seed, SLICE));
        let steal = host::steal_s() - steal0;
        phase.add(&report, steal);
        check_ledger(&report, &self.mix)?;
        validate(&fresh.export()).map_err(|msg| format!("structure invalid: {msg}"))?;
        Ok(steal)
    }
}

pub fn run(w: &ClosedWorkload, args: &Args) -> Outcome {
    let mut bench = Bench {
        w,
        params: (w.preset)(),
        mix: w.mix(),
        seed: args.seed,
        setups: Vec::new(),
        builds: Vec::new(),
    };
    let warm = bench.launch();
    run_benchmark(
        &warm,
        &bench.params,
        &w.config(args.seed ^ 0x5eed, args.warmup()),
    );
    drop(warm);

    // Bare slices give the rate and the memory high-water mark.
    let mut untraced = Phase::default();
    let mut gate = Ok(());
    for i in 0..args.seconds {
        if gate.is_ok() {
            let backend = bench.launch();
            let seed = args.seed.wrapping_add(i);
            gate = bench
                .slice(&backend, &backend, seed, &mut untraced)
                .map(|_| ());
        }
    }
    let peak_rss_mb = host::peak_rss_mb();
    let ops_per_s = rate_estimate(&untraced.rates);
    eprintln!(
        "{}: preset with {} atomic parts, strategy {}, {} threads; median of {} setups {:.6} s",
        w.name,
        bench.params.initial_atomics(),
        w.strategy,
        w.threads,
        bench.setups.len(),
        median(&bench.setups)
    );
    eprintln!(
        "untraced: {} operations, {} designed Fail outcomes ({:.1}%); op/s@steal per slice {:.2?}",
        untraced.started,
        untraced.failed,
        100.0 * ratio(untraced.failed as f64, untraced.started as f64),
        untraced.rates
    );

    let mut attempted = untraced.started;
    let metrics = if args.trace {
        let mut traced = Phase::default();
        let mut spans: Vec<Vec<Span>> = Vec::new();
        for i in 0..args.seconds {
            if gate.is_ok() {
                let backend = bench.launch();
                let tracer = Traced::new(&backend);
                let seed = args.seed ^ 0x7ace ^ i;
                gate = bench
                    .slice(&backend, &tracer, seed, &mut traced)
                    .map(|_| ());
                spans.extend(tracer.into_spans());
            }
        }
        attempted += traced.started;
        let totals = Totals::of(&spans);
        if gate.is_ok() && totals.spans != traced.started {
            gate = Err(format!(
                "{} execute calls for {} started operations",
                totals.spans, traced.started
            ));
        }
        if gate.is_ok() && totals.attempts - totals.spans != traced.aborts {
            gate = Err(format!(
                "{} retried attempts seen, {} reported",
                totals.attempts - totals.spans,
                traced.aborts
            ));
        }
        if let Some(dir) = &args.spans_dir {
            write_spans(dir, w.name, &spans);
        }
        layers(&traced, &totals, median(&bench.builds), ops_per_s).into_metrics()
    } else {
        let mut clocked = Phase::default();
        let mut rtt = Vec::new();
        if gate.is_ok() {
            gate = clocked_rtt(&mut bench, args, &mut clocked).map(|v| rtt = v);
        }
        attempted += clocked.started;
        vec![
            Metric {
                name: "ops_per_s",
                value: ops_per_s,
                unit: "1/s",
            },
            Metric {
                name: "setup_s",
                value: median(&bench.setups),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb,
                unit: "MiB",
            },
            Metric {
                name: "rtt_p50_us",
                value: pct_us(&rtt, 50.0),
                unit: "us",
            },
            Metric {
                name: "rtt_p99_us",
                value: pct_us(&rtt, 99.0),
                unit: "us",
            },
        ]
    };
    if gate.is_ok() {
        eprintln!("every slice's structure passed validation");
    }
    // A slice that fails its check ends the run; its operations have no
    // valid outcome.
    let failed = if gate.is_err() { attempted } else { 0 };
    Outcome {
        attempted,
        failed,
        metrics,
        error: gate.err(),
    }
}

/// Runs half as many slices as `--seconds` with the span recorder
/// around `execute`. Returns the sorted call-to-return times of the
/// operations in the least-stolen half of them.
fn clocked_rtt(bench: &mut Bench, args: &Args, clocked: &mut Phase) -> Result<Vec<u64>, String> {
    let slices = args.seconds.div_ceil(2);
    let mut per_slice = Vec::new();
    for i in 0..slices {
        let backend = bench.launch();
        let tracer = Traced::new(&backend);
        let steal = bench.slice(&backend, &tracer, !args.seed ^ i, clocked)?;
        per_slice.push((steal, exec_ns(&tracer.into_spans())));
    }
    let mut rtt: Vec<u64> = quietest_half(per_slice).into_iter().flatten().collect();
    rtt.sort_unstable();
    eprintln!(
        "rtt: exact percentiles over {} operations in the least-stolen half of {slices} clocked slices",
        rtt.len()
    );
    Ok(rtt)
}

/// An exact percentile of sorted nanosecond samples, in microseconds
/// (0 when a failed gate left none).
fn pct_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile(sorted, p) as f64 / 1e3
    }
}

/// The per-layer sheet of the traced phase, with the budget printed:
/// driver + sync + body + residual = threads × wall / ops.
fn layers(p: &Phase, t: &Totals, build_s: f64, untraced_ops_per_s: f64) -> LayerSheet {
    let ops = p.started as f64;
    let us = |ns: u64| ns as f64 / 1e3 / ops;
    let (driver, sync, body) = (us(t.gap_ns), us(t.exec_ns - t.body_ns), us(t.body_ns));
    let residual = (p.thread_ns as f64 - t.covered_ns as f64) / 1e3 / ops;
    eprintln!(
        "budget (us/op): threads x wall / ops = {:.3} = driver {driver:.3} + sync {sync:.3} + body {body:.3} + residual {residual:.3}",
        us(p.thread_ns),
    );
    let traced_ops_per_s = rate_estimate(&p.rates);
    eprintln!(
        "tracing overhead: {traced_ops_per_s:.1} op/s traced vs {untraced_ops_per_s:.1} untraced"
    );

    let mut sheet = LayerSheet::new();
    sheet.set("core.body_us_per_op", body);
    sheet.set("core.driver_us_per_op", driver);
    sheet.set("core.attempts_per_op", ratio(t.attempts as f64, ops));
    sheet.set("core.budget_residual_us_per_op", residual);
    sheet.set("backend.sync_us_per_op", sync);
    sheet.set("backend.lock_wait_us_per_op", us(p.lock_wait_ns));
    sheet.set(
        "backend.lock_acquires_per_op",
        ratio(p.lock_acquires as f64, ops),
    );
    sheet.set(
        "backend.lock_contended_ratio",
        ratio(p.lock_contended as f64, p.lock_acquires as f64),
    );
    let commits = p.commits as f64;
    sheet.set("stm.aborts_per_commit", ratio(p.stm_aborts as f64, commits));
    sheet.set("stm.reads_per_commit", ratio(p.reads as f64, commits));
    sheet.set("stm.writes_per_commit", ratio(p.writes as f64, commits));
    sheet.set(
        "stm.validation_steps_per_commit",
        ratio(p.validation_steps as f64, commits),
    );
    if p.commits > 0 {
        sheet.set(
            "stm.wasted_body_share",
            ratio(t.wasted_ns as f64, t.body_ns as f64),
        );
    }
    sheet.set("data.build_s", build_s);
    sheet.set(
        "trace.overhead_share",
        1.0 - ratio(traced_ops_per_s, untraced_ops_per_s),
    );
    sheet
}
