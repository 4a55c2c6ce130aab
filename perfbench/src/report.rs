//! Metric names, the per-layer sheet, exact percentiles and the result
//! line the benchmark prints last.

use std::process::ExitCode;

/// One named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit. A
/// traced run reports all of them; a layer that does not run on the
/// workload reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.body_us_per_op", "us"),
    ("core.driver_us_per_op", "us"),
    ("core.attempts_per_op", "count"),
    ("core.budget_residual_us_per_op", "us"),
    ("backend.sync_us_per_op", "us"),
    ("backend.lock_wait_us_per_op", "us"),
    ("backend.lock_acquires_per_op", "count"),
    ("backend.lock_contended_ratio", "ratio"),
    ("stm.aborts_per_commit", "ratio"),
    ("stm.wasted_body_share", "ratio"),
    ("stm.reads_per_commit", "count"),
    ("stm.writes_per_commit", "count"),
    ("stm.validation_steps_per_commit", "count"),
    ("data.build_s", "s"),
    ("service.queue_wait_p50_us", "us"),
    ("service.queue_wait_p99_us", "us"),
    ("service.service_p50_us", "us"),
    ("service.service_p99_us", "us"),
    ("service.batch_mean", "count"),
    ("service.worker_busy_share", "ratio"),
    ("net.transport_p50_us", "us"),
    ("net.transport_p99_us", "us"),
    ("net.bytes_per_op", "B"),
    ("trace.overhead_share", "ratio"),
];

/// The per-layer values of one traced run, zero until set.
pub struct LayerSheet {
    values: Vec<f64>,
}

impl LayerSheet {
    pub fn new() -> LayerSheet {
        LayerSheet {
            values: vec![0.0; PER_LAYER.len()],
        }
    }

    /// Sets one metric; the name must be in [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let at = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.values[at] = value;
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .zip(self.values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The nearest-rank `p`-th percentile of already sorted samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of a few values (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The run's rate from per-slice `(steal, rate)` pairs: the lower
/// quartile of the least-stolen half of the slices.
///
/// On a shared host the same code runs in fast and slow spells as the
/// hypervisor places vCPUs, and a slice with heavy steal loses more than
/// its stolen time (every thread of a pipeline waits for the stalled
/// one). The mix of spells and bursts in a run, not the code, would
/// decide a median or a mean. Dropping the stolen half and taking the
/// slow-spell level that the rest holds three times out of four repeats
/// from run to run, and a change to the program still moves every slice.
pub fn rate_estimate(per_slice: &[(f64, f64)]) -> f64 {
    let mut rates: Vec<f64> = quietest_half(per_slice.to_vec());
    assert!(!rates.is_empty(), "no slices measured");
    rates.sort_by(f64::total_cmp);
    let rank = (0.25 * rates.len() as f64).ceil() as usize;
    rates[rank.max(1) - 1]
}

/// The slices with the least steal time, at least half of them.
/// Latency percentiles come from these: in a slice where the hypervisor
/// stole a vCPU for milliseconds, the tail shows the hypervisor, not the
/// program, and such bursts come and go from run to run.
pub fn quietest_half<T>(mut slices: Vec<(f64, T)>) -> Vec<T> {
    slices.sort_by(|a, b| a.0.total_cmp(&b.0));
    let keep = slices.len().div_ceil(2);
    slices.into_iter().take(keep).map(|(_, t)| t).collect()
}

/// What one run measured and whether its correctness gate held.
pub struct Outcome {
    /// Operations the measured phases issued.
    pub attempted: u64,
    /// Operations with no valid outcome (rejected, unanswered, transport
    /// error, outcome mismatch, or on a structure that failed validation).
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why the correctness gate failed, if it did.
    pub error: Option<String>,
}

impl Outcome {
    /// Prints the metrics table to stderr and the result line to stdout.
    /// A run that failed its gate prints no numbers and exits 1.
    pub fn print(self) -> ExitCode {
        let mut error = self.error;
        if let Some(m) = self.metrics.iter().find(|m| !m.value.is_finite()) {
            error.get_or_insert(format!("{} is not a finite number", m.name));
        }
        let correct = error.is_none() && self.failed == 0;
        let metrics = if correct {
            for m in &self.metrics {
                eprintln!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
            }
            let body: Vec<String> = self
                .metrics
                .iter()
                .map(|m| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        m.name, m.value, m.unit
                    )
                })
                .collect();
            format!("{{{}}}", body.join(", "))
        } else {
            eprintln!(
                "CORRECTNESS CHECK FAILED: {}",
                error.as_deref().unwrap_or("operations failed")
            );
            "{}".to_string()
        };
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            self.attempted, self.failed
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}
