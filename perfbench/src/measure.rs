//! What a run reports, and the small statistics it is made from.

use popgame_obs::metrics::{parse_exposition, registry, Sample};
use popgame_util::json::Json;
use std::time::Duration;

/// One named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The result of one run: operation counts and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (reports run, requests sent, extra checks).
    pub attempted: u64,
    /// Operations that failed or returned a wrong output.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    /// The value of metric `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::from(m.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::from(self.failed == 0)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .encode()
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending (NaN-free input).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    values
}

/// The median of `values` (0 when empty).
pub fn median(values: Vec<f64>) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Microseconds in `d`, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// This process's peak resident set (`VmHWM`) in MiB, 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Counters of the scheduler and the engine, read from outside: the
/// runner's [`popgame_runner::pool_snapshot`] and the `popgame_engine_*`
/// families of the process-wide metrics registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounters {
    /// Runner tasks executed.
    pub tasks: f64,
    /// Runner steals.
    pub steals: f64,
    /// Runner worker idle time, seconds.
    pub idle_s: f64,
    /// Engine τ-leaps.
    pub leaps: f64,
    /// Engine incremental kernel refreshes.
    pub kernel_refreshes: f64,
    /// Engine exact steps.
    pub exact_steps: f64,
}

impl LayerCounters {
    /// Reads every counter now.
    pub fn read() -> Self {
        let pool = popgame_runner::pool_snapshot();
        let samples: Vec<Sample> =
            parse_exposition(&registry().render()).expect("the registry renders valid text");
        let engine = |name: &str| crate::http::series_sum(&samples, name, &[]);
        LayerCounters {
            tasks: pool.iter().map(|w| w.tasks as f64).sum(),
            steals: pool.iter().map(|w| w.steals as f64).sum(),
            idle_s: pool.iter().map(|w| w.idle_ns as f64).sum::<f64>() / 1e9,
            leaps: engine("popgame_engine_leaps_total"),
            kernel_refreshes: engine("popgame_engine_kernel_refreshes_total"),
            exact_steps: engine("popgame_engine_exact_steps_total"),
        }
    }

    /// Pushes the change since `before`, per operation, as the `runner.*`
    /// and `population.*` count metrics.
    pub fn push_delta(&self, before: &LayerCounters, ops: u64, out: &mut Outcome) {
        let per_op = |after: f64, before: f64| (after - before) / ops.max(1) as f64;
        out.push("runner.tasks", "count/op", per_op(self.tasks, before.tasks));
        out.push(
            "runner.steals",
            "count/op",
            per_op(self.steals, before.steals),
        );
        out.push("runner.idle_s", "s/op", per_op(self.idle_s, before.idle_s));
        out.push(
            "population.leaps",
            "count/op",
            per_op(self.leaps, before.leaps),
        );
        out.push(
            "population.kernel_refreshes",
            "count/op",
            per_op(self.kernel_refreshes, before.kernel_refreshes),
        );
        out.push(
            "population.exact_steps",
            "count/op",
            per_op(self.exact_steps, before.exact_steps),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = sorted(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(vec![]), 0.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.99), 99.0);
    }

    #[test]
    fn outcome_prints_one_json_line() {
        let mut out = Outcome {
            attempted: 3,
            failed: 0,
            ..Outcome::default()
        };
        out.push("wall_s", "s", 1.25);
        let line = out.to_json();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let wall = doc.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }
}
