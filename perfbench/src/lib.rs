//! The popgame benchmark: one process that times the full paper report
//! and popgamed serving, end to end and layer by layer. See `README.md`.

pub mod engine;
pub mod gen;
pub mod http;
pub mod measure;
pub mod reproduce;
pub mod serve;

/// The workloads, as named on the command line and in `BENCHMARK.json`.
pub const WORKLOADS: [&str; 3] = ["reproduce-full", "serve-miss", "serve-hit"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run with the traced run's
/// own end-to-end figures (prefixed [`TRACED_PREFIX`]), so the cost of
/// tracing shows. A layer a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("report.sweep_wall_s", "s"),
    ("report.busy_s.convergence", "s"),
    ("report.busy_s.eta-sweep", "s"),
    ("report.busy_s.divergence", "s"),
    ("report.post_sweep_s", "s"),
    ("report.render_s", "s"),
    ("report.accounted_share", "ratio"),
    ("runner.utilization", "ratio"),
    ("runner.tasks", "count/op"),
    ("runner.steals", "count/op"),
    ("runner.idle_s", "s/op"),
    ("population.ips.best-response", "1/s"),
    ("population.ips.logit", "1/s"),
    ("population.ips.imitation", "1/s"),
    ("population.ips.pairwise-imitation", "1/s"),
    ("population.ips.imitation-two-way", "1/s"),
    ("population.ips.br-sample", "1/s"),
    ("population.ips.k-igt", "1/s"),
    ("population.leaps", "count/op"),
    ("population.kernel_refreshes", "count/op"),
    ("population.exact_steps", "count/op"),
    ("solver.solve_us", "us"),
    ("service.api.parse_us", "us"),
    ("service.api.canonical_us", "us"),
    ("service.api.compute_us", "us"),
    ("service.api.render_us", "us"),
    ("service.cache.get_us", "us"),
    ("service.cache.insert_us", "us"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.cache.disk_writes", "count/op"),
    ("service.route_us", "us"),
    ("service.http.wire_us", "us"),
    ("service.http.rejected", "count"),
    ("service.http.parse_errors", "count"),
];

/// Prefix of the end-to-end figures a traced run reports.
pub const TRACED_PREFIX: &str = "traced.";

#[cfg(test)]
mod tests {
    use super::*;
    use popgame_util::json::Json;

    fn listed(doc: &Json, section: &str) -> Vec<(String, String)> {
        doc.get(section)
            .and_then(Json::as_array)
            .expect("section is a list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_runs_print() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |list: &[(&str, &str)], prefix: &str| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (format!("{prefix}{n}"), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END, ""));
        let mut layers = own(&PER_LAYER, "");
        layers.extend(own(&END_TO_END, TRACED_PREFIX));
        assert_eq!(listed(&doc, "per_layer"), layers);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
