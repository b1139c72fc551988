//! The `reproduce-full` workload: the paper's report at the full preset,
//! run and rendered in process with no daemon, as `popgame reproduce
//! --full` does.

use crate::engine;
use crate::gen::simulate_cells;
use crate::measure::{self, LayerCounters, Outcome};
use crate::SETUP_REPEATS;
use popgame_report::{
    render, run_report, run_report_profiled, Report, ReportConfig, REPRODUCE_SEED,
};
use std::time::{Duration, Instant};

/// The committed `REPORT.json` and `REPORT.md`, rendered at
/// [`REPRODUCE_SEED`] by the full preset.
fn committed() -> Option<(String, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let json = std::fs::read_to_string(root.join("REPORT.json")).ok()?;
    let md = std::fs::read_to_string(root.join("REPORT.md")).ok()?;
    Some((json, md))
}

fn render_both(report: &Report) -> (String, String) {
    (render::report_json(report), render::report_markdown(report))
}

/// What the traced run learns from one profiled report.
struct Breakdown {
    sweep_s: f64,
    busy_s: [f64; 3],
    post_sweep_s: f64,
    render_s: f64,
    utilization: f64,
}

const SECTIONS: [&str; 3] = ["convergence", "eta-sweep", "divergence"];

/// Runs the workload: set-up (a warm-up quick-preset report, repeated),
/// then full-preset reports back to back for `window`, each checked to be
/// byte-identical to the first (or to the committed bytes at the
/// committed seed). At any other seed one extra untimed report at the
/// committed seed is checked against the committed files.
pub fn run(seed: u64, window: Duration, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let committed = committed();

    let setup: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let t = Instant::now();
            let report = run_report(&ReportConfig::quick(seed)).expect("the quick preset is valid");
            std::hint::black_box(render_both(&report));
            t.elapsed().as_secs_f64()
        })
        .collect();

    let config = ReportConfig::full(seed);
    let mut expected = if seed == REPRODUCE_SEED {
        if committed.is_none() {
            out.failed += 1;
        }
        committed.clone()
    } else {
        None
    };
    let before = trace.then(LayerCounters::read);
    let mut latencies = Vec::new();
    let mut breakdowns = Vec::new();
    let start = Instant::now();
    while out.attempted == 0 || start.elapsed() < window {
        out.attempted += 1;
        let t = Instant::now();
        let ran = if trace {
            run_report_profiled(&config).map(|(report, profile)| (report, Some(profile)))
        } else {
            run_report(&config).map(|report| (report, None))
        };
        let profiled_s = t.elapsed().as_secs_f64();
        let (report, profile) = match ran {
            Ok(ran) => ran,
            Err(e) => {
                eprintln!("reproduce-full: report failed: {e}");
                out.failed += 1;
                continue;
            }
        };
        let render_start = Instant::now();
        let rendered = render_both(&report);
        let render_s = render_start.elapsed().as_secs_f64();
        latencies.push(t.elapsed().as_secs_f64());
        match &expected {
            Some(bytes) if *bytes != rendered => out.failed += 1,
            Some(_) => {}
            None => expected = Some(rendered),
        }
        if let Some(profile) = profile {
            let sweep_s = profile.wall_clock_us as f64 / 1e6;
            let mut busy_s = [0.0; 3];
            for cell in &profile.cells {
                if let Some(i) = SECTIONS.iter().position(|&s| s == cell.section) {
                    busy_s[i] += cell.busy_us as f64 / 1e6;
                }
            }
            breakdowns.push(Breakdown {
                sweep_s,
                busy_s,
                post_sweep_s: profiled_s - sweep_s,
                render_s,
                utilization: profile.busy_us as f64
                    / (profile.wall_clock_us.max(1) as f64 * profile.workers.max(1) as f64),
            });
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let after = trace.then(LayerCounters::read);

    if seed != REPRODUCE_SEED {
        out.attempted += 1;
        let reference = run_report(&ReportConfig::full(REPRODUCE_SEED)).map(|r| render_both(&r));
        if committed.is_none() || reference.ok() != committed {
            eprintln!("reproduce-full: the committed-seed report differs from REPORT.*");
            out.failed += 1;
        }
    }

    let reports = latencies.len() as u64;
    let sorted = measure::sorted(latencies.clone());
    eprintln!(
        "reproduce-full: {reports} reports in {elapsed:.2} s, setup {setup:.3?} s",
        setup = setup
    );
    out.push("setup_s", "s", measure::median(setup));
    out.push("wall_s", "s", measure::mean(&latencies));
    // Reports per second of report time: with a handful of reports per
    // window, dividing by the window would jump with the last report.
    out.push(
        "throughput_rps",
        "1/s",
        reports as f64 / latencies.iter().sum::<f64>(),
    );
    out.push(
        "latency_p50_us",
        "us",
        measure::quantile(&sorted, 0.5) * 1e6,
    );
    out.push(
        "latency_p99_us",
        "us",
        measure::quantile(&sorted, 0.99) * 1e6,
    );
    out.push("peak_rss_mb", "MiB", measure::peak_rss_mb());

    if let (Some(before), Some(after)) = (before, after) {
        let med =
            |f: &dyn Fn(&Breakdown) -> f64| measure::median(breakdowns.iter().map(f).collect());
        let (sweep, post, render) = (
            med(&|b| b.sweep_s),
            med(&|b| b.post_sweep_s),
            med(&|b| b.render_s),
        );
        out.push("report.sweep_wall_s", "s", sweep);
        for (i, section) in SECTIONS.iter().enumerate() {
            out.push(
                &format!("report.busy_s.{section}"),
                "s",
                med(&|b| b.busy_s[i]),
            );
        }
        out.push("report.post_sweep_s", "s", post);
        out.push("report.render_s", "s", render);
        // The three parts should account for the whole report: a share
        // well below 1 means time spent outside every timed layer.
        let wall = measure::mean(&latencies);
        out.push(
            "report.accounted_share",
            "ratio",
            (sweep + post + render) / wall,
        );
        out.push("runner.utilization", "ratio", med(&|b| b.utilization));
        after.push_delta(&before, reports, &mut out);
        engine::push_ips(&simulate_cells(), &config.sizes, seed, &mut out);
    }
    out
}
