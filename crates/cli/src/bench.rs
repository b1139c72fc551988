//! `popgame bench` — the throughput probe and CI perf gate, plus the
//! engine and solver tables.
//!
//! One run prints one JSON document:
//!
//! * the gate probe (`results`): four dynamics rules on
//!   rock-paper-scissors, timed over a fixed interaction count;
//! * `analytics`: the time-constant estimator battery;
//! * `fleet`: a two-instance cached-serving probe;
//! * `engines`: interactions/sec of the k-IGT agent, count, alias and
//!   τ-leap engines over a ladder of n, then the τ-leap alone at the big
//!   n on the tabulated k-IGT kernel and on [`RingDrift`]'s incremental
//!   kernel refresh;
//! * `solver`: support-enumeration and zero-sum LP solves/sec.
//!
//! `engines` and `solver` share one [`throughput`] loop and one window
//! per preset (120 ms `--quick`, 600 ms otherwise). Every metric goes to
//! the history under the `popgame-bench` label; `--check` gates only the
//! metrics the baseline names.

use crate::commands::{parse_u64, take_value, usage, CliError};
use popgame_game::params::GameParams;
use popgame_igt::dynamics::{agent_population, counted_population, IgtProtocol};
use popgame_igt::{GenerosityGrid, IgtConfig, PopulationComposition};
use popgame_obs::perf;
use popgame_population::batch::BatchedEngine;
use popgame_population::protocol::{EnumerableProtocol, KernelDeps, Protocol};
use popgame_solver::dynamics::{engine_from_profile, DynamicsRule, GameDynamics};
use popgame_solver::nash::enumerate_equilibria;
use popgame_solver::scenarios::{by_name, Scenario};
use popgame_solver::zerosum::solve_zero_sum;
use popgame_util::json::Json;
use popgame_util::rng::{rng_from_seed, stream_rng};
use rand::Rng;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

const BENCH_USAGE: &str = "usage: popgame bench [--quick] [--n N] [--interactions I] \
     [--seed S] [--workers W] [--check] [--baseline PATH] [--history PATH] [--no-history]\n\
     (--n and --interactions size the gate probe; --quick also shortens the \
engine and solver tables)";

/// `popgame bench` — a quick batched-engine throughput probe over four
/// dynamics rules on rock-paper-scissors (including the count-coupled
/// pairwise-imitation path, whose kernel rebuilds every leap), followed
/// by the `engines` and `solver` tables. Timings are machine-dependent
/// (unlike every other subcommand's output); the probe's counts and
/// final frequencies are deterministic.
///
/// Every run appends one schema-versioned JSONL row per metric to the
/// history file (default `BENCH_history.jsonl`; `--no-history` skips).
/// `--check` additionally gates the probe against a committed baseline
/// (default `BENCH_baseline.json`): any metric regressing past its
/// per-metric tolerance — or missing from the probe — fails the run
/// with a nonzero exit. This is the CI perf gate.
pub fn bench(args: &[String]) -> Result<(), CliError> {
    let mut n: Option<u64> = None;
    let mut interactions: Option<u64> = None;
    let mut seed: u64 = 7;
    let mut quick = false;
    let mut check = false;
    let mut baseline_path = "BENCH_baseline.json".to_string();
    let mut history_path: Option<String> = Some("BENCH_history.jsonl".to_string());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" => {
                println!("{BENCH_USAGE}");
                return Ok(());
            }
            "--quick" => quick = true,
            "--n" => n = Some(parse_u64("--n", &take_value(&mut it, "--n")?)?),
            "--interactions" => {
                interactions = Some(parse_u64(
                    "--interactions",
                    &take_value(&mut it, "--interactions")?,
                )?);
            }
            "--seed" => seed = parse_u64("--seed", &take_value(&mut it, "--seed")?)?,
            "--workers" => {
                let w = parse_u64("--workers", &take_value(&mut it, "--workers")?)?;
                popgame_runner::set_worker_threads(Some(w as usize));
            }
            "--check" => check = true,
            "--baseline" => baseline_path = take_value(&mut it, "--baseline")?,
            "--history" => history_path = Some(take_value(&mut it, "--history")?),
            "--no-history" => history_path = None,
            other => return usage(format!("unknown flag {other}\n{BENCH_USAGE}")),
        }
    }
    // The quick preset fills only what the flags left unset.
    let n = n.unwrap_or(if quick { 100_000 } else { 1_000_000 });
    if n < 3 {
        return usage("--n must be at least 3 (three strategies)");
    }
    let total = interactions.unwrap_or(20 * n);
    let scenario = by_name("rock-paper-scissors").map_err(|e| CliError::Runtime(e.to_string()))?;
    let uniform = vec![1.0 / 3.0; 3];
    let mut results = Vec::new();
    let mut metrics = Vec::new();
    for (index, rule) in [
        DynamicsRule::BestResponse,
        DynamicsRule::Logit { eta: 2.0 },
        DynamicsRule::Imitation,
        DynamicsRule::PairwiseImitation,
    ]
    .into_iter()
    .enumerate()
    {
        let dynamics = GameDynamics::new(scenario.game(), rule)
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        let mut engine = engine_from_profile(dynamics, &uniform, n)
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        let mut rng = stream_rng(seed, index as u64);
        let batch = engine.suggested_batch();
        let start = Instant::now();
        engine
            .run_batched(total, batch, &mut rng)
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        let elapsed = start.elapsed().as_secs_f64();
        let ips = total as f64 / elapsed.max(1e-9);
        metrics.push(perf::Metric::new(
            format!("ips_{}", rule.label()),
            ips,
            "per_sec",
        ));
        results.push(Json::obj([
            ("dynamics", Json::from(rule.label())),
            ("interactions", Json::from(total)),
            ("seconds", Json::from(elapsed)),
            ("interactions_per_sec", Json::from(ips)),
            ("final_frequencies", Json::floats(&engine.frequencies())),
        ]));
    }
    // Time-constant estimator throughput: a synthetic replica ensemble
    // pushed through the full analytics battery (t_mix envelope fit,
    // absorption statistics, cycle metrology — bootstraps included).
    // The inputs are deterministic; only the timing is machine-dependent.
    let analytics_bench = bench_analytics(seed).map_err(CliError::Runtime)?;
    metrics.push(perf::Metric::new(
        "bench_analytics",
        analytics_bench
            .get("batteries_per_sec")
            .unwrap()
            .as_f64()
            .unwrap(),
        "per_sec",
    ));
    // Two-instance consistent-hash serving probe: warmed cached hits
    // routed over a hash ring, in-process. Cheap (a fraction of a
    // second), so every bench run produces the fleet-aggregate metric
    // the perf gate checks.
    let fleet_bench = crate::fleet::in_process_fleet_probe().map_err(CliError::Runtime)?;
    metrics.push(perf::Metric::new(
        "fleet_cached_rps",
        fleet_bench.get("cached_rps").unwrap().as_f64().unwrap(),
        "per_sec",
    ));
    let window = Duration::from_millis(if quick { 120 } else { 600 });
    let engines_bench = engines(quick, window, &mut metrics);
    let solver_bench = solver(window, &mut metrics);
    let mode = if quick { "quick" } else { "default" };
    if let Some(history) = &history_path {
        perf::append_history(Path::new(history), "popgame-bench", mode, &metrics)
            .map_err(|e| CliError::Runtime(format!("appending {history}: {e}")))?;
    }
    let doc = Json::obj([
        ("bench", Json::from("batched-engine dynamics throughput")),
        ("scenario", Json::from("rock-paper-scissors")),
        ("n", Json::from(n)),
        ("seed", Json::from(seed)),
        ("results", Json::arr(results)),
        ("analytics", analytics_bench),
        ("fleet", fleet_bench),
        ("engines", engines_bench),
        ("solver", solver_bench),
    ]);
    print!("{}", doc.pretty());
    if check {
        let text = std::fs::read_to_string(&baseline_path)
            .map_err(|e| CliError::Runtime(format!("reading {baseline_path}: {e}")))?;
        let baseline = perf::Baseline::parse(&text).map_err(CliError::Runtime)?;
        let outcomes = perf::check(&baseline, &metrics);
        let mut failed = Vec::new();
        for outcome in &outcomes {
            let verdict = if outcome.ok { "ok" } else { "REGRESSION" };
            match outcome.current {
                Some(current) => eprintln!(
                    "check {}: baseline {:.3e}, current {:.3e}, regression {:+.1}% \
                     (tolerance {:.0}%) — {verdict}",
                    outcome.name,
                    outcome.baseline,
                    current,
                    outcome.regression * 100.0,
                    outcome.tolerance * 100.0,
                ),
                None => eprintln!(
                    "check {}: baseline {:.3e}, metric missing from probe — {verdict}",
                    outcome.name, outcome.baseline,
                ),
            }
            if !outcome.ok {
                failed.push(outcome.name.clone());
            }
        }
        if !failed.is_empty() {
            return Err(CliError::Runtime(format!(
                "perf gate failed: {} of {} metrics regressed past tolerance ({})",
                failed.len(),
                outcomes.len(),
                failed.join(", ")
            )));
        }
        eprintln!("perf gate: all {} metrics within tolerance", outcomes.len());
    }
    Ok(())
}

/// One timed pass of the time-constant battery over a synthetic
/// ensemble: 48 replicas × 240 trajectory points, roughly the shape the
/// report harness feeds the estimators. Returns the measurement as JSON;
/// the `batteries_per_sec` field is the `bench_analytics` gate metric.
fn bench_analytics(seed: u64) -> Result<Json, String> {
    use popgame_analytics::{
        absorption_stats_ci, cycle_over_replicas, tmix_mean_tv, AbsorptionObservation,
        BootstrapConfig,
    };
    let replicas = 48usize;
    let points = 240usize;
    let boot = |stream: u64| BootstrapConfig {
        resamples: 200,
        confidence: 0.95,
        seed: seed ^ stream,
    };
    let clocks: Vec<u64> = (0..points as u64).map(|i| i * 50).collect();
    // TV decaying through ε = 0.1 with a replica-dependent wiggle, so the
    // envelope fit and its bootstrap both do real work.
    let tv_series: Vec<Vec<f64>> = (0..replicas)
        .map(|r| {
            (0..points)
                .map(|i| {
                    let t = i as f64 / (points - 1) as f64;
                    (1.0 - t) * (0.85 + 0.15 * ((r * 7 + i) as f64).sin().abs())
                })
                .collect()
        })
        .collect();
    // An oscillating first-strategy frequency for the cycle fit.
    let freq0: Vec<Vec<f64>> = (0..replicas)
        .map(|r| {
            (0..points)
                .map(|i| 0.5 + 0.3 * (i as f64 * 0.35 + r as f64 * 0.2).sin())
                .collect()
        })
        .collect();
    let horizon = clocks[points - 1] as f64;
    let observations: Vec<AbsorptionObservation> = (0..replicas)
        .map(|r| AbsorptionObservation {
            time: horizon * (0.2 + 0.6 * (r as f64 / replicas as f64)),
            absorbed: r % 5 != 0,
        })
        .collect();
    let batteries = 6u32;
    let start = Instant::now();
    for round in 0..u64::from(batteries) {
        tmix_mean_tv(&clocks, &tv_series, 0.1, &boot(round * 3)).map_err(|e| e.to_string())?;
        absorption_stats_ci(&observations, horizon, &boot(round * 3 + 1))
            .map_err(|e| e.to_string())?;
        cycle_over_replicas(&clocks, &freq0, &boot(round * 3 + 2)).map_err(|e| e.to_string())?;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let per_sec = f64::from(batteries) / elapsed.max(1e-9);
    Ok(Json::obj([
        ("bench", Json::from("time-constant estimator battery")),
        ("batteries", Json::from(u64::from(batteries))),
        ("replicas", Json::from(replicas as u64)),
        ("points", Json::from(points as u64)),
        ("seconds", Json::from(elapsed)),
        ("batteries_per_sec", Json::from(per_sec)),
    ]))
}

/// Runs `chunk` once to warm up, then repeatedly until `window` elapses;
/// `chunk` returns how many operations it performed. Returns ops/sec.
fn throughput(window: Duration, mut chunk: impl FnMut() -> u64) -> f64 {
    chunk();
    let start = Instant::now();
    let mut ops = 0u64;
    while start.elapsed() < window {
        ops += chunk();
    }
    ops as f64 / start.elapsed().as_secs_f64()
}

/// The `engines` table over the k-IGT protocol (k = 4 ⇒ K = 6 states).
/// For each n of the ladder it times the exact agent-level engine
/// (`agent`), the exact per-interaction count engine (`count`), exact
/// alias-table stepping (`alias`) and the τ-leap engine (`batched`);
/// at the big n (where the exact engines would need minutes per chunk)
/// only τ-leaps run. Pushes one `ips_<engine>_n<n>` metric per row.
fn engines(quick: bool, window: Duration, metrics: &mut Vec<perf::Metric>) -> Json {
    let cfg = IgtConfig::new(
        PopulationComposition::new(0.3, 0.2, 0.5).expect("valid composition"),
        GenerosityGrid::new(4, 0.8).expect("valid grid"),
        GameParams::new(2.0, 0.5, 0.9, 0.95).expect("valid game"),
    );
    let protocol = IgtProtocol::from_config(&cfg);
    let (sizes, big_n, headline_n): (&[u64], u64, u64) = if quick {
        (&[1_000, 100_000], 1_000_000, 100_000)
    } else {
        (
            &[1_000, 100_000, 1_000_000, 10_000_000],
            100_000_000,
            1_000_000,
        )
    };
    let leaper = |n: u64| {
        let pop = counted_population(&cfg, n, 0).expect("valid config");
        BatchedEngine::new(protocol, pop).expect("valid config")
    };
    // Single interactions per exact-engine chunk.
    const STEPS: u64 = 100_000;
    let mut rows: Vec<(&str, u64, f64)> = Vec::new();
    for &n in sizes {
        let mut agents = agent_population(&cfg, n, 0).expect("valid config");
        let mut rng = rng_from_seed(1);
        let ips = throughput(window, || {
            for _ in 0..STEPS {
                agents.step(&protocol, &mut rng).expect("n >= 2");
            }
            STEPS
        });
        rows.push(("agent", n, ips));
        let mut counts = counted_population(&cfg, n, 0).expect("valid config");
        let mut rng = rng_from_seed(2);
        let ips = throughput(window, || {
            for _ in 0..STEPS {
                counts.step(&protocol, &mut rng).expect("n >= 2");
            }
            STEPS
        });
        rows.push(("count", n, ips));
        let mut alias = leaper(n);
        let mut rng = rng_from_seed(3);
        let ips = throughput(window, || {
            for _ in 0..STEPS {
                alias.step(&mut rng);
            }
            STEPS
        });
        rows.push(("alias", n, ips));
        // One τ-leap chunk is n interactions.
        let mut leap = leaper(n);
        let batch = leap.suggested_batch();
        let mut rng = rng_from_seed(4);
        let ips = throughput(window, || {
            leap.run_batched(n, batch, &mut rng).expect("n >= 2");
            n
        });
        rows.push(("batched", n, ips));
    }
    let mut tabulated = leaper(big_n);
    let batch = tabulated.suggested_batch();
    let chunk = big_n / 10;
    let mut rng = rng_from_seed(5);
    let ips = throughput(window, || {
        tabulated
            .run_batched(chunk, batch, &mut rng)
            .expect("n >= 2");
        chunk
    });
    rows.push(("batched-tabulated-big", big_n, ips));
    let k = 64u64;
    let counts = (0..k)
        .map(|i| big_n / k + u64::from(i < big_n % k))
        .collect();
    let mut coupled = BatchedEngine::from_counts(
        RingDrift {
            k: k as usize,
            rate: 1e-4,
        },
        counts,
    )
    .expect("valid counts");
    let batch = coupled.suggested_batch();
    let chunk = big_n / 20;
    let mut rng = rng_from_seed(6);
    let ips = throughput(window, || {
        coupled.run_batched(chunk, batch, &mut rng).expect("n >= 2");
        chunk
    });
    rows.push(("batched-coupled-big", big_n, ips));

    let rate = |engine: &str| {
        rows.iter()
            .find(|row| row.0 == engine && row.1 == headline_n)
            .map_or(f64::NAN, |row| row.2)
    };
    let speedup = rate("batched") / rate("count");
    metrics.extend(
        rows.iter().map(|&(engine, n, ips)| {
            perf::Metric::new(format!("ips_{engine}_n{n}"), ips, "per_sec")
        }),
    );
    Json::obj([
        (
            "protocol".to_string(),
            Json::from("k-IGT (k = 4, K = 6 states)"),
        ),
        (
            "coupled_protocol".to_string(),
            Json::from("RingDrift (count-coupled, K = 64, sparse deps)"),
        ),
        (
            format!("speedup_batched_vs_count_at_n{headline_n}"),
            Json::Num((speedup * 100.0).round() / 100.0),
        ),
        (
            "results".to_string(),
            Json::arr(rows.iter().map(|&(engine, n, ips)| {
                Json::obj([
                    ("engine", Json::from(engine)),
                    ("n", Json::from(n)),
                    ("interactions_per_sec", Json::Num(ips.round())),
                ])
            })),
        ),
    ])
}

/// The `solver` table: games/sec over 64 seeded random games per size —
/// support enumeration on symmetric K×K games (`enumerate_kK`, the
/// exponential exact path) and the simplex LP on zero-sum ones
/// (`zero_sum_kK`, the polynomial path). Pushes one metric per row.
fn solver(window: Duration, metrics: &mut Vec<perf::Metric>) -> Json {
    // Solves `games` round-robin, eight per chunk.
    let games_per_sec = |games: &[Scenario], solve: &dyn Fn(&Scenario)| {
        let mut cursor = 0;
        throughput(window, || {
            for _ in 0..8 {
                solve(&games[cursor % games.len()]);
                cursor += 1;
            }
            8
        })
    };
    let mut rows: Vec<(String, f64)> = Vec::new();
    for k in [2usize, 3, 4] {
        let games: Vec<Scenario> = (0..64)
            .map(|seed| Scenario::random_symmetric(k, seed).expect("k >= 1"))
            .collect();
        let rate = games_per_sec(&games, &|s| {
            black_box(enumerate_equilibria(s.game()));
        });
        rows.push((format!("enumerate_k{k}"), rate));
    }
    for k in [4usize, 8, 16] {
        let games: Vec<Scenario> = (0..64)
            .map(|seed| Scenario::random_zero_sum(k, seed).expect("k >= 1"))
            .collect();
        let rate = games_per_sec(&games, &|s| {
            black_box(solve_zero_sum(s.game().row_matrix()).expect("random games are solvable"));
        });
        rows.push((format!("zero_sum_k{k}"), rate));
    }
    metrics.extend(
        rows.iter()
            .map(|(component, rate)| perf::Metric::new(component.clone(), *rate, "per_sec")),
    );
    Json::obj([
        ("unit", Json::from("games/sec")),
        (
            "results",
            Json::arr(rows.iter().map(|(component, rate)| {
                Json::obj([
                    ("component", Json::from(component.as_str())),
                    ("ops_per_sec", Json::Num(rate.round())),
                ])
            })),
        ),
    ])
}

/// Synthetic wide-K count-coupled protocol: K states on a ring, the
/// `(i, j)` law reads only `freq[i]` (declared via
/// `KernelDeps::States([i])`), and the switch rate is low, so a leap
/// changes few states and the incremental refresh recomputes only the
/// rows touching them rather than all K² cells — the regime the
/// incremental `KernelTable::refresh_at` targets.
struct RingDrift {
    k: usize,
    rate: f64,
}

impl Protocol for RingDrift {
    type State = u16;
    fn interact<R: Rng + ?Sized>(&self, _i: u16, _r: u16, _rng: &mut R) -> (u16, u16) {
        panic!("count-coupled: run on BatchedEngine");
    }
    fn has_random_transitions(&self) -> bool {
        true
    }
}

impl EnumerableProtocol for RingDrift {
    fn num_states(&self) -> usize {
        self.k
    }
    fn state_index(&self, s: u16) -> usize {
        s as usize
    }
    fn state_at(&self, i: usize) -> u16 {
        i as u16
    }
    fn kernel_depends_on_counts(&self) -> bool {
        true
    }
    fn pair_kernel_at(
        &self,
        i: usize,
        j: usize,
        freq: &[f64],
    ) -> Option<Vec<((usize, usize), f64)>> {
        if i == j {
            return Some(vec![((i, i), 1.0)]);
        }
        // A deliberately transcendental law of freq[i]: the per-cell
        // evaluation cost is what the dirty mask saves.
        let x = freq[i];
        let p = self.rate * (0.5 + 0.25 * (3.0 * x - 1.0).tanh()) * (1.0 + 0.5 * (-4.0 * x).exp());
        Some(vec![(((i + 1) % self.k, j), p), ((i, j), 1.0 - p)])
    }
    fn pair_kernel_deps(&self, i: usize, j: usize) -> KernelDeps {
        if i == j {
            KernelDeps::None
        } else {
            KernelDeps::States(vec![i])
        }
    }
}
