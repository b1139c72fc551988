//! `bench_batched` — measures interactions/sec of the population engines
//! and emits machine-readable `BENCH_batched.json` so future changes can
//! track the performance trajectory.
//!
//! ```text
//! bench_batched                # writes BENCH_batched.json in the cwd
//! bench_batched out.json       # custom output path
//! bench_batched --quick        # shorter measurement windows (CI smoke)
//! ```
//!
//! Engines, over the k-IGT protocol (k = 4 ⇒ K = 6 states):
//!
//! * `agent`   — `AgentPopulation::step`, the exact agent-level reference;
//! * `count`   — `CountedPopulation::step`, the exact per-interaction
//!   count-level engine (the pre-batching hot path);
//! * `alias`   — `BatchedEngine::step`, exact alias-table stepping;
//! * `batched` — `BatchedEngine::run_batched` with the suggested leap
//!   size, the τ-leap engine.
//!
//! The full run additionally measures the n = 10⁸ regime (τ-leap only):
//! the tabulated k-IGT protocol, and a wide-K count-coupled protocol
//! (`RingDrift`, K = 64, sparse frequency deps) on the incremental
//! kernel-refresh path. It also times `popgame reproduce --full` (as a
//! library call) on the work-stealing pool vs the sequential reference
//! path.
//!
//! Build with `--features alloc-count` to add per-engine allocation
//! counts (one measured chunk each) to the emitted rows; the committed
//! BENCH_batched.json is produced without the feature so its throughput
//! numbers come from the uninstrumented system allocator.

use popgame_igt::dynamics::{agent_population, counted_population, IgtProtocol};
use popgame_obs::log as obs_log;
use popgame_obs::perf;
use popgame_igt::params::{GenerosityGrid, IgtConfig, PopulationComposition};
use popgame_population::batch::BatchedEngine;
use popgame_population::protocol::{EnumerableProtocol, KernelDeps, Protocol};
use popgame_report::{run_report, run_report_sequential, ReportConfig};
use popgame_util::json::Json;
use popgame_util::rng::rng_from_seed;
use rand::Rng;
use std::time::{Duration, Instant};

/// Counting global allocator (`--features alloc-count`): every
/// allocation bumps a relaxed counter the rows report, making per-leap
/// buffer churn visible in the benchmark output.
#[cfg(feature = "alloc-count")]
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    struct CountingAllocator;

    // SAFETY: delegates every operation to `System` unchanged; the
    // counter bump has no effect on the returned memory.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTING: CountingAllocator = CountingAllocator;

    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }
}

/// Allocations performed by one call of `chunk` when the counting
/// allocator is compiled in; `None` otherwise.
fn allocs_during(chunk: &mut impl FnMut() -> u64) -> Option<u64> {
    #[cfg(feature = "alloc-count")]
    {
        let before = counting_alloc::allocations();
        chunk();
        Some(counting_alloc::allocations() - before)
    }
    #[cfg(not(feature = "alloc-count"))]
    {
        let _ = chunk;
        None
    }
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
        let p = self.rate
            * (0.5 + 0.25 * (3.0 * x - 1.0).tanh())
            * (1.0 + 0.5 * (-4.0 * x).exp());
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

fn config() -> IgtConfig {
    IgtConfig::new(
        PopulationComposition::new(0.3, 0.2, 0.5).expect("valid composition"),
        GenerosityGrid::new(4, 0.8).expect("valid grid"),
        popgame_game::params::GameParams::new(2.0, 0.5, 0.9, 0.95).expect("valid game"),
    )
}

/// Runs `chunk` repeatedly until `window` elapses; returns interactions/sec.
fn throughput(window: Duration, mut chunk: impl FnMut() -> u64) -> f64 {
    // Warm-up chunk (excluded from measurement).
    chunk();
    let start = Instant::now();
    let mut interactions = 0u64;
    while start.elapsed() < window {
        interactions += chunk();
    }
    interactions as f64 / start.elapsed().as_secs_f64()
}

struct Row {
    engine: &'static str,
    n: u64,
    interactions_per_sec: f64,
    /// Allocations across one measured chunk of `chunk_interactions`
    /// interactions (`--features alloc-count` builds only).
    allocs_per_chunk: Option<u64>,
    chunk_interactions: u64,
}

/// Measures one engine: throughput over `window`, then (when compiled
/// in) the allocation count of one further chunk.
fn measure(
    engine: &'static str,
    n: u64,
    window: Duration,
    chunk_interactions: u64,
    mut chunk: impl FnMut() -> u64,
) -> Row {
    let ips = throughput(window, &mut chunk);
    let allocs_per_chunk = allocs_during(&mut chunk);
    Row {
        engine,
        n,
        interactions_per_sec: ips,
        allocs_per_chunk,
        chunk_interactions,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_batched.json".to_string());
    let window = if quick {
        Duration::from_millis(120)
    } else {
        Duration::from_millis(600)
    };

    let cfg = config();
    let protocol = IgtProtocol::from_config(&cfg);
    let sizes: &[u64] = if quick {
        &[1_000, 100_000]
    } else {
        &[1_000, 100_000, 1_000_000, 10_000_000]
    };
    let mut rows: Vec<Row> = Vec::new();

    for &n in sizes {
        // Agent-level reference (explicit state vector, O(n) memory).
        {
            let mut pop = agent_population(&cfg, n, 0).expect("valid config");
            let mut rng = rng_from_seed(1);
            let chunk_len = 100_000u64;
            rows.push(measure("agent", n, window, chunk_len, || {
                for _ in 0..chunk_len {
                    pop.step(&protocol, &mut rng).expect("n >= 2");
                }
                chunk_len
            }));
        }
        // Per-interaction count-level engine (the pre-batching baseline).
        {
            let mut pop = counted_population(&cfg, n, 0).expect("valid config");
            let mut rng = rng_from_seed(2);
            let chunk_len = 100_000u64;
            rows.push(measure("count", n, window, chunk_len, || {
                for _ in 0..chunk_len {
                    pop.step(&protocol, &mut rng).expect("n >= 2");
                }
                chunk_len
            }));
        }
        // Exact alias-table stepping.
        {
            let pop = counted_population(&cfg, n, 0).expect("valid config");
            let mut engine = BatchedEngine::new(protocol, pop).expect("valid config");
            let mut rng = rng_from_seed(3);
            let chunk_len = 100_000u64;
            rows.push(measure("alias", n, window, chunk_len, || {
                for _ in 0..chunk_len {
                    engine.step(&mut rng);
                }
                chunk_len
            }));
        }
        // Batched τ-leap engine: one chunk = n interactions, leaped.
        {
            let pop = counted_population(&cfg, n, 0).expect("valid config");
            let mut engine = BatchedEngine::new(protocol, pop).expect("valid config");
            let batch = engine.suggested_batch();
            let mut rng = rng_from_seed(4);
            rows.push(measure("batched", n, window, n, || {
                engine.run_batched(n, batch, &mut rng).expect("n >= 2");
                n
            }));
        }
        obs_log::info(
            "bench_batched",
            "measured 4 engines",
            &[("n", Json::from(n))],
        );
    }

    // The n = 10⁸ regime: τ-leap only (the exact engines would need
    // minutes per chunk there; the leap engine needs ~50 ms).
    let big_n: u64 = if quick { 1_000_000 } else { 100_000_000 };
    {
        // Tabulated protocol (k-IGT, static kernel).
        let pop = counted_population(&cfg, big_n, 0).expect("valid config");
        let mut engine = BatchedEngine::new(protocol, pop).expect("valid config");
        let batch = engine.suggested_batch();
        let chunk = big_n / 10;
        let mut rng = rng_from_seed(5);
        rows.push(measure("batched-tabulated-big", big_n, window, chunk, || {
            engine.run_batched(chunk, batch, &mut rng).expect("n >= 2");
            chunk
        }));
    }
    {
        // Count-coupled wide-K protocol, incremental kernel refresh.
        let k = 64usize;
        let counts: Vec<u64> = (0..k as u64)
            .map(|i| big_n / k as u64 + u64::from(i < big_n % k as u64))
            .collect();
        let mut engine = BatchedEngine::from_counts(RingDrift { k, rate: 1e-4 }, counts)
            .expect("valid counts");
        let batch = engine.suggested_batch();
        let chunk = big_n / 20;
        let mut rng = rng_from_seed(6);
        rows.push(measure("batched-coupled-big", big_n, window, chunk, || {
            engine.run_batched(chunk, batch, &mut rng).expect("n >= 2");
            chunk
        }));
    }
    obs_log::info(
        "bench_batched",
        "measured 2 tau-leap engines",
        &[("n", Json::from(big_n))],
    );

    // Report harness: the full (scenario, dynamics, n, replica) sweep on
    // the work-stealing pool vs the sequential reference path. Equal
    // seeds produce identical reports (asserted here); the two timings
    // bound what the pool buys on this machine.
    let report_config = if quick {
        ReportConfig::quick(20240717)
    } else {
        ReportConfig::full(20240717)
    };
    let t0 = Instant::now();
    let pooled = run_report(&report_config).expect("valid preset");
    let pooled_seconds = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let sequential = run_report_sequential(&report_config).expect("valid preset");
    let sequential_seconds = t0.elapsed().as_secs_f64();
    assert_eq!(pooled, sequential, "pool must be bitwise-deterministic");
    obs_log::info(
        "bench_batched",
        "report harness timed",
        &[
            ("mode", Json::from(report_config.mode.as_str())),
            ("pooled_seconds", Json::from(pooled_seconds)),
            ("sequential_seconds", Json::from(sequential_seconds)),
            ("workers", Json::from(popgame_runner::worker_threads())),
        ],
    );

    // Headline ratio: batched vs per-step count engine (the ISSUE's
    // acceptance metric is n = 1e6).
    let ratio_at = |n: u64| -> Option<f64> {
        let count = rows
            .iter()
            .find(|r| r.engine == "count" && r.n == n)?
            .interactions_per_sec;
        let batched = rows
            .iter()
            .find(|r| r.engine == "batched" && r.n == n)?
            .interactions_per_sec;
        Some(batched / count)
    };
    let headline_n = if quick { 100_000 } else { 1_000_000 };
    let speedup = ratio_at(headline_n).unwrap_or(f64::NAN);

    let doc = Json::obj([
        ("benchmark".to_string(), Json::from("batched-count-level-engine")),
        ("protocol".to_string(), Json::from("k-IGT (k = 4, K = 6 states)")),
        (
            "coupled_protocol".to_string(),
            Json::from("RingDrift (count-coupled, K = 64, sparse deps)"),
        ),
        ("quick".to_string(), Json::from(quick)),
        (
            format!("speedup_batched_vs_count_at_n{headline_n}"),
            Json::Num((speedup * 100.0).round() / 100.0),
        ),
        (
            "report_harness".to_string(),
            Json::obj([
                ("mode", Json::from(report_config.mode.as_str())),
                ("workers", Json::from(popgame_runner::worker_threads() as u64)),
                (
                    "pooled_seconds",
                    Json::Num((pooled_seconds * 1000.0).round() / 1000.0),
                ),
                (
                    "sequential_seconds",
                    Json::Num((sequential_seconds * 1000.0).round() / 1000.0),
                ),
                ("identical_reports", Json::from(true)),
            ]),
        ),
        (
            "results".to_string(),
            Json::arr(rows.iter().map(|row| {
                let mut fields = vec![
                    ("engine", Json::from(row.engine)),
                    ("n", Json::from(row.n)),
                    (
                        "interactions_per_sec",
                        Json::Num(row.interactions_per_sec.round()),
                    ),
                ];
                if let Some(allocs) = row.allocs_per_chunk {
                    fields.push(("allocs_per_chunk", Json::from(allocs)));
                    fields.push(("chunk_interactions", Json::from(row.chunk_interactions)));
                }
                Json::obj(fields)
            })),
        ),
    ]);
    let json = doc.pretty();
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("{json}");
    // Journal the run into the shared perf history (one JSONL row per
    // metric); a read-only checkout only costs a warning.
    let mut history: Vec<perf::Metric> = rows
        .iter()
        .map(|row| {
            perf::Metric::new(
                format!("ips_{}_n{}", row.engine, row.n),
                row.interactions_per_sec,
                "per_sec",
            )
        })
        .collect();
    history.push(perf::Metric::new(
        "report_pooled_seconds",
        pooled_seconds,
        "seconds",
    ));
    history.push(perf::Metric::new(
        "report_sequential_seconds",
        sequential_seconds,
        "seconds",
    ));
    let mode = if quick { "quick" } else { "full" };
    if let Err(e) = perf::append_history(
        std::path::Path::new("BENCH_history.jsonl"),
        "bench_batched",
        mode,
        &history,
    ) {
        obs_log::warn(
            "bench_batched",
            "could not append BENCH_history.jsonl",
            &[("error", Json::from(e.to_string().as_str()))],
        );
    }
    obs_log::info(
        "bench_batched",
        "wrote benchmark artifact",
        &[
            ("path", Json::from(out_path.as_str())),
            ("headline_n", Json::from(headline_n)),
            ("speedup", Json::from((speedup * 10.0).round() / 10.0)),
        ],
    );
}
