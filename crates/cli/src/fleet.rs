//! `popgame fleet` — the service load driver: share-nothing instances,
//! consistent-hash routing, and every serving number in
//! `BENCH_service.json`.
//!
//! The fleet spawns N independent `popgame serve` processes (ephemeral
//! ports, no shared state) plus one standby, and measures throughput
//! and p50/p99 latency through five phases:
//!
//! 1. **cached** — against the first instance, every client repeats one
//!    warmed `/simulate` request; each reply must be byte-identical to
//!    the cold one.
//! 2. **uncached** — against the same instance, every request carries a
//!    fresh seed, forcing a real batched-engine computation (n = 500,
//!    one replica).
//!
//!    After each of these two phases the driver scrapes the instance's
//!    `/metrics` and cross-checks the server's own counters against the
//!    client tallies; the first scrape is the `server` block.
//! 3. **steady** — requests are routed to an instance by consistent hash
//!    of their **canonical** cache key
//!    ([`popgame_service::ring::HashRing`]); the warmed base fleet
//!    answers every one from cache.
//! 4. **add-shard** — the standby joins. Only the keys on the new
//!    node's arcs move (~`1/(N+1)` of the keyspace), so the hit rate
//!    dips by about that much and recovers as the moved keys warm.
//! 5. **remove-shard** — the joined instance leaves again. Moved keys
//!    return to their original (still-warm) owners, so the hit rate
//!    snaps back to 1 without recomputation.
//!
//! Every 200-response body of the ring phases is checked byte-for-byte
//! against the instance-independent expected body (the determinism
//! contract across processes). The first two phases land at the top of
//! `BENCH_service.json`, the ring phases in its `fleet` block, and all
//! of them as `popgame-fleet` rows in `BENCH_history.jsonl`.

use crate::commands::{take_value, usage, CliError};
use crate::load::{self, rate, run_phase, Client, Request};
use popgame_obs::metrics::{parse_exposition, Sample};
use popgame_obs::perf;
use popgame_service::ring::{HashRing, DEFAULT_VNODES};
use popgame_service::{PopgameService, ServiceConfig};
use popgame_util::json::Json;
use std::borrow::Cow;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// One spawned `popgame serve` process and its bound address.
struct Instance {
    child: Child,
    addr: String,
}

impl Instance {
    /// Spawns `popgame serve --addr 127.0.0.1:0 --allow-remote-shutdown`
    /// via the current executable and waits for the readiness line.
    fn spawn(http_workers: usize) -> Result<Instance, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(&exe)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--allow-remote-shutdown",
                "--http-workers",
                &http_workers.to_string(),
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout piped");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("reading readiness line: {e}"))?;
        let addr = line
            .trim()
            .rsplit("http://")
            .next()
            .filter(|a| a.contains(':'))
            .ok_or_else(|| format!("unexpected readiness line {line:?}"))?
            .to_string();
        Ok(Instance { child, addr })
    }

    /// Graceful stop: `POST /shutdown`, then reap the process.
    fn shutdown(mut self) {
        if let Ok(mut client) = Client::connect(&self.addr) {
            let _ = client.send("POST", "/shutdown", "");
        }
        let _ = self.child.wait();
    }
}

impl Drop for Instance {
    fn drop(&mut self) {
        // Safety net for error paths; the normal path reaps via
        // `shutdown` (which consumes self before Drop sees a live child).
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The fleet workload: `keys` distinct simulate requests, small enough
/// that warming is cheap but real enough that a missed route would cost
/// a visible recomputation. Returns `(canonical, body)` pairs — routing
/// hashes the canonical string, exactly what the server's cache keys.
fn workload(keys: usize) -> Vec<(String, String)> {
    (0..keys)
        .map(|i| {
            let body = format!(
                r#"{{"scenario":"hawk-dove","n":200,"interactions":2000,"replicas":1,"seed":{i}}}"#
            );
            let doc = Json::parse(&body).expect("workload body is valid JSON");
            let canonical = popgame_service::api::SimulateRequest::from_json(&doc)
                .expect("workload body validates")
                .canonical();
            (canonical, body)
        })
        .collect()
}

/// Warms every workload key through `ring`; the returned bodies, indexed
/// like `work`, are the bytes every later reply must repeat.
fn warm_ring(ring: &HashRing, work: &[(String, String)]) -> Result<Vec<String>, String> {
    load::warm(work.iter().map(|(canonical, body)| {
        (
            ring.route(canonical).expect("non-empty ring"),
            body.as_str(),
        )
    }))
}

/// The ring phases' request `index` of thread `t`: each thread cycles
/// through the workload from key `t` with stride `2t + 1` (coprime
/// strides decorrelate the threads without shared state or randomness)
/// and routes by `ring`.
fn ring_request<'a>(
    ring: &'a HashRing,
    work: &'a [(String, String)],
    expected: &'a [String],
) -> impl Fn(usize, u64) -> Request<'a> + Sync {
    move |t, index| {
        let t = t as u64;
        let key = ((t + index * (2 * t + 1)) % work.len() as u64) as usize;
        let (canonical, body) = &work[key];
        (
            ring.route(canonical).expect("non-empty ring"),
            Cow::Borrowed(body.as_str()),
            Some(expected[key].as_str()),
        )
    }
}

/// The cached phase's one request, warmed once on the first instance.
const CACHED_BODY: &str =
    r#"{"scenario":"hawk-dove","n":1000,"interactions":10000,"replicas":2,"seed":1}"#;

/// The value of the series `name{labels}` in a scrape, if present.
fn metric_value(samples: &[Sample], name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    samples
        .iter()
        .find(|s| s.name == name && labels.iter().all(|(k, v)| s.label(k) == Some(*v)))
        .map(|s| s.value)
}

/// The upper bucket edge covering quantile `q` of a scraped histogram —
/// the smallest `le` whose cumulative count reaches `q` of the total.
fn histogram_quantile_upper(
    samples: &[Sample],
    name: &str,
    labels: &[(&str, &str)],
    q: f64,
) -> Option<f64> {
    let bucket_name = format!("{name}_bucket");
    let mut buckets: Vec<(f64, f64)> = samples
        .iter()
        .filter(|s| s.name == bucket_name && labels.iter().all(|(k, v)| s.label(k) == Some(*v)))
        .filter_map(|s| {
            let le = s.label("le")?;
            let edge = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((edge, s.value))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("edges are ordered"));
    let total = buckets.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let target = total * q;
    buckets
        .iter()
        .find(|&&(_, cumulative)| cumulative >= target)
        .map(|&(edge, _)| edge)
}

/// Scrapes `addr`'s `/metrics` and cross-checks the server's own
/// counters against the clients' tallies so far (`requests` 200s, warm
/// pass included, and `hits` cache hits). The server necessarily saw
/// every 200 the clients counted, and its cache-hit tally can only
/// exceed theirs (retries). Returns the `server` block.
fn cross_check(addr: &str, requests: u64, hits: u64) -> Result<Json, CliError> {
    let failed = |what: String| CliError::Runtime(format!("metrics cross-check on {addr}: {what}"));
    let (status, _, scrape) = Client::connect(addr)
        .and_then(|mut client| client.send("GET", "/metrics", ""))
        .map_err(|e| failed(format!("scraping /metrics: {e}")))?;
    if status != 200 {
        return Err(failed(format!("/metrics answered {status}")));
    }
    let samples = parse_exposition(&scrape).map_err(failed)?;
    let simulate = [("endpoint", "simulate")];
    let server_requests =
        metric_value(&samples, "popgame_http_requests_total", &simulate).unwrap_or(0.0);
    let server_hits = metric_value(&samples, "popgame_cache_hits_total", &[]).unwrap_or(0.0);
    let server_misses = metric_value(&samples, "popgame_cache_misses_total", &[]).unwrap_or(0.0);
    let server_p99_upper_us = histogram_quantile_upper(
        &samples,
        "popgame_http_request_duration_us",
        &simulate,
        0.99,
    )
    .unwrap_or(0.0);
    if server_requests < requests as f64 {
        return Err(failed(format!(
            "server saw {server_requests} /simulate requests, clients counted {requests}"
        )));
    }
    if server_hits < hits as f64 {
        return Err(failed(format!(
            "server counted {server_hits} cache hits, clients counted {hits}"
        )));
    }
    if server_p99_upper_us <= 0.0 {
        return Err(failed(
            "the /simulate latency histogram recorded nothing".to_string(),
        ));
    }
    Ok(Json::obj([
        ("simulate_requests", Json::from(server_requests)),
        ("cache_hits", Json::from(server_hits)),
        ("cache_misses", Json::from(server_misses)),
        (
            "cache_hit_rate",
            Json::from(rate(server_hits, server_hits + server_misses)),
        ),
        ("p99_upper_bound_us", Json::from(server_p99_upper_us)),
        ("series_scraped", Json::from(samples.len())),
    ]))
}

const FLEET_USAGE: &str = "usage: popgame fleet [--instances N] [--keys K] [--clients C] \
     [--window-ms MS] [--quick] [--out PATH] [--history PATH] [--no-history]";

fn parse_flag<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    take_value(it, flag)?
        .parse()
        .map_err(|e| CliError::Usage(format!("{flag}: {e}")))
}

/// `popgame fleet` — spawn, load, route, rebalance, measure (see the
/// module docs for the phase semantics).
///
/// # Errors
///
/// Usage errors on malformed flags; runtime errors when instances fail
/// to spawn, warm, or answer, when the metrics cross-check fails, or
/// when any reply is not byte-identical to its warmed bytes.
pub fn fleet(args: &[String]) -> Result<(), CliError> {
    let mut instances = None;
    let mut keys = None;
    let mut clients = None;
    let mut window_ms = None;
    let mut quick = false;
    let mut out_path = "BENCH_service.json".to_string();
    let mut history_path: Option<String> = Some("BENCH_history.jsonl".to_string());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" => {
                println!("{FLEET_USAGE}");
                return Ok(());
            }
            "--quick" => quick = true,
            "--instances" => instances = Some(parse_flag(&mut it, "--instances")?),
            "--keys" => keys = Some(parse_flag(&mut it, "--keys")?),
            "--clients" => clients = Some(parse_flag(&mut it, "--clients")?),
            "--window-ms" => window_ms = Some(parse_flag(&mut it, "--window-ms")?),
            "--out" => out_path = take_value(&mut it, "--out")?,
            "--history" => history_path = Some(take_value(&mut it, "--history")?),
            "--no-history" => history_path = None,
            other => return usage(format!("unknown flag {other}\n{FLEET_USAGE}")),
        }
    }
    // The quick preset fills only what the flags left unset.
    let instances: usize = instances.unwrap_or(if quick { 2 } else { 3 });
    let keys: usize = keys.unwrap_or(if quick { 16 } else { 64 });
    let clients: usize = clients.unwrap_or(if quick { 2 } else { 4 });
    let window = Duration::from_millis(window_ms.unwrap_or(if quick { 300 } else { 1000 }));
    if !(1..=16).contains(&instances) {
        return usage("--instances must be in 1..=16");
    }
    if keys == 0 || clients == 0 {
        return usage("--keys and --clients must be >= 1");
    }

    // Boot the base fleet plus the instance the add phase will join.
    // Every client holds one keep-alive connection per instance, and
    // popgamed gives each connection a worker until it closes: two spare
    // workers keep the scrape and the warm pass from queueing.
    let mut fleet: Vec<Instance> = Vec::new();
    for i in 0..=instances {
        fleet.push(
            Instance::spawn(clients + 2)
                .map_err(|e| CliError::Runtime(format!("instance {i}: {e}")))?,
        );
    }
    let joiner = fleet.pop().expect("spawned instances+1");
    let base_ids: Vec<String> = fleet.iter().map(|inst| inst.addr.clone()).collect();
    eprintln!(
        "fleet: {} instances up ({}), +1 standby ({})",
        fleet.len(),
        base_ids.join(", "),
        joiner.addr
    );

    // Phases 1–2: one instance, one warmed key, then fresh seeds.
    let single = base_ids[0].as_str();
    let cold = load::warm([(single, CACHED_BODY)]).map_err(CliError::Runtime)?;
    let cached = run_phase(clients, window, |_, _| {
        (single, Cow::Borrowed(CACHED_BODY), Some(cold[0].as_str()))
    });
    let server = cross_check(single, 1 + cached.requests, cached.hits)?;
    let uncached = run_phase(clients, window, |t, index| {
        let seed = 1_000 + t as u64 * 1_000_000_000 + index;
        let body = format!(
            r#"{{"scenario":"rock-paper-scissors","n":500,"interactions":5000,"replicas":1,"seed":{seed}}}"#
        );
        (single, Cow::Owned(body), None)
    });
    cross_check(
        single,
        1 + cached.requests + uncached.requests,
        cached.hits + uncached.hits,
    )?;

    // Phase 3: the warmed base fleet. The expected body is
    // instance-independent — that's the determinism contract every
    // later reply re-verifies.
    let work = workload(keys);
    let ring = HashRing::with_nodes(base_ids.iter().cloned(), DEFAULT_VNODES);
    let expected = warm_ring(&ring, &work).map_err(CliError::Runtime)?;
    let steady = run_phase(clients, window, ring_request(&ring, &work, &expected));

    // Phase 4: one shard joins; only its arcs' keys miss (and re-warm).
    let mut grown = ring.clone();
    grown.add(joiner.addr.clone());
    let moved_on_add = work
        .iter()
        .filter(|(canonical, _)| ring.route(canonical) != grown.route(canonical))
        .count();
    let add_shard = run_phase(clients, window, ring_request(&grown, &work, &expected));

    // Phase 5: the joiner leaves; keys return to their warm owners.
    let mut shrunk = grown.clone();
    shrunk.remove(&joiner.addr);
    joiner.shutdown();
    let remove_shard = run_phase(clients, window, ring_request(&shrunk, &work, &expected));

    for instance in fleet {
        instance.shutdown();
    }

    let ring_phases = [
        ("steady", "steady", ring.len(), &steady),
        ("add_shard", "add-shard", grown.len(), &add_shard),
        ("remove_shard", "remove-shard", shrunk.len(), &remove_shard),
    ];
    let ring_mismatches: u64 = ring_phases.iter().map(|(.., s)| s.mismatches).sum();
    let mut fleet_fields = vec![
        ("instances", Json::from(instances as u64)),
        ("keys", Json::from(keys as u64)),
        ("clients", Json::from(clients as u64)),
        ("window_ms", Json::from(window.as_millis() as u64)),
        ("quick", Json::from(quick)),
        (
            "moved_keys_on_add",
            Json::obj([
                ("moved", Json::from(moved_on_add as u64)),
                ("total", Json::from(keys as u64)),
            ]),
        ),
    ];
    for (key, label, size, summary) in ring_phases {
        let head = vec![
            ("phase", Json::from(label)),
            ("instances", Json::from(size as u64)),
        ];
        fleet_fields.push((key, summary.to_json(head)));
    }
    fleet_fields.push(("byte_identical", Json::from(ring_mismatches == 0)));
    let mismatches = cached.mismatches + ring_mismatches;
    let doc = Json::obj([
        ("benchmark", Json::from("popgamed-service")),
        ("quick", Json::from(quick)),
        ("clients", Json::from(clients as u64)),
        ("window_ms", Json::from(window.as_millis() as u64)),
        ("cached", cached.to_json(Vec::new())),
        ("uncached", uncached.to_json(Vec::new())),
        ("server", server),
        (
            "meets_acceptance",
            Json::from(cached.rps >= 10_000.0 && uncached.rps >= 100.0 && mismatches == 0),
        ),
        ("fleet", Json::obj(fleet_fields)),
    ]);
    let text = doc.pretty();
    std::fs::write(&out_path, &text)
        .map_err(|e| CliError::Runtime(format!("writing {out_path}: {e}")))?;
    println!("{text}");

    if let Some(history) = &history_path {
        let metrics = [
            perf::Metric::new("cached_rps", cached.rps, "per_sec"),
            perf::Metric::new("uncached_rps", uncached.rps, "per_sec"),
            perf::Metric::new("cached_p99_us", cached.p99_us as f64, "us"),
            perf::Metric::new("uncached_p99_us", uncached.p99_us as f64, "us"),
            perf::Metric::new("fleet_steady_rps", steady.rps, "per_sec"),
            perf::Metric::new("fleet_steady_p99_us", steady.p99_us as f64, "us"),
            perf::Metric::new("fleet_add_rps", add_shard.rps, "per_sec"),
            perf::Metric::new("fleet_add_p99_us", add_shard.p99_us as f64, "us"),
            perf::Metric::new("fleet_remove_rps", remove_shard.rps, "per_sec"),
            perf::Metric::new("fleet_remove_p99_us", remove_shard.p99_us as f64, "us"),
        ];
        let mode = if quick { "quick" } else { "full" };
        perf::append_history(Path::new(history), "popgame-fleet", mode, &metrics)
            .map_err(|e| CliError::Runtime(format!("appending {history}: {e}")))?;
    }
    if mismatches > 0 {
        return Err(CliError::Runtime(format!(
            "responses were not byte-identical ({mismatches} mismatches)"
        )));
    }
    Ok(())
}

/// The in-process fleet probe behind `popgame bench`'s
/// `fleet_cached_rps` metric: two `PopgameService` instances in this
/// process, a hash ring over their addresses, and a short one-client
/// cached-hit phase. Cheap enough to run on every bench invocation,
/// which is what lets `bench --check` gate on the metric.
///
/// # Errors
///
/// A message when an instance fails to boot or warm, or a request fails.
pub fn in_process_fleet_probe() -> Result<Json, String> {
    let boot = || {
        PopgameService::start(ServiceConfig {
            http_workers: 2,
            ..ServiceConfig::default()
        })
        .map_err(|e| format!("booting in-process instance: {e}"))
    };
    let a = boot()?;
    let b = boot()?;
    let ids = [a.local_addr().to_string(), b.local_addr().to_string()];
    let ring = HashRing::with_nodes(ids.iter().cloned(), DEFAULT_VNODES);
    let work = workload(16);
    let expected = warm_ring(&ring, &work)?;
    let window = Duration::from_millis(200);
    let phase = run_phase(1, window, ring_request(&ring, &work, &expected));
    a.shutdown();
    b.shutdown();
    if phase.errors + phase.mismatches > 0 {
        return Err(format!(
            "fleet probe: {} failed requests, {} body mismatches",
            phase.errors, phase.mismatches
        ));
    }
    Ok(Json::obj([
        ("instances", Json::from(2u64)),
        ("keys", Json::from(work.len() as u64)),
        ("window_ms", Json::from(window.as_millis() as u64)),
        ("requests", Json::from(phase.requests)),
        ("cached_rps", Json::from(phase.rps)),
        (
            "cache_hit_rate",
            Json::from(rate(phase.hits as f64, phase.requests as f64)),
        ),
    ]))
}
