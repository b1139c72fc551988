//! The `serve-miss` and `serve-hit` workloads: popgamed started in this
//! process through `PopgameService::start`, driven over loopback by
//! closed-loop clients, one per core, each on its own keep-alive
//! connection.

use crate::engine;
use crate::gen::{Body, HitSet, MissGen, BLOCK, SIZES, WARMUP_BASE};
use crate::http::{scrape, series_sum, Client};
use crate::measure::{self, LayerCounters, Outcome};
use crate::SETUP_REPEATS;
use popgame_obs::metrics::Sample;
use popgame_service::api::{execute_simulate, execute_solve, SimulateRequest, SolveRequest};
use popgame_service::cache::{fnv1a64, ResultCache, DEFAULT_DISK_BUDGET};
use popgame_service::{PopgameService, ServiceConfig};
use popgame_util::json::Json;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every request a canonical key never seen before.
    Miss,
    /// Every request a re-spelled key from the warmed set.
    Hit,
}

impl Kind {
    fn expected_cache(self) -> &'static str {
        match self {
            Kind::Miss => "miss",
            Kind::Hit => "hit",
        }
    }
}

/// Pre-generated re-spelled serve-hit bodies, cycled through.
const HIT_POOL: u64 = 4096;
/// Request texts the traced run parses and canonicalizes in process.
const PARSE_PROBE: usize = 4096;
/// Results the traced run inserts into a disk-backed cache.
const INSERT_PROBE: usize = 1024;
/// Cache lookups the traced run times.
const GET_PROBE: usize = 200_000;

/// What the clients saw in the timed window.
#[derive(Default)]
struct Window {
    /// Per key (miss: request index; hit: hit-set key): the hash of its
    /// first good reply body, and how many good replies it got.
    replies: HashMap<u64, (u64, u64)>,
    /// Latencies of good replies, in ns.
    latencies: Vec<u32>,
    /// Requests sent.
    sent: u64,
    /// From the first request sent to the last reply.
    elapsed: Duration,
    /// Replies that were not a 200 with the expected cache header, I/O
    /// errors, and bodies differing from an earlier reply to the same key.
    bad: u64,
}

impl Window {
    fn merge(&mut self, other: Window) {
        for (key, (hash, count)) in other.replies {
            let entry = self.replies.entry(key).or_insert((hash, 0));
            if entry.0 == hash {
                entry.1 += count;
            } else {
                self.bad += count;
            }
        }
        self.latencies.extend(other.latencies);
        self.sent += other.sent;
        self.bad += other.bad;
    }
}

/// The in-process reference for one request.
struct Reference {
    hash: u64,
    compute: Duration,
    render: Duration,
    solve: bool,
    body: Option<String>,
}

/// Executes `body` in process exactly as the daemon would, timing the
/// compute and the JSON render apart.
fn reference(body: &Body, keep_body: bool) -> Result<Reference, String> {
    let doc = Json::parse(&body.minimal()).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let result = match body {
        Body::Simulate { .. } => {
            execute_simulate(&SimulateRequest::from_json(&doc)?, &AtomicBool::new(false))
        }
        Body::Solve { .. } => execute_solve(&SolveRequest::from_json(&doc)?),
    }?;
    let compute = t.elapsed();
    let t = Instant::now();
    let encoded = result.encode();
    let render = t.elapsed();
    Ok(Reference {
        hash: fnv1a64(encoded.as_bytes()),
        compute,
        render,
        solve: matches!(body, Body::Solve { .. }),
        body: keep_body.then_some(encoded),
    })
}

/// Computes the references of `bodies` on `threads` threads, in order.
fn references(bodies: &[Body], threads: usize, keep: usize) -> Vec<Option<Reference>> {
    let next = AtomicU64::new(0);
    let mut done: Vec<(usize, Option<Reference>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                        let Some(body) = bodies.get(i) else { break };
                        mine.push((i, reference(body, i < keep).ok()));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference thread panicked"))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

fn start_daemon(clients: usize, dir: &Path) -> PopgameService {
    PopgameService::start(ServiceConfig {
        http_workers: clients,
        cache_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServiceConfig::default()
    })
    .expect("popgamed binds a loopback port")
}

/// Posts `bodies` in their minimal spelling from `clients` threads, each
/// on its own connection and taking every `clients`-th body; returns how
/// many did not come back as a 200 computed miss.
fn warm(addr: SocketAddr, bodies: &[Body], clients: usize) -> u64 {
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients)
            .map(|first| {
                scope.spawn(move || {
                    let mut failed = 0;
                    let mut client = Client::connect(addr).ok();
                    for body in bodies.iter().skip(first).step_by(clients) {
                        let reply = match client.as_mut() {
                            Some(c) => c.post(body.path(), &body.minimal()),
                            None => Err(std::io::Error::other("not connected")),
                        };
                        match reply {
                            Ok(r) if r.status == 200 && r.cache.as_deref() == Some("miss") => {}
                            Ok(_) => failed += 1,
                            Err(_) => {
                                failed += 1;
                                client = Client::connect(addr).ok();
                            }
                        }
                    }
                    failed
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("warm-up thread panicked"))
            .sum()
    })
}

/// Closed loop: `clients` threads each send request `i` (drawn from a
/// shared counter) and wait for its reply, until `window` has passed.
/// `request(i)` gives the request's key, path and body.
fn drive(
    addr: SocketAddr,
    clients: usize,
    window: Duration,
    expected_cache: &str,
    request: &(dyn Fn(u64) -> (u64, &'static str, String) + Sync),
) -> Window {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let seen: Vec<Window> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Window::default();
                    let mut client = Client::connect(addr).ok();
                    while start.elapsed() < window {
                        let (key, path, text) = request(next.fetch_add(1, Ordering::Relaxed));
                        let t = Instant::now();
                        let reply = match client.as_mut() {
                            Some(c) => c.post(path, &text),
                            None => Err(std::io::Error::other("not connected")),
                        };
                        let latency = t.elapsed();
                        mine.sent += 1;
                        let reply = match reply {
                            Ok(r)
                                if r.status == 200
                                    && r.cache.as_deref() == Some(expected_cache) =>
                            {
                                r
                            }
                            Ok(_) => {
                                mine.bad += 1;
                                continue;
                            }
                            Err(_) => {
                                mine.bad += 1;
                                client = Client::connect(addr).ok();
                                continue;
                            }
                        };
                        let hash = fnv1a64(reply.body.as_bytes());
                        let entry = mine.replies.entry(key).or_insert((hash, 0));
                        if entry.0 != hash {
                            mine.bad += 1;
                            continue;
                        }
                        entry.1 += 1;
                        mine.latencies
                            .push(u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX));
                    }
                    mine
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Window::default();
    for w in seen {
        all.merge(w);
    }
    all.elapsed = start.elapsed();
    all
}

/// Runs a serving workload with `clients` closed-loop clients for
/// `window`. `scratch` holds the daemon's disk cache tiers.
pub fn run(
    kind: Kind,
    seed: u64,
    window: Duration,
    trace: bool,
    clients: usize,
    scratch: &Path,
) -> Outcome {
    let mut out = Outcome::default();
    let miss = MissGen::new(seed);
    let hit = HitSet::new(seed);
    let warm_bodies: Vec<Body> = match kind {
        // One block: the same mix as the timed requests.
        Kind::Miss => (0..BLOCK).map(|j| miss.body(WARMUP_BASE + j)).collect(),
        Kind::Hit => hit.keys.clone(),
    };
    // Re-spelled hit bodies are generated before timing, so the clients
    // spend no time building them: (path, text, key).
    let hit_pool: Vec<(&'static str, String, usize)> = match kind {
        Kind::Miss => Vec::new(),
        Kind::Hit => (0..HIT_POOL)
            .map(|i| {
                let (key, text) = hit.request(i);
                (hit.keys[key].path(), text, key)
            })
            .collect(),
    };

    // Set-up: daemon start plus warm-up, repeated on fresh cache tiers.
    let mut setup = Vec::new();
    let mut service: Option<PopgameService> = None;
    for rep in 0..SETUP_REPEATS {
        if let Some(old) = service.take() {
            old.shutdown();
        }
        let t = Instant::now();
        let daemon = start_daemon(clients, &scratch.join(format!("cache-{rep}")));
        out.failed += warm(daemon.local_addr(), &warm_bodies, clients);
        setup.push(t.elapsed().as_secs_f64());
        service = Some(daemon);
    }
    let service = service.expect("at least one set-up");
    let addr = service.local_addr();

    let scrape_or_empty = || scrape(addr).unwrap_or_default();
    let before = trace.then(|| (scrape_or_empty(), LayerCounters::read()));
    let disk_writes_before = service.state().cache.disk_stats().1;
    let request = |i: u64| match kind {
        Kind::Miss => {
            let body = miss.body(i);
            (i, body.path(), body.minimal())
        }
        Kind::Hit => {
            let (path, text, key) = &hit_pool[(i % HIT_POOL) as usize];
            (*key as u64, *path, text.clone())
        }
    };
    let seen = drive(addr, clients, window, kind.expected_cache(), &request);
    let after = trace.then(|| (scrape_or_empty(), LayerCounters::read()));
    let disk_writes = service.state().cache.disk_stats().1 - disk_writes_before;
    service.shutdown();

    // References after the window, as the determinism contract allows:
    // every key's replies must equal its in-process result.
    let (ids, bodies): (Vec<u64>, Vec<Body>) = match kind {
        Kind::Miss => {
            let mut ids: Vec<u64> = seen.replies.keys().copied().collect();
            ids.sort_unstable();
            let bodies = ids.iter().map(|&i| miss.body(i)).collect();
            (ids, bodies)
        }
        Kind::Hit => ((0..hit.keys.len() as u64).collect(), hit.keys.clone()),
    };
    let keep = if trace { INSERT_PROBE } else { 0 };
    let refs = references(&bodies, clients, keep);
    out.attempted = seen.sent;
    out.failed += seen.bad;
    for (id, reference) in ids.iter().zip(&refs) {
        let Some(&(hash, count)) = seen.replies.get(id) else {
            continue;
        };
        if reference.as_ref().map(|r| r.hash) != Some(hash) {
            out.failed += count;
        }
    }

    let ok = seen.latencies.len() as u64;
    let latencies_us = measure::sorted(
        seen.latencies
            .iter()
            .map(|&ns| f64::from(ns) / 1e3)
            .collect(),
    );
    let mean_us = measure::mean(&latencies_us);
    eprintln!(
        "{kind:?}: {} requests, {} failed, in {:.2} s on {clients} clients; setup {setup:.3?} s",
        seen.sent,
        out.failed,
        seen.elapsed.as_secs_f64(),
    );
    out.push("setup_s", "s", measure::median(setup));
    out.push("wall_s", "s", mean_us / 1e6);
    out.push(
        "throughput_rps",
        "1/s",
        ok as f64 / seen.elapsed.as_secs_f64(),
    );
    out.push(
        "latency_p50_us",
        "us",
        measure::quantile(&latencies_us, 0.5),
    );
    out.push(
        "latency_p99_us",
        "us",
        measure::quantile(&latencies_us, 0.99),
    );
    out.push("peak_rss_mb", "MiB", measure::peak_rss_mb());

    if let (Some((scrape0, counters0)), Some((scrape1, counters1))) = (before, after) {
        push_service_layers(&mut out, &scrape0, &scrape1, ok, mean_us);
        out.push(
            "service.cache.disk_writes",
            "count/op",
            disk_writes as f64 / ok.max(1) as f64,
        );
        counters1.push_delta(&counters0, ok, &mut out);

        let texts: Vec<(&'static str, String)> = match kind {
            Kind::Miss => bodies
                .iter()
                .take(PARSE_PROBE)
                .map(|b| (b.path(), b.minimal()))
                .collect(),
            Kind::Hit => hit_pool.iter().map(|(p, t, _)| (*p, t.clone())).collect(),
        };
        push_api_layers(&mut out, &texts, &refs);
        let keys: Vec<String> = bodies
            .iter()
            .map(|b| b.canonical().expect("generated bodies validate"))
            .collect();
        let lookups: Vec<&str> = match kind {
            Kind::Miss => keys.iter().map(String::as_str).collect(),
            Kind::Hit => hit_pool
                .iter()
                .map(|(_, _, key)| keys[*key].as_str())
                .collect(),
        };
        push_cache_layers(
            &mut out,
            &keys,
            &lookups,
            &refs,
            &scratch.join("insert-probe"),
        );
        let sizes: Vec<u64> = SIZES.iter().map(|&(n, _)| n).collect();
        engine::push_ips(miss.cells(), &sizes, seed, &mut out);
    }
    out
}

/// The `service.*` metrics read from the daemon's own `/metrics`
/// counters before and after the timed window.
fn push_service_layers(
    out: &mut Outcome,
    before: &[Sample],
    after: &[Sample],
    ok: u64,
    client_mean_us: f64,
) {
    let delta = |name: &str, labels: &[(&str, &str)]| {
        series_sum(after, name, labels) - series_sum(before, name, labels)
    };
    let hits = delta("popgame_cache_hits_total", &[]);
    let misses = delta("popgame_cache_misses_total", &[]);
    out.push(
        "service.cache.hit_ratio",
        "ratio",
        hits / (hits + misses).max(1.0),
    );
    let mut sum_us = 0.0;
    let mut count = 0.0;
    for endpoint in ["simulate", "solve"] {
        let label = [("endpoint", endpoint)];
        sum_us += delta("popgame_http_request_duration_us_sum", &label);
        count += delta("popgame_http_request_duration_us_count", &label);
    }
    let route_us = sum_us / count.max(1.0);
    out.push("service.route_us", "us", route_us);
    out.push("service.http.wire_us", "us", client_mean_us - route_us);
    out.push(
        "service.http.rejected",
        "count",
        delta("popgame_http_rejected_total", &[]),
    );
    out.push(
        "service.http.parse_errors",
        "count",
        delta("popgame_http_parse_errors_total", &[]),
    );
    eprintln!("  server saw {count} simulate/solve requests for {ok} ok replies");
}

/// `service.api.*` and `solver.solve_us`: parse, canonicalize, compute
/// and render timed in process.
fn push_api_layers(
    out: &mut Outcome,
    texts: &[(&'static str, String)],
    refs: &[Option<Reference>],
) {
    let mut parse = Vec::with_capacity(texts.len());
    let mut canonical = Vec::with_capacity(texts.len());
    for (path, text) in texts {
        let t = Instant::now();
        let doc = Json::parse(text).expect("generated bodies are JSON");
        let request = match *path {
            "/simulate" => SimulateRequest::from_json(&doc).map(Ok),
            _ => SolveRequest::from_json(&doc).map(Err),
        }
        .expect("generated bodies validate");
        parse.push(measure::us(t.elapsed()));
        let t = Instant::now();
        std::hint::black_box(match &request {
            Ok(simulate) => simulate.canonical(),
            Err(solve) => solve.canonical(),
        });
        canonical.push(measure::us(t.elapsed()));
    }
    let refs: Vec<&Reference> = refs.iter().flatten().collect();
    let solves = refs
        .iter()
        .filter(|r| r.solve)
        .map(|r| measure::us(r.compute))
        .collect();
    out.push("service.api.parse_us", "us", measure::median(parse));
    out.push("service.api.canonical_us", "us", measure::median(canonical));
    out.push(
        "service.api.compute_us",
        "us",
        measure::median(refs.iter().map(|r| measure::us(r.compute)).collect()),
    );
    out.push(
        "service.api.render_us",
        "us",
        measure::median(refs.iter().map(|r| measure::us(r.render)).collect()),
    );
    out.push("solver.solve_us", "us", measure::median(solves));
}

/// `service.cache.get_us` (memory lookups of the workload's keys, in its
/// request order) and `service.cache.insert_us` (inserts of its results
/// into a disk-backed cache).
fn push_cache_layers(
    out: &mut Outcome,
    keys: &[String],
    lookups: &[&str],
    refs: &[Option<Reference>],
    disk_dir: &Path,
) {
    let memory = ResultCache::new(ServiceConfig::default().cache_shards);
    let body = Arc::new(String::new());
    for key in keys {
        memory.insert(key.clone(), Arc::clone(&body));
    }
    let t = Instant::now();
    for key in lookups.iter().cycle().take(GET_PROBE) {
        std::hint::black_box(memory.get(key));
    }
    out.push(
        "service.cache.get_us",
        "us",
        measure::us(t.elapsed()) / GET_PROBE as f64,
    );

    let disk = ResultCache::new(ServiceConfig::default().cache_shards)
        .with_disk(disk_dir, DEFAULT_DISK_BUDGET)
        .expect("the scratch directory is writable");
    let inserts = keys
        .iter()
        .zip(refs)
        .filter_map(|(key, r)| Some((key, r.as_ref()?.body.as_ref()?)))
        .map(|(key, body)| {
            let body = Arc::new(body.clone());
            let t = Instant::now();
            disk.insert(key.clone(), body);
            measure::us(t.elapsed())
        })
        .collect();
    out.push("service.cache.insert_us", "us", measure::median(inserts));
}
