//! The one service load driver: a keep-alive HTTP/1.1 client, a warm
//! pass that pins the expected bytes, a timed multi-thread phase loop,
//! and its summary. `popgame fleet` runs every phase through it, and so
//! does the in-process probe behind `popgame bench`'s `fleet_cached_rps`.

use popgame_util::json::Json;
use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A keep-alive HTTP/1.1 connection to one instance.
pub(crate) struct Client {
    addr: String,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// `(status, served from cache, body)` of one reply.
pub(crate) type Reply = (u16, bool, String);

impl Client {
    pub(crate) fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            addr: addr.to_string(),
            stream,
            reader,
        })
    }

    /// One request over the persistent connection; reconnects once on
    /// error.
    pub(crate) fn send(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
        match self.send_once(method, path, body) {
            Ok(reply) => Ok(reply),
            Err(_) => {
                *self = Client::connect(&self.addr)?;
                self.send_once(method, path, body)
            }
        }
    }

    fn send_once(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
        // Head and body in one buffer and one write: on the nodelay
        // socket, two writes would cost two segments per request.
        let request = format!(
            "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(request.as_bytes())?;
        self.stream.flush()?;
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line)?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
            })?;
        let mut content_length = 0usize;
        let mut cache_hit = false;
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "truncated headers",
                ));
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            let lower = line.to_ascii_lowercase();
            if let Some(v) = lower.strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap_or(0);
            } else if let Some(v) = lower.strip_prefix("x-popgame-cache:") {
                cache_hit = v.trim() == "hit";
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body)
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-utf8 body"))?;
        Ok((status, cache_hit, body))
    }
}

/// One lazily opened [`Client`] per instance address.
#[derive(Default)]
struct Connections(HashMap<String, Client>);

impl Connections {
    fn simulate(&mut self, addr: &str, body: &str) -> std::io::Result<Reply> {
        let client = match self.0.entry(addr.to_string()) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => e.insert(Client::connect(addr)?),
        };
        client.send("POST", "/simulate", body)
    }
}

/// Posts each `(addr, body)` to `/simulate` once, in order, and returns
/// the reply bodies: the bytes every later response to the same request
/// must repeat. Each must be a 200 and a cold miss: the pinned bytes are
/// meant to come from a computation, not from an earlier cache entry.
///
/// # Errors
///
/// A message naming the instance when a request fails, answers non-200,
/// or was already cached.
pub(crate) fn warm<'a>(
    requests: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> Result<Vec<String>, String> {
    let mut connections = Connections::default();
    requests
        .into_iter()
        .map(|(addr, body)| match connections.simulate(addr, body) {
            Ok((200, false, reply)) => Ok(reply),
            Ok((200, true, _)) => Err(format!("warm request to {addr} was already cached: {body}")),
            Ok((status, _, reply)) => Err(format!("warm request to {addr} got {status}: {reply}")),
            Err(e) => Err(format!("warming {addr}: {e}")),
        })
        .collect()
}

/// What one phase request sends: the instance address, the `/simulate`
/// body, and (when pinned) the bytes a 200 reply must carry.
pub(crate) type Request<'a> = (&'a str, Cow<'a, str>, Option<&'a str>);

/// Per-thread phase tallies.
#[derive(Default)]
struct ThreadStats {
    latencies_us: Vec<u64>,
    requests: u64,
    hits: u64,
    errors: u64,
    mismatches: u64,
}

/// Runs one timed phase: `clients` threads post for `window`, request
/// `index` of thread `t` being `request(t, index)`, each thread keeping
/// one connection per instance. A 200 whose body differs from the
/// pinned bytes counts as a mismatch; anything else but a 200 counts as
/// an error. Returns the phase's [`Summary`].
pub(crate) fn run_phase<'a>(
    clients: usize,
    window: Duration,
    request: impl Fn(usize, u64) -> Request<'a> + Sync,
) -> Summary {
    let stats = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let request = &request;
                scope.spawn(move || {
                    let mut stats = ThreadStats::default();
                    let mut connections = Connections::default();
                    let start = Instant::now();
                    let mut index = 0u64;
                    while start.elapsed() < window {
                        let (addr, body, expect) = request(t, index);
                        index += 1;
                        let sent = Instant::now();
                        match connections.simulate(addr, &body) {
                            Ok((200, hit, reply)) => {
                                stats.latencies_us.push(sent.elapsed().as_micros() as u64);
                                stats.requests += 1;
                                stats.hits += u64::from(hit);
                                if expect.is_some_and(|expect| reply != expect) {
                                    stats.mismatches += 1;
                                }
                            }
                            _ => stats.errors += 1,
                        }
                    }
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client thread"))
            .collect()
    });
    summarize(stats, window)
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Aggregate tallies of one phase.
pub(crate) struct Summary {
    pub(crate) requests: u64,
    pub(crate) hits: u64,
    pub(crate) errors: u64,
    pub(crate) mismatches: u64,
    /// Requests per second over the window, to one decimal.
    pub(crate) rps: f64,
    pub(crate) p50_us: u64,
    pub(crate) p99_us: u64,
}

/// Folds the per-thread tallies of one phase over its `window`.
fn summarize(stats: Vec<ThreadStats>, window: Duration) -> Summary {
    let mut latencies: Vec<u64> = stats
        .iter()
        .flat_map(|s| s.latencies_us.iter().copied())
        .collect();
    latencies.sort_unstable();
    let requests: u64 = stats.iter().map(|s| s.requests).sum();
    let rps = requests as f64 / window.as_secs_f64();
    Summary {
        requests,
        hits: stats.iter().map(|s| s.hits).sum(),
        errors: stats.iter().map(|s| s.errors).sum(),
        mismatches: stats.iter().map(|s| s.mismatches).sum(),
        rps: (rps * 10.0).round() / 10.0,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
    }
}

/// `part / whole` to four decimals; 0 when `whole` is 0.
pub(crate) fn rate(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        (part / whole * 1e4).round() / 1e4
    } else {
        0.0
    }
}

impl Summary {
    /// The summary as a JSON object, after the caller's `head` fields.
    pub(crate) fn to_json(&self, head: Vec<(&str, Json)>) -> Json {
        Json::obj(head.into_iter().chain([
            ("requests", Json::from(self.requests)),
            ("cache_hits", Json::from(self.hits)),
            ("requests_per_sec", Json::from(self.rps)),
            ("p50_us", Json::from(self.p50_us)),
            ("p99_us", Json::from(self.p99_us)),
            (
                "cache_hit_rate",
                Json::from(rate(self.hits as f64, self.requests as f64)),
            ),
            ("errors", Json::from(self.errors)),
            ("body_mismatches", Json::from(self.mismatches)),
        ]))
    }
}
