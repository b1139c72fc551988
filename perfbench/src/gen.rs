//! Seeded request generators for the two serving workloads.
//!
//! Every body is a pure function of `(seed, index)`, so the same seed
//! always produces the same requests, whichever client thread sends them.
//!
//! * [`MissGen`] yields bodies whose canonical keys never repeat: each
//!   `/simulate` carries a `seed` field that is a bijection of the index,
//!   and each `/solve` carries a fresh random game.
//! * [`HitSet`] is a fixed set of keys drawn from the same generator in
//!   an index range the miss workload never reaches. Timed requests pick a
//!   key with Zipf popularity and re-spell it: shuffled field order, extra
//!   whitespace, every default explicit, floats in mixed notation.

use popgame_service::api::{SimulateRequest, SolveRequest, DYNAMICS_LABELS};
use popgame_solver::scenarios::registry;
use popgame_util::json::Json;

/// Requests are dealt in blocks of this many. Each block is a shuffle of
/// one fixed deck that depends on the block alone, not on the seed, so
/// every block carries the same mix and every seed the same order of work.
pub const BLOCK: u64 = 200;
/// `/solve` cards per block (10%), one strategy count in [`SOLVE_K`] each
/// in turn.
pub const SOLVES_PER_BLOCK: u64 = 20;
/// `/simulate` population sizes and their cards per block: most requests
/// are small, and the few large ones set p99.
pub const SIZES: [(u64, u64); 3] = [(100_000, 6), (10_000, 48), (1_000, 126)];
/// Strategy counts of the random symmetric games sent to `/solve`.
pub const SOLVE_K: [usize; 4] = [3, 4, 5, 6];
/// Keys in the serve-hit working set.
pub const HIT_KEYS: usize = 256;
/// Zipf exponent of serve-hit key popularity.
pub const ZIPF_S: f64 = 1.0;

/// First index of the warm-up range of the miss workload; timed miss
/// requests use indices below it.
pub const WARMUP_BASE: u64 = BLOCK << 36;
/// First index of the serve-hit key set.
pub const HIT_BASE: u64 = BLOCK << 37;

/// The splitmix64 finalizer: a bijection on `u64`.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small splitmix64 stream for drawing workload shapes.
#[derive(Debug, Clone)]
pub struct Stream(u64);

impl Stream {
    /// A stream whose state starts at `seed`.
    pub fn new(seed: u64) -> Self {
        Stream(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// A `/simulate` request.
    Simulate {
        /// Registry scenario.
        scenario: String,
        /// One of [`DYNAMICS_LABELS`].
        dynamics: &'static str,
        /// Population size.
        n: u64,
        /// Replicas, 1..=4.
        replicas: u64,
        /// The request's RNG seed (unique per index).
        seed: u64,
    },
    /// A `/solve` request on an explicit symmetric game.
    Solve {
        /// The row player's payoff matrix.
        row: Vec<Vec<f64>>,
    },
}

/// The request defaults `/simulate` fills in; [`Body::respelled`] spells
/// them out and [`Body::minimal`] omits them.
const DEFAULT_DYNAMICS: &str = "best-response";
const DEFAULT_REPLICAS: u64 = 4;
const DEFAULT_ETA: &str = "2.0";
/// Interactions per agent: the default horizon of `/simulate` and of the
/// report presets.
pub const INTERACTIONS_PER_AGENT: u64 = 30;

impl Body {
    /// The endpoint path.
    pub fn path(&self) -> &'static str {
        match self {
            Body::Simulate { .. } => "/simulate",
            Body::Solve { .. } => "/solve",
        }
    }

    /// Compact JSON with defaults left out.
    pub fn minimal(&self) -> String {
        match self {
            Body::Simulate {
                scenario,
                dynamics,
                n,
                replicas,
                seed,
            } => {
                let mut fields = vec![("scenario", Json::from(scenario.as_str()))];
                if *dynamics != DEFAULT_DYNAMICS {
                    fields.push(("dynamics", Json::from(*dynamics)));
                }
                fields.push(("n", Json::from(*n)));
                if *replicas != DEFAULT_REPLICAS {
                    fields.push(("replicas", Json::from(*replicas)));
                }
                fields.push(("seed", Json::from(*seed)));
                Json::obj(fields).encode()
            }
            Body::Solve { row } => Json::obj([(
                "game",
                Json::obj([
                    ("kind", Json::from("symmetric")),
                    ("row", Json::arr(row.iter().map(Json::floats))),
                ]),
            )])
            .encode(),
        }
    }

    /// The same request spelled differently: fields shuffled, random
    /// whitespace, every default explicit, floats in plain or exponent
    /// notation. It canonicalizes exactly like [`Body::minimal`].
    pub fn respelled(&self, rng: &mut Stream) -> String {
        let mut fields: Vec<(&str, String)> = match self {
            Body::Simulate {
                scenario,
                dynamics,
                n,
                replicas,
                seed,
            } => vec![
                ("scenario", Json::from(scenario.as_str()).encode()),
                ("dynamics", Json::from(*dynamics).encode()),
                ("eta", DEFAULT_ETA.to_string()),
                ("n", n.to_string()),
                ("interactions", (INTERACTIONS_PER_AGENT * n).to_string()),
                ("replicas", replicas.to_string()),
                ("seed", seed.to_string()),
                ("analytics", "false".to_string()),
            ],
            Body::Solve { row } => {
                let rows: Vec<String> = row
                    .iter()
                    .map(|cells| {
                        let cells: Vec<String> = cells
                            .iter()
                            .map(|v| {
                                if rng.below(2) == 0 {
                                    format!("{v}")
                                } else {
                                    format!("{v:e}")
                                }
                            })
                            .collect();
                        format!("[{}]", join_spaced(&cells, rng))
                    })
                    .collect();
                let mut game = vec![
                    ("kind", "\"symmetric\"".to_string()),
                    ("row", format!("[{}]", join_spaced(&rows, rng))),
                ];
                shuffle(&mut game, rng);
                vec![("game", object(&game, rng))]
            }
        };
        shuffle(&mut fields, rng);
        object(&fields, rng)
    }

    /// The canonical cache key the service derives from this request.
    ///
    /// # Errors
    ///
    /// The service's validation message; generated bodies never fail.
    pub fn canonical(&self) -> Result<String, String> {
        canonical_of(self.path(), &self.minimal())
    }
}

/// The canonical key the service derives from `text` posted to `path`.
///
/// # Errors
///
/// The parse or validation message.
pub fn canonical_of(path: &str, text: &str) -> Result<String, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    match path {
        "/simulate" => SimulateRequest::from_json(&doc).map(|r| r.canonical()),
        _ => SolveRequest::from_json(&doc).map(|r| r.canonical()),
    }
}

const SPACES: [&str; 5] = ["", " ", "  ", "\n", "\t "];

fn space(rng: &mut Stream) -> &'static str {
    SPACES[rng.below(SPACES.len() as u64) as usize]
}

fn join_spaced(items: &[String], rng: &mut Stream) -> String {
    let mut out = String::new();
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
            out.push_str(space(rng));
        }
        out.push_str(item);
    }
    out
}

fn object(fields: &[(&str, String)], rng: &mut Stream) -> String {
    let members: Vec<String> = fields
        .iter()
        .map(|(key, value)| {
            format!(
                "{}\"{key}\"{}:{}{value}",
                space(rng),
                space(rng),
                space(rng)
            )
        })
        .collect();
    format!("{{{}{}}}", join_spaced(&members, rng), space(rng))
}

fn shuffle<T>(items: &mut [T], rng: &mut Stream) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Every `(scenario, dynamics)` pair `/simulate` accepts on a symmetric
/// registry scenario, in registry × [`DYNAMICS_LABELS`] order.
pub fn simulate_cells() -> Vec<(String, &'static str)> {
    let mut cells = Vec::new();
    for scenario in registry() {
        if !scenario.game().is_symmetric(1e-9) {
            continue;
        }
        for &dynamics in &DYNAMICS_LABELS {
            let rule = simulate_request(scenario.name(), dynamics, 2, 1, 0).rule();
            if scenario.dynamics(rule).is_ok() {
                cells.push((scenario.name().to_string(), dynamics));
            }
        }
    }
    cells
}

/// A validated-shape [`SimulateRequest`] with the service's defaults.
pub fn simulate_request(
    scenario: &str,
    dynamics: &str,
    n: u64,
    replicas: u64,
    seed: u64,
) -> SimulateRequest {
    SimulateRequest {
        scenario: scenario.to_string(),
        dynamics: dynamics.to_string(),
        eta: 2.0,
        n,
        interactions: INTERACTIONS_PER_AGENT * n,
        replicas,
        seed,
        analytics: false,
    }
}

/// The serve-miss request sequence (and the source of the hit set).
#[derive(Debug, Clone)]
pub struct MissGen {
    base: u64,
    cells: Vec<(String, &'static str)>,
}

impl MissGen {
    /// The generator for workload seed `seed`.
    pub fn new(seed: u64) -> Self {
        MissGen {
            base: mix64(seed ^ 0x6D69_7373),
            cells: simulate_cells(),
        }
    }

    /// Request `index`. Distinct indices give distinct canonical keys.
    pub fn body(&self, index: u64) -> Body {
        let (block, position) = (index / BLOCK, index % BLOCK);
        // The card this position draws from the block's shuffled deck.
        let mut deck: Vec<u64> = (0..BLOCK).collect();
        shuffle(&mut deck, &mut Stream::new(mix64(block)));
        let card = deck[position as usize];
        // The seed field is `base + index` modulo 2^63 (JSON integers
        // must fit an i64), injective in `index`, so it never repeats.
        let seed = (self.base >> 1).wrapping_add(index) & (u64::MAX >> 1);
        let mut rng = Stream::new(mix64(self.base.wrapping_add(index)));
        if card < SOLVES_PER_BLOCK {
            let k = SOLVE_K[card as usize % SOLVE_K.len()];
            let row = (0..k)
                .map(|_| (0..k).map(|_| rng.unit() * 2.0 - 1.0).collect())
                .collect();
            return Body::Solve { row };
        }
        // Which size the card is, and its ordinal among that size's cards
        // across all blocks: cells and replica counts cycle by ordinal, so
        // the work in a block does not depend on the seed.
        let mut rest = card - SOLVES_PER_BLOCK;
        let (class, &(n, per_block)) = SIZES
            .iter()
            .enumerate()
            .find(|&(_, &(_, count))| {
                let here = rest < count;
                if !here {
                    rest -= count;
                }
                here
            })
            .expect("the deck holds BLOCK cards");
        let ordinal = block * per_block + rest;
        let (scenario, dynamics) =
            self.cells[(ordinal + 17 * class as u64) as usize % self.cells.len()].clone();
        Body::Simulate {
            scenario,
            dynamics,
            n,
            replicas: 1 + ordinal % 4,
            seed,
        }
    }

    /// The `(scenario, dynamics)` pairs the generator draws from.
    pub fn cells(&self) -> &[(String, &'static str)] {
        &self.cells
    }
}

/// The serve-hit working set and its Zipf request sequence.
#[derive(Debug, Clone)]
pub struct HitSet {
    /// The warmed requests, most popular first.
    pub keys: Vec<Body>,
    cdf: Vec<f64>,
    salt: u64,
}

impl HitSet {
    /// The hit set for workload seed `seed`.
    pub fn new(seed: u64) -> Self {
        let gen = MissGen::new(seed);
        let keys: Vec<Body> = (0..HIT_KEYS as u64)
            .map(|j| gen.body(HIT_BASE + j))
            .collect();
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (0..keys.len())
            .map(|rank| {
                total += 1.0 / (rank as f64 + 1.0).powf(ZIPF_S);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        HitSet {
            keys,
            cdf,
            salt: mix64(seed ^ 0x0068_6974),
        }
    }

    /// Timed request `index`: the key it names and its re-spelled body.
    pub fn request(&self, index: u64) -> (usize, String) {
        let mut rng = Stream::new(mix64(self.salt.wrapping_add(index)));
        let u = rng.unit();
        let key = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.keys.len() - 1);
        (key, self.keys[key].respelled(&mut rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_gives_same_bodies() {
        let (a, b) = (MissGen::new(7), MissGen::new(7));
        for i in 0..500 {
            assert_eq!(a.body(i).minimal(), b.body(i).minimal());
        }
        let (x, y) = (HitSet::new(7), HitSet::new(7));
        for i in 0..500 {
            assert_eq!(x.request(i), y.request(i));
        }
        assert_ne!(MissGen::new(8).body(0), a.body(0));
    }

    #[test]
    fn miss_keys_never_repeat() {
        let gen = MissGen::new(20240717);
        let mut seen = HashSet::new();
        let indices = (0..20_000).chain(WARMUP_BASE..WARMUP_BASE + BLOCK);
        for i in indices {
            let key = gen.body(i).canonical().expect("generated bodies validate");
            assert!(seen.insert(key), "index {i} repeats a canonical key");
        }
        for body in HitSet::new(20240717).keys {
            assert!(
                seen.insert(body.canonical().unwrap()),
                "hit key overlaps miss keys"
            );
        }
    }

    #[test]
    fn every_block_carries_the_same_mix() {
        let gen = MissGen::new(3);
        let mix = |block: u64| {
            let mut counts = std::collections::BTreeMap::new();
            for i in block * BLOCK..(block + 1) * BLOCK {
                let class = match gen.body(i) {
                    Body::Solve { row } => format!("solve k={}", row.len()),
                    Body::Simulate { n, .. } => format!("simulate n={n}"),
                };
                *counts.entry(class).or_insert(0) += 1;
            }
            counts
        };
        let first = mix(0);
        assert_eq!(first.get("simulate n=100000"), Some(&6));
        assert_eq!(first.get("simulate n=10000"), Some(&48));
        assert_eq!(first.get("simulate n=1000"), Some(&126));
        assert_eq!(first.get("solve k=3"), Some(&5));
        assert_eq!(first.get("solve k=6"), Some(&5));
        for block in 1..20 {
            assert_eq!(mix(block), first, "block {block}");
        }
        // Another seed deals the same cards in the same order, with other
        // simulation seeds and game payoffs.
        let other = MissGen::new(4);
        for i in 0..BLOCK {
            let (a, b) = (gen.body(i), other.body(i));
            assert_eq!(a.path(), b.path());
            assert_ne!(a, b, "index {i}");
        }
        for label in DYNAMICS_LABELS {
            assert!(gen.cells().iter().any(|(_, d)| *d == label), "{label}");
        }
    }

    #[test]
    fn hit_bodies_reduce_to_exactly_the_warmed_keys() {
        let set = HitSet::new(11);
        let warmed: Vec<String> = set.keys.iter().map(|b| b.canonical().unwrap()).collect();
        assert_eq!(warmed.iter().collect::<HashSet<_>>().len(), HIT_KEYS);
        let mut requested = HashSet::new();
        for i in 0..20_000 {
            let (key, text) = set.request(i);
            assert_ne!(
                text,
                set.keys[key].minimal(),
                "request {i} is not re-spelled"
            );
            let canonical = canonical_of(set.keys[key].path(), &text).unwrap();
            assert_eq!(canonical, warmed[key], "request {i}");
            requested.insert(key);
        }
        // Zipf popularity: the head dominates, and the tail is still hit.
        assert!(
            requested.len() > HIT_KEYS / 2,
            "{} keys requested",
            requested.len()
        );
        let head = (0..20_000).filter(|&i| set.request(i).0 == 0).count();
        assert!(
            (2_500..4_500).contains(&head),
            "top key drew {head} of 20000"
        );
    }
}
