//! The population layer timed from outside: `BatchedEngine::run_batched`
//! on `engine_from_profile` engines, one per workload cell.

use crate::gen::{simulate_request, INTERACTIONS_PER_AGENT};
use crate::measure::Outcome;
use popgame_service::api::DYNAMICS_LABELS;
use popgame_solver::dynamics::engine_from_profile;
use popgame_solver::scenarios::by_name;
use popgame_util::rng::stream_rng;
use std::time::Instant;

/// Runs one engine per `(scenario, dynamics)` cell and size in `sizes`
/// for `30·n` interactions, and pushes `population.ips.<dynamics>`: the
/// interactions per second summed over that dynamics' cells. Engine
/// construction is not timed.
pub fn push_ips(cells: &[(String, &'static str)], sizes: &[u64], seed: u64, out: &mut Outcome) {
    let mut interactions = [0u64; DYNAMICS_LABELS.len()];
    let mut seconds = [0f64; DYNAMICS_LABELS.len()];
    let mut stream = 0u64;
    for (scenario, dynamics) in cells {
        let label = DYNAMICS_LABELS
            .iter()
            .position(|d| d == dynamics)
            .expect("cells use service dynamics labels");
        let rule = simulate_request(scenario, dynamics, 2, 1, 0).rule();
        let game = by_name(scenario)
            .and_then(|s| s.dynamics(rule))
            .expect("cells are valid (scenario, dynamics) pairs");
        let start = game.initial_profile();
        for &n in sizes {
            let mut engine =
                engine_from_profile(game.clone(), &start, n).expect("the initial profile is valid");
            let mut rng = stream_rng(seed, stream);
            stream += 1;
            let horizon = INTERACTIONS_PER_AGENT * n;
            let batch = engine.suggested_batch();
            let t = Instant::now();
            engine
                .run_batched(horizon, batch, &mut rng)
                .expect("n >= 2");
            seconds[label] += t.elapsed().as_secs_f64();
            interactions[label] += horizon;
            std::hint::black_box(engine.frequencies());
        }
    }
    for (i, label) in DYNAMICS_LABELS.iter().enumerate() {
        let ips = if seconds[i] > 0.0 {
            interactions[i] as f64 / seconds[i]
        } else {
            0.0
        };
        out.push(&format!("population.ips.{label}"), "1/s", ips);
    }
}
