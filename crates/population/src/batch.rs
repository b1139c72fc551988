//! The batched count-level engine: alias-table pair sampling and
//! multinomial interaction leaps over one per-pair outcome table.
//!
//! Every τ-leapable [`EnumerableProtocol`] over `K` states is frozen into
//! a [`KernelTable`]: for each ordered state pair `(i, j)`, the law of
//! the post-interaction pair. A deterministic protocol is the special
//! case whose every cell holds one outcome of mass 1 — in the
//! probabilistic population-protocol model a deterministic transition is
//! just a pair law concentrated on one outcome. The table comes from one
//! of three sources:
//!
//! * deterministic protocols
//!   ([`crate::protocol::Protocol::has_random_transitions`] is `false`)
//!   are *probed*: `interact` is called on every pair with three
//!   differently seeded RNGs, and any disagreement (a protocol that
//!   forgot to declare itself randomized) discards the probe;
//! * randomized protocols declare their law via
//!   [`EnumerableProtocol::pair_kernel`];
//! * count-coupled protocols declare it at the current frequencies via
//!   [`EnumerableProtocol::pair_kernel_at`], and the table is refreshed
//!   incrementally ([`KernelTable::refresh_at`]) as the counts move.
//!
//! Protocols with no table (randomized, no declared law) run exactly,
//! one interaction at a time.
//!
//! Two execution regimes:
//!
//! 1. [`BatchedEngine::step`] — one interaction at a time, `O(1)` expected
//!    via a Walker alias table rebuilt lazily, only when the counts have
//!    changed since the last build. Exact: identical in law to
//!    [`crate::counts::CountedPopulation::step`], and the oracle the
//!    step-vs-batch chi-square tests pin the leap against.
//! 2. [`BatchedEngine::step_batch`] — a *τ-leap*: freezes the count vector
//!    for `batch` interactions, draws how many of them change anything,
//!    then splits those over the ordered pairs and their count-changing
//!    outcomes. Work is `O(K²)` per **batch** instead of per interaction.
//!    Exact for `batch = 1`; for `batch > 1` it idealizes away the
//!    intra-batch count drift, an `O(batch/n)` perturbation per step of
//!    the same character as the paper's eq. (5) idealization (sampling
//!    with a frozen population). Leaps that would drive a count negative
//!    are split recursively, so conservation is unconditional.
//!
//! The pair law matches the agent-level scheduler exactly: the ordered
//! pair `(i, j)` has weight `x_i (x_j − δ_ij)` — sampling *without*
//! replacement, including the `δ` correction that removes the initiator
//! from its own state's responder pool.

use crate::counts::CountedPopulation;
use crate::error::PopulationError;
use crate::protocol::{EnumerableProtocol, KernelDeps};
use popgame_util::sampler::{sample_binomial, AliasTable};
use rand::Rng;

/// A protocol's per-pair outcome law tabulated over all `K²` ordered
/// state pairs: probed from a deterministic protocol's `interact` (one
/// mass-1 outcome per cell), or built from a declared
/// [`EnumerableProtocol::pair_kernel`] /
/// [`EnumerableProtocol::pair_kernel_at`].
#[derive(Debug, Clone)]
pub struct KernelTable {
    k: usize,
    /// `cells[i * k + j]` — the outcome pmf for ordered pair `(i, j)`,
    /// entries `((initiator', responder'), p)` with positive `p`.
    cells: Vec<Vec<((u32, u32), f64)>>,
    /// Total probability mass of cell `(i, j)`'s count-*changing*
    /// outcomes (those with `(a, b) ≠ (i, j)`), cached so the leap's
    /// two-level sampler can weight pairs in `O(1)` per cell instead of
    /// re-summing the outcome list every leap. Zero exactly when the cell
    /// is an almost-sure no-op.
    active_mass: Vec<f64>,
    /// Flattened count-changing outcomes of every cell, contiguous in
    /// cell order: cell `c`'s entries live at
    /// `nid_start[c]..nid_start[c + 1]`, `nid_ab` holding the resulting
    /// `(a, b)` and `nid_cum` the within-cell inclusive cumulative mass.
    /// Derived from `cells`; lets the leap's per-draw outcome pick walk a
    /// short contiguous CDF instead of chasing per-cell heap buffers.
    nid_start: Vec<u32>,
    nid_ab: Vec<(u32, u32)>,
    nid_cum: Vec<f64>,
    /// The cells with positive active mass, in cell order, each as a
    /// packed pair entry `i << 48 | j << 32 | sole` with its active mass.
    /// `sole` is the cell's count-changing outcome `a << 16 | b` when it
    /// has exactly one (every active cell of a probed table), else
    /// [`NO_SOLE`]. Derived from `cells` with the `nid_*` arrays: a leap
    /// weights only these cells and resolves one-outcome cells without a
    /// lookup.
    active: Vec<(u64, f64)>,
    /// Whether the table was probed from a deterministic protocol's
    /// `interact` rather than built from a declared law. Probed cells
    /// need no outcome draw, so the engine samples them without one.
    probed: bool,
}

impl PartialEq for KernelTable {
    /// Tables are equal when their laws are — the flattened
    /// active-outcome arrays and cached masses are derived data recomputed
    /// deterministically from `cells`, so comparing them adds nothing.
    fn eq(&self, other: &Self) -> bool {
        self.k == other.k && self.cells == other.cells
    }
}

/// The `sole` field of a packed pair entry whose cell has several
/// count-changing outcomes.
const NO_SOLE: u32 = u32::MAX;

/// Splits a packed pair entry (see `KernelTable::active`) into
/// `(i, j, sole)`; decode `sole` with [`sole_outcome`].
#[inline]
fn unpack_pair(entry: u64) -> (usize, usize, u32) {
    (
        (entry >> 48) as usize,
        ((entry >> 32) & 0xFFFF) as usize,
        entry as u32,
    )
}

/// The `(a, b)` outcome a `sole` field other than [`NO_SOLE`] packs.
#[inline]
fn sole_outcome(sole: u32) -> (u32, u32) {
    (sole >> 16, sole & 0xFFFF)
}

/// The index a uniform `u01 ∈ [0, 1)` selects from a Walker table
/// `(acceptance, alias)` (see `BatchedEngine::rebuild_pair_alias`): the
/// integer part of `u01 · len` picks the slot, the fractional part accepts
/// it or takes its alias.
#[inline]
fn alias_pick((accept, alias): (&[f64], &[u32]), u01: f64) -> usize {
    let len = accept.len();
    let u = u01 * len as f64;
    let slot = (u as usize).min(len - 1);
    if (u - slot as f64) < accept[slot] {
        slot
    } else {
        alias[slot] as usize
    }
}

/// Adds `c` interactions of ordered pair `(i, j)` ending in `(a, b)` to a
/// leap's per-state count deltas.
#[inline]
fn add_moves(deltas: &mut [i64], i: usize, j: usize, (a, b): (u32, u32), c: i64) {
    deltas[i] -= c;
    deltas[a as usize] += c;
    deltas[j] -= c;
    deltas[b as usize] += c;
}

/// Outcome probabilities must sum to 1 within this tolerance.
const KERNEL_SUM_TOL: f64 = 1e-9;

/// Validates one declared outcome pmf and writes its positive-mass entries
/// into `cell` (cleared first, allocation reused). Returns the total mass
/// of its count-changing outcomes. Shared by the full
/// [`KernelTable::build_with`] construction and the incremental
/// [`KernelTable::refresh_at`] path so the two produce bitwise-identical
/// cells from identical inputs.
fn fill_cell(
    k: usize,
    i: usize,
    j: usize,
    outcomes: &[((usize, usize), f64)],
    cell: &mut Vec<((u32, u32), f64)>,
) -> Result<f64, PopulationError> {
    cell.clear();
    let mut total = 0.0f64;
    for &((a, b), p) in outcomes {
        if a >= k || b >= k {
            return Err(PopulationError::StateOutOfRange {
                index: a.max(b),
                num_states: k,
            });
        }
        if !p.is_finite() || p < 0.0 {
            return Err(PopulationError::InvalidArgument {
                reason: format!("kernel pmf for pair ({i}, {j}) has invalid mass {p}"),
            });
        }
        total += p;
        if p > 0.0 {
            cell.push(((a as u32, b as u32), p));
        }
    }
    if (total - 1.0).abs() > KERNEL_SUM_TOL {
        return Err(PopulationError::InvalidArgument {
            reason: format!("kernel pmf for pair ({i}, {j}) sums to {total}"),
        });
    }
    Ok(cell
        .iter()
        .filter(|&&((a, b), _)| (a as usize, b as usize) != (i, j))
        .map(|&(_, p)| p)
        .sum())
}

impl KernelTable {
    /// Tabulates a protocol's outcome law; `None` when it has none (no
    /// table ⇒ exact stepping).
    ///
    /// A protocol declaring deterministic transitions is probed: every
    /// pair is run through `interact` three times with differently seeded
    /// RNGs and its one outcome stored with mass 1. Any outcome mismatch —
    /// a randomized protocol that forgot to override
    /// [`has_random_transitions`](crate::protocol::Protocol::has_random_transitions)
    /// — discards the probe instead of freezing one sampled outcome, and
    /// the table falls back to the declared
    /// [`EnumerableProtocol::pair_kernel`], which is `None` when any pair
    /// declines to state its law.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::StateOutOfRange`] when an outcome maps
    /// outside the protocol's enumeration, and
    /// [`PopulationError::InvalidArgument`] when a pair's declared
    /// probabilities do not form a pmf (negative/non-finite mass or a
    /// total away from 1) — a protocol bug, named as such.
    pub fn build<P: EnumerableProtocol>(protocol: &P) -> Result<Option<Self>, PopulationError> {
        if !protocol.has_random_transitions() {
            if let Some(table) = Self::probe(protocol)? {
                return Ok(Some(table));
            }
        }
        Self::build_with(protocol, |p, i, j, law| {
            p.pair_kernel(i, j)
                .map(|entries| law.extend(entries))
                .is_some()
        })
    }

    /// The deterministic half of [`KernelTable::build`]: `None` when the
    /// three probes of some pair disagree.
    fn probe<P: EnumerableProtocol>(protocol: &P) -> Result<Option<Self>, PopulationError> {
        let mut probes = [
            popgame_util::rng::rng_from_seed(0x7AB1E),
            popgame_util::rng::rng_from_seed(0xD1CE),
            popgame_util::rng::rng_from_seed(0xF1_1B57),
        ];
        let table = Self::build_with(protocol, |p, i, j, law| {
            let (si, sj) = (p.state_at(i), p.state_at(j));
            let (ni, nj) = p.interact(si, sj, &mut probes[0]);
            if probes[1..]
                .iter_mut()
                .any(|probe| p.interact(si, sj, probe) != (ni, nj))
            {
                return false;
            }
            law.push(((p.state_index(ni), p.state_index(nj)), 1.0));
            true
        })?;
        Ok(table.map(|table| KernelTable {
            probed: true,
            ..table
        }))
    }

    /// Tabulates a *count-coupled* protocol's outcome kernel at the given
    /// population frequencies, via
    /// [`EnumerableProtocol::pair_kernel_at`]. The engine builds it once
    /// at construction and keeps it current with
    /// [`KernelTable::refresh_at`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`KernelTable::build`].
    pub fn build_at<P: EnumerableProtocol>(
        protocol: &P,
        freq: &[f64],
    ) -> Result<Option<Self>, PopulationError> {
        Self::build_with(protocol, |p, i, j, law| {
            p.pair_kernel_at(i, j, freq)
                .map(|entries| law.extend(entries))
                .is_some()
        })
    }

    /// Tabulates the law `law_of` writes for each cell into a cleared
    /// scratch buffer, returning `false` when the cell has none.
    fn build_with<P: EnumerableProtocol>(
        protocol: &P,
        mut law_of: impl FnMut(&P, usize, usize, &mut Vec<((usize, usize), f64)>) -> bool,
    ) -> Result<Option<Self>, PopulationError> {
        let k = protocol.num_states();
        let mut cells = Vec::with_capacity(k * k);
        let mut active_mass = Vec::with_capacity(k * k);
        let mut law = Vec::new();
        for i in 0..k {
            for j in 0..k {
                law.clear();
                if !law_of(protocol, i, j, &mut law) {
                    return Ok(None);
                }
                let mut cell = Vec::with_capacity(law.len());
                active_mass.push(fill_cell(k, i, j, &law, &mut cell)?);
                cells.push(cell);
            }
        }
        let mut table = KernelTable {
            k,
            cells,
            active_mass,
            nid_start: Vec::new(),
            nid_ab: Vec::new(),
            nid_cum: Vec::new(),
            active: Vec::new(),
            probed: false,
        };
        table.rebuild_active_outcomes();
        Ok(Some(table))
    }

    /// Refreshes the table in place at new frequencies, recomputing only
    /// the cells flagged in `dirty` (`dirty[i * k + j]`) and reusing every
    /// cell's allocation — the incremental counterpart of a full
    /// [`KernelTable::build_at`] rebuild. `scratch` is a caller-owned
    /// buffer reused across calls, so a warm refresh performs no heap
    /// allocation at all.
    ///
    /// Provided the protocol's [`EnumerableProtocol::pair_kernel_deps`]
    /// declarations are truthful and `dirty` covers every cell whose
    /// declared inputs changed, the refreshed table is **bitwise
    /// identical** to a freshly built one: clean cells keep values that
    /// could not have changed, and dirty cells are recomputed through the
    /// exact same validation/fill path as [`KernelTable::build_at`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`KernelTable::build`]; additionally
    /// [`PopulationError::InvalidArgument`] when the protocol declines to
    /// state a law mid-run (a count-coupled contract violation).
    pub fn refresh_at<P: EnumerableProtocol>(
        &mut self,
        protocol: &P,
        freq: &[f64],
        dirty: &[bool],
        scratch: &mut Vec<((usize, usize), f64)>,
    ) -> Result<(), PopulationError> {
        let k = self.k;
        debug_assert_eq!(dirty.len(), k * k, "dirty mask must cover every cell");
        let mut any_dirty = false;
        for i in 0..k {
            for j in 0..k {
                let cell_index = i * k + j;
                if !dirty[cell_index] {
                    continue;
                }
                any_dirty = true;
                scratch.clear();
                if !protocol.pair_kernel_at_into(i, j, freq, scratch) {
                    return Err(PopulationError::InvalidArgument {
                        reason: format!(
                            "count-coupled protocol declined to state the law for \
                             pair ({i}, {j}) mid-run"
                        ),
                    });
                }
                self.active_mass[cell_index] =
                    fill_cell(k, i, j, scratch, &mut self.cells[cell_index])?;
            }
        }
        if any_dirty {
            self.rebuild_active_outcomes();
        }
        Ok(())
    }

    /// Recomputes the flattened active-outcome arrays (`nid_start`,
    /// `nid_ab`, `nid_cum`, `active`) from `cells`. The cumulative masses
    /// accumulate in the cell's declaration order — the same order
    /// [`fill_cell`] sums `active_mass` — so the final cumulative value of
    /// each cell is bitwise equal to its cached active mass.
    fn rebuild_active_outcomes(&mut self) {
        let k = self.k;
        self.nid_start.clear();
        self.nid_ab.clear();
        self.nid_cum.clear();
        self.active.clear();
        self.nid_start.push(0);
        for cell_index in 0..k * k {
            let (i, j) = (cell_index / k, cell_index % k);
            let mut cum = 0.0f64;
            for &((a, b), p) in &self.cells[cell_index] {
                if (a as usize, b as usize) == (i, j) {
                    continue;
                }
                cum += p;
                self.nid_ab.push((a, b));
                self.nid_cum.push(cum);
            }
            let start = *self.nid_start.last().expect("seeded with 0") as usize;
            let sole = match self.nid_ab[start..] {
                [] => None,
                [(a, b)] => Some((a << 16) | b),
                [..] => Some(NO_SOLE),
            };
            if let Some(sole) = sole {
                let entry = ((i as u64) << 48) | ((j as u64) << 32) | u64::from(sole);
                self.active.push((entry, self.active_mass[cell_index]));
            }
            self.nid_start.push(self.nid_ab.len() as u32);
        }
    }

    /// Resolves a count-changing outcome of flat cell `c = i·k + j` from a
    /// uniform draw `u ∈ [0, active_mass(i, j))`: the first outcome whose
    /// within-cell cumulative mass exceeds `u` (float rounding past the
    /// end selects the last). Callers must only pass cells with positive
    /// active mass.
    #[inline]
    pub fn pick_active_outcome(&self, cell: usize, u: f64) -> (u32, u32) {
        let start = self.nid_start[cell] as usize;
        let end = self.nid_start[cell + 1] as usize;
        debug_assert!(start < end, "cell has no count-changing outcomes");
        // Branchless rank: count boundaries at or below `u` — fixed trip
        // count, no data-dependent branches to mispredict.
        let mut rank = 0usize;
        for &c in &self.nid_cum[start..end] {
            rank += usize::from(u >= c);
        }
        self.nid_ab[start + rank.min(end - start - 1)]
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.k
    }

    /// The positive-probability outcomes of ordered pair `(i, j)`.
    #[inline]
    pub fn outcomes(&self, i: usize, j: usize) -> &[((u32, u32), f64)] {
        &self.cells[i * self.k + j]
    }

    /// Whether pair `(i, j)` is almost surely a no-op on the count vector.
    #[inline]
    pub fn is_identity(&self, i: usize, j: usize) -> bool {
        self.active_mass[i * self.k + j] == 0.0
    }

    /// Total probability that pair `(i, j)` changes the count vector —
    /// the summed mass of its outcomes with `(a, b) ≠ (i, j)`.
    #[inline]
    pub fn active_mass(&self, i: usize, j: usize) -> f64 {
        self.active_mass[i * self.k + j]
    }
}

/// The high-throughput count-level engine.
///
/// Owns the protocol, the count vector, the lazily rebuilt alias table for
/// `O(1)` exact pair sampling, the protocol's [`KernelTable`] (absent only
/// for randomized protocols that declare no law, which step exactly), and
/// all scratch buffers, so the hot loop performs no allocation.
///
/// # Example
///
/// ```
/// use popgame_population::batch::BatchedEngine;
/// use popgame_population::counts::CountedPopulation;
/// use popgame_population::classic::UndecidedDynamics;
/// use popgame_util::rng::rng_from_seed;
///
/// let pop = CountedPopulation::from_counts(vec![600, 400, 0]).unwrap();
/// let mut engine = BatchedEngine::new(UndecidedDynamics, pop).unwrap();
/// let mut rng = rng_from_seed(7);
/// engine.run_batched(100_000, 128, &mut rng).unwrap();
/// assert_eq!(engine.counts().iter().sum::<u64>(), 1000);
/// assert_eq!(engine.interactions(), 100_000);
/// ```
#[derive(Debug, Clone)]
pub struct BatchedEngine<P: EnumerableProtocol> {
    protocol: P,
    counts: Vec<u64>,
    n: u64,
    interactions: u64,
    /// The protocol's per-pair outcome law ([`KernelTable::build`]);
    /// `None` sends every interaction through exact stepping. For
    /// count-coupled protocols (`coupled`), this is the kernel at the
    /// counts it was last refreshed from.
    kernel: Option<KernelTable>,
    /// Whether the protocol's kernel is coupled to the current counts
    /// ([`EnumerableProtocol::kernel_depends_on_counts`]): the kernel is
    /// then refreshed lazily whenever the counts have changed, and
    /// [`Protocol::interact`](crate::protocol::Protocol::interact) is
    /// never called.
    coupled: bool,
    /// Whether `kernel` predates a count change (count-coupled only).
    kernel_dirty: bool,
    alias: Option<AliasTable>,
    alias_dirty: bool,
    /// Scratch: per-state count deltas of the current leap.
    deltas: Vec<i64>,
    /// Per-cell frequency dependencies declared by the protocol
    /// ([`EnumerableProtocol::pair_kernel_deps`]); count-coupled only.
    deps: Vec<KernelDeps>,
    /// Which states' counts changed since the kernel was last refreshed —
    /// the dirty mask driving the incremental refresh.
    stale: Vec<bool>,
    /// Scratch: per-cell dirty flags for [`KernelTable::refresh_at`].
    dirty_cells: Vec<bool>,
    /// Scratch: current frequencies, reused across refreshes.
    freq_scratch: Vec<f64>,
    /// Scratch: one cell's raw declared law, reused across refreshes.
    law_scratch: Vec<((usize, usize), f64)>,
    /// Scratch: Walker-alias buffers (acceptance probabilities, alias
    /// slots, and the small/large worklists of the build) for the
    /// categorical draw path of a leap. Rebuilt in place per leap — no
    /// allocation once capacity is reached.
    alias_prob: Vec<f64>,
    alias_slot: Vec<u32>,
    alias_small: Vec<u32>,
    alias_large: Vec<u32>,
    /// Scratch: the leap's two-level sampler — the pairs that can change
    /// counts this leap, as [`KernelTable`] packed pair entries (so a
    /// one-outcome cell needs no lookup and no per-draw division) with
    /// their weights `x_i (x_j − δ_ij) · active_mass(i, j)`. Other outcomes
    /// are resolved per draw against the kernel cell, so the leap's
    /// per-call work is `O(k²)`, not `O(k²·outcomes)`.
    pairs: Vec<(u64, f64)>,
}

impl<P: EnumerableProtocol> BatchedEngine<P> {
    /// Wraps a counted population.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::StateOutOfRange`] when the population's
    /// count vector length does not match the protocol's state count.
    pub fn new(protocol: P, population: CountedPopulation) -> Result<Self, PopulationError> {
        let k = protocol.num_states();
        if population.counts().len() != k {
            return Err(PopulationError::StateOutOfRange {
                index: population.counts().len(),
                num_states: k,
            });
        }
        let coupled = protocol.kernel_depends_on_counts();
        let interactions = population.interactions();
        let counts = population.counts().to_vec();
        let n = population.len();
        let kernel = {
            let _build_span = crate::metrics::kernel_build_span();
            if coupled {
                // Build the count-coupled kernel once at construction so a
                // malformed law errors here, not deep inside a run. A `None`
                // declaration is a contract violation with the same shape.
                let freq: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();
                let built = KernelTable::build_at(&protocol, &freq)?.ok_or_else(|| {
                    PopulationError::InvalidArgument {
                        reason: "count-coupled protocol declares no pair_kernel_at law".into(),
                    }
                })?;
                Some(built)
            } else {
                KernelTable::build(&protocol)?
            }
        };
        if kernel.is_some() {
            crate::metrics::kernel_full_builds().inc();
        }
        let deps = if coupled {
            (0..k * k)
                .map(|cell| protocol.pair_kernel_deps(cell / k, cell % k))
                .collect()
        } else {
            Vec::new()
        };
        Ok(BatchedEngine {
            protocol,
            counts,
            n,
            interactions,
            kernel,
            coupled,
            kernel_dirty: false,
            alias: None,
            alias_dirty: true,
            deltas: vec![0; k],
            deps,
            stale: vec![false; k],
            dirty_cells: vec![false; k * k],
            freq_scratch: Vec::with_capacity(k),
            law_scratch: Vec::new(),
            alias_prob: Vec::with_capacity(k * k),
            alias_slot: Vec::with_capacity(k * k),
            alias_small: Vec::with_capacity(k * k),
            alias_large: Vec::with_capacity(k * k),
            pairs: Vec::with_capacity(k * k),
        })
    }

    /// Builds the engine directly from per-state counts.
    ///
    /// # Errors
    ///
    /// Propagates count-vector validation and dimension mismatches.
    pub fn from_counts(protocol: P, counts: Vec<u64>) -> Result<Self, PopulationError> {
        Self::new(protocol, CountedPopulation::from_counts(counts)?)
    }

    /// The protocol.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Current per-state counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of agents.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// `true` when there are no agents (cannot occur after construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Interactions executed so far (batched interactions included).
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Normalized occupation frequencies.
    pub fn frequencies(&self) -> Vec<f64> {
        self.counts
            .iter()
            .map(|&c| c as f64 / self.n as f64)
            .collect()
    }

    /// Whether every agent holds the same state (at most one non-zero
    /// count) — the count-level consensus observer.
    pub fn is_consensus(&self) -> bool {
        self.counts.iter().filter(|&&c| c > 0).count() <= 1
    }

    /// Converts back into a plain [`CountedPopulation`].
    pub fn into_population(self) -> CountedPopulation {
        CountedPopulation::from_parts(self.counts, self.interactions)
    }

    fn ensure_alias(&mut self) {
        if self.alias_dirty || self.alias.is_none() {
            let _span = crate::metrics::alias_rebuild_span();
            let weights: Vec<f64> = self.counts.iter().map(|&c| c as f64).collect();
            self.alias = Some(AliasTable::new(&weights).expect("population non-empty"));
            self.alias_dirty = false;
            crate::metrics::alias_rebuilds().inc();
        }
    }

    /// Refreshes the count-coupled kernel when the counts have changed
    /// since it was last built. No-op for static-kernel protocols.
    ///
    /// The refresh is *incremental*: only cells whose declared frequency
    /// dependencies ([`EnumerableProtocol::pair_kernel_deps`]) intersect
    /// the states that actually changed are recomputed, in place, through
    /// reusable scratch buffers — no allocation on a warm refresh, and
    /// bitwise-identical results to a full rebuild.
    fn ensure_kernel(&mut self) {
        if !(self.coupled && self.kernel_dirty) {
            return;
        }
        let _span = crate::metrics::kernel_refresh_span();
        self.freq_scratch.clear();
        self.freq_scratch
            .extend(self.counts.iter().map(|&c| c as f64 / self.n as f64));
        let any_stale = self.stale.iter().any(|&s| s);
        let mut recomputed = 0u64;
        for (cell, dirty) in self.dirty_cells.iter_mut().enumerate() {
            *dirty = match &self.deps[cell] {
                KernelDeps::None => false,
                KernelDeps::All => any_stale,
                KernelDeps::States(states) => states.iter().any(|&s| self.stale[s]),
            };
            recomputed += u64::from(*dirty);
        }
        crate::metrics::kernel_refreshes().inc();
        crate::metrics::kernel_dirty_cells().add(recomputed);
        self.kernel
            .as_mut()
            .expect("coupled engines keep a kernel")
            .refresh_at(
                &self.protocol,
                &self.freq_scratch,
                &self.dirty_cells,
                &mut self.law_scratch,
            )
            .expect("count-coupled kernel law broke mid-run (protocol bug)");
        self.stale.iter_mut().for_each(|s| *s = false);
        self.kernel_dirty = false;
    }

    /// One exact interaction via alias-table sampling: `O(1)` expected when
    /// the counts are unchanged since the last step, `O(K)` to rebuild the
    /// table after a change. Identical in law to
    /// [`CountedPopulation::step`]. Returns the sampled pre-interaction
    /// `(initiator_state, responder_state)` indices.
    ///
    /// Count-coupled protocols are exact here too: the kernel is refreshed
    /// from the *current* frequencies before the outcome is drawn.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> (usize, usize) {
        self.ensure_kernel();
        self.ensure_alias();
        let alias = self.alias.as_ref().expect("built above");
        // Initiator ∝ x_i.
        let i = alias.sample(rng);
        // Responder ∝ x_j − δ_ij via rejection: propose ∝ x_j; a proposal
        // equal to the initiator's state is accepted with probability
        // (x_i − 1)/x_i, which tilts the law to the without-replacement
        // weights. Expected proposals ≤ n/(n−1) ≤ 2.
        let j = loop {
            let j = alias.sample(rng);
            if j != i {
                break j;
            }
            let xi = self.counts[i];
            if xi > 1 && rng.gen::<f64>() * (xi as f64) < (xi - 1) as f64 {
                break j;
            }
        };
        let (ni, nj) = match &self.kernel {
            // Keeps the RNG stream: a probed cell's outcome needs no `interact`.
            Some(kernel) if kernel.probed => {
                let (a, b) = kernel.outcomes(i, j)[0].0;
                (a as usize, b as usize)
            }
            Some(kernel) if self.coupled => {
                // Sample the outcome from the freshly refreshed kernel —
                // `interact` is never called for count-coupled protocols.
                let outs = kernel.outcomes(i, j);
                let u: f64 = rng.gen();
                let mut acc = 0.0;
                let mut chosen = outs.last().expect("kernel cells are non-empty").0;
                for &(out, p) in outs {
                    acc += p;
                    if u < acc {
                        chosen = out;
                        break;
                    }
                }
                (chosen.0 as usize, chosen.1 as usize)
            }
            _ => {
                let (si, sj) = (self.protocol.state_at(i), self.protocol.state_at(j));
                let (ni, nj) = self.protocol.interact(si, sj, rng);
                (self.protocol.state_index(ni), self.protocol.state_index(nj))
            }
        };
        if (ni, nj) != (i, j) {
            self.counts[i] -= 1;
            self.counts[ni] += 1;
            self.counts[j] -= 1;
            self.counts[nj] += 1;
            self.alias_dirty = true;
            self.kernel_dirty = true;
            for s in [i, ni, j, nj] {
                self.stale[s] = true;
            }
        }
        self.interactions += 1;
        crate::metrics::exact_steps().inc();
        (i, j)
    }

    /// Executes `batch` interactions as one multinomial leap (see the
    /// module docs for the exactness contract). Falls back to exact
    /// per-interaction stepping for protocols without a [`KernelTable`].
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::TooFewAgents`] when `n < 2`.
    pub fn step_batch<R: Rng + ?Sized>(
        &mut self,
        batch: u64,
        rng: &mut R,
    ) -> Result<(), PopulationError> {
        if self.n < 2 {
            return Err(PopulationError::TooFewAgents { n: self.n as usize });
        }
        if self.kernel.is_none() {
            // Randomized transitions without a declared kernel cannot be
            // tabulated; stay exact.
            for _ in 0..batch {
                self.step(rng);
            }
            return Ok(());
        }
        self.leap(batch, rng);
        Ok(())
    }

    /// Runs `total` interactions in leaps of `batch` (the final leap is
    /// ragged).
    ///
    /// # Errors
    ///
    /// Propagates [`Self::step_batch`] errors.
    pub fn run_batched<R: Rng + ?Sized>(
        &mut self,
        total: u64,
        batch: u64,
        rng: &mut R,
    ) -> Result<(), PopulationError> {
        self.run_loop(total, batch, rng, None)
    }

    /// [`Self::run_batched`] with bounded-memory trajectory capture: the
    /// count vector is offered to `recorder` before the first leap and
    /// after every leap, and the final state is always retained
    /// ([`crate::trajectory::TrajectoryRecorder::force`]). The recorder never consumes
    /// randomness, so a recorded run draws exactly the same RNG stream —
    /// and reaches exactly the same final counts — as an unrecorded
    /// [`Self::run_batched`] with the same arguments (both are thin
    /// wrappers over one leap loop).
    ///
    /// # Errors
    ///
    /// Propagates [`Self::step_batch`] errors.
    pub fn run_recorded<R: Rng + ?Sized>(
        &mut self,
        total: u64,
        batch: u64,
        rng: &mut R,
        recorder: &mut crate::trajectory::TrajectoryRecorder,
    ) -> Result<(), PopulationError> {
        self.run_loop(total, batch, rng, Some(recorder))
    }

    /// The shared leap loop behind [`Self::run_batched`] and
    /// [`Self::run_recorded`]; the recorder is observation-only.
    fn run_loop<R: Rng + ?Sized>(
        &mut self,
        total: u64,
        batch: u64,
        rng: &mut R,
        mut recorder: Option<&mut crate::trajectory::TrajectoryRecorder>,
    ) -> Result<(), PopulationError> {
        assert!(batch > 0, "batch size must be positive");
        if let Some(rec) = recorder.as_deref_mut() {
            rec.offer(self.interactions, &self.counts);
        }
        let mut executed = 0u64;
        while executed < total {
            let burst = batch.min(total - executed);
            self.step_batch(burst, rng)?;
            executed += burst;
            if let Some(rec) = recorder.as_deref_mut() {
                rec.offer(self.interactions, &self.counts);
            }
        }
        if let Some(rec) = recorder {
            rec.force(self.interactions, &self.counts);
        }
        Ok(())
    }

    /// A batch size balancing leap overhead against τ-leap drift:
    /// `max(1, √n)`. Scaling sublinearly keeps the frozen-count
    /// idealization *vanishing* in `n` — the per-interaction perturbation
    /// is `O(batch/n) = O(1/√n)`, strictly smaller than the paper's
    /// `O(1/n)`-per-agent eq. (5) idealization only by a vanishing
    /// factor — while amortizing the `O(K²)` leap cost over `√n`
    /// interactions.
    pub fn suggested_batch(&self) -> u64 {
        ((self.n as f64).sqrt() as u64).max(1)
    }

    /// The multinomial leap over frozen counts; splits on (rare) negative
    /// excursions.
    ///
    /// Count-coupled kernels are refreshed here from the counts being
    /// frozen, so the kernel shares the leap's own idealization exactly —
    /// overdraw splits re-enter through this refresh and see updated
    /// frequencies.
    ///
    /// All identity mass — pairs that are almost-sure no-ops *and* the
    /// no-op outcomes of active pairs — is thinned away in a single
    /// leading `p_active` binomial, so near equilibrium most leaps
    /// terminate after a handful of small draws. The surviving active
    /// draws follow a *two-level* factorization
    /// `P(pair) · P(outcome | pair)`: pairs carry weight
    /// `x_i (x_j − δ_ij) · active_mass(i, j)` and the outcome is resolved
    /// per draw against the kernel cell, so the per-leap fixed cost is
    /// `O(k²)` rather than `O(k² · outcomes)`. Small draw counts take iid
    /// categorical draws from a Walker alias table over pairs; large ones
    /// a pair-level binomial chain with nested outcome chains — both
    /// exactly the flattened entry-level multinomial in law, by the
    /// splitting property.
    fn leap<R: Rng + ?Sized>(&mut self, batch: u64, rng: &mut R) {
        let _leap_span = crate::metrics::leap_span();
        crate::metrics::leaps().inc();
        self.ensure_kernel();
        let k = self.counts.len();
        let kernel = self.kernel.as_ref().expect("leap requires a kernel");
        self.pairs.clear();
        let mut active_weight = 0.0f64;
        for &(entry, mass) in &kernel.active {
            let (i, j, _) = unpack_pair(entry);
            let xi = self.counts[i];
            if xi == 0 {
                // Also keeps `x_i − 1` below from underflowing when i = j.
                continue;
            }
            let wpair = xi as f64 * (self.counts[j] - u64::from(i == j)) as f64;
            if wpair > 0.0 {
                let w = wpair * mass;
                self.pairs.push((entry, w));
                active_weight += w;
            }
        }
        if active_weight <= 0.0 {
            // Absorbed: every remaining interaction is a no-op.
            self.interactions += batch;
            return;
        }
        let total_weight = self.n as f64 * (self.n - 1) as f64;
        // How many of the `batch` interactions change anything at all.
        let p_active = (active_weight / total_weight).min(1.0);
        let mut remaining = sample_binomial(batch, p_active, rng);
        self.deltas.iter_mut().for_each(|d| *d = 0);
        let pairs = self.pairs.len();
        if remaining > 0 && remaining < 12 * pairs as u64 {
            // Two-level categorical draws: a Walker alias table over the
            // pair weights picks the ordered pair, then a short CDF walk
            // over the kernel cell's count-changing outcomes (normalized
            // by the cached active mass) picks the result. Jointly this is
            // exactly the entry-level multinomial —
            // `P(pair) · P(outcome | pair)` — without ever building the
            // flattened entry list.
            self.rebuild_pair_alias(active_weight);
            let kernel = self.kernel.as_ref().expect("leap requires a kernel");
            let table = (&self.alias_prob[..], &self.alias_slot[..]);
            let (entries, deltas) = (&self.pairs[..], &mut self.deltas[..]);
            // Keeps the RNG stream: a probed cell takes no outcome uniform.
            if kernel.probed {
                for _ in 0..remaining {
                    let (i, j, sole) = unpack_pair(entries[alias_pick(table, rng.gen())].0);
                    debug_assert_ne!(sole, NO_SOLE, "probed cells have one outcome");
                    add_moves(deltas, i, j, sole_outcome(sole), 1);
                }
            } else {
                for _ in 0..remaining {
                    let (i, j, _) = unpack_pair(entries[alias_pick(table, rng.gen())].0);
                    let u2 = rng.gen::<f64>() * kernel.active_mass(i, j);
                    add_moves(deltas, i, j, kernel.pick_active_outcome(i * k + j, u2), 1);
                }
            }
        } else {
            // Binomial chain over pairs, then a nested chain over each
            // drawn pair's count-changing outcomes — the same joint
            // multinomial by the splitting property, at `O(pairs)` plus
            // outcome work only for pairs that drew.
            let mut mass_left = active_weight;
            let lastp = pairs - 1;
            for pi in 0..=lastp {
                if remaining == 0 {
                    break;
                }
                let (entry, w) = self.pairs[pi];
                let q = if pi == lastp {
                    1.0
                } else {
                    (w / mass_left).clamp(0.0, 1.0)
                };
                let c = sample_binomial(remaining, q, rng);
                mass_left -= w;
                if c == 0 {
                    continue;
                }
                remaining -= c;
                let (i, j, sole) = unpack_pair(entry);
                if sole != NO_SOLE {
                    // One count-changing outcome takes all `c` draws: the
                    // nested chain would reach it with q = 1, which draws
                    // no randomness.
                    add_moves(&mut self.deltas, i, j, sole_outcome(sole), c as i64);
                    continue;
                }
                let outs = kernel.outcomes(i, j);
                let last_nid = outs
                    .iter()
                    .rposition(|&((a, b), _)| (a as usize, b as usize) != (i, j))
                    .expect("active pair has a count-changing outcome");
                let mut m = kernel.active_mass(i, j);
                let mut cleft = c;
                for (oi, &((a, b), p)) in outs.iter().enumerate() {
                    if cleft == 0 {
                        break;
                    }
                    if (a as usize, b as usize) == (i, j) {
                        continue;
                    }
                    let q2 = if oi == last_nid {
                        1.0
                    } else {
                        (p / m).clamp(0.0, 1.0)
                    };
                    let cc = sample_binomial(cleft, q2, rng);
                    m -= p;
                    if cc > 0 {
                        cleft -= cc;
                        add_moves(&mut self.deltas, i, j, (a, b), cc as i64);
                    }
                }
            }
        }
        // Conservation guard: a leap that overdraws a state is split in
        // half; each half sees refreshed counts, shrinking the draw.
        let overdraws = self
            .counts
            .iter()
            .zip(&self.deltas)
            .any(|(&c, &d)| (c as i64) + d < 0);
        if overdraws {
            if batch == 1 {
                // A single interaction can never overdraw; replay exactly.
                self.step(rng);
                return;
            }
            let half = batch / 2;
            self.leap(half, rng);
            self.leap(batch - half, rng);
            return;
        }
        let mut changed = false;
        for (s, delta) in self.deltas.iter().enumerate() {
            if *delta != 0 {
                self.counts[s] = (self.counts[s] as i64 + delta) as u64;
                self.stale[s] = true;
                changed = true;
            }
        }
        self.interactions += batch;
        if changed {
            self.alias_dirty = true;
            self.kernel_dirty = true;
        }
    }

    /// Rebuilds the Walker alias table over the leap's pair weights
    /// (total mass `total`) in place, reusing the engine's scratch buffers
    /// — the same construction as [`popgame_util::sampler::AliasTable`],
    /// without the per-leap allocations.
    fn rebuild_pair_alias(&mut self, total: f64) {
        let _span = crate::metrics::alias_rebuild_span();
        crate::metrics::alias_rebuilds().inc();
        let len = self.pairs.len() as f64;
        self.alias_prob.clear();
        // Keeps the RNG stream: probed tables round as `w * len / total`.
        if self.kernel.as_ref().is_some_and(|kernel| kernel.probed) {
            self.alias_prob
                .extend(self.pairs.iter().map(|&(_, w)| w * len / total));
        } else {
            let scale = len / total;
            self.alias_prob
                .extend(self.pairs.iter().map(|&(_, w)| w * scale));
        }
        self.finalize_alias();
    }

    /// Turns the scaled weights currently in `alias_prob` (mean 1) into a
    /// finalized acceptance/alias table via the in-place Vose pairing.
    #[inline(never)]
    fn finalize_alias(&mut self) {
        let entries = self.alias_prob.len();
        self.alias_slot.clear();
        self.alias_slot.resize(entries, 0);
        self.alias_small.clear();
        self.alias_large.clear();
        for (i, &scaled) in self.alias_prob.iter().enumerate() {
            if scaled < 1.0 {
                self.alias_small.push(i as u32);
            } else {
                self.alias_large.push(i as u32);
            }
        }
        // `alias_prob` starts as the scaled weights and is finalized in
        // place: a slot popped from `small` keeps its current value as its
        // acceptance probability, and donates its deficit to the paired
        // large slot.
        while let (Some(&s), Some(&l)) =
            (self.alias_small.last(), self.alias_large.last())
        {
            self.alias_small.pop();
            let (s, l) = (s as usize, l as usize);
            self.alias_slot[s] = l as u32;
            self.alias_prob[l] = (self.alias_prob[l] + self.alias_prob[s]) - 1.0;
            if self.alias_prob[l] < 1.0 {
                self.alias_large.pop();
                self.alias_small.push(l as u32);
            }
        }
        for i in 0..self.alias_small.len() {
            let i = self.alias_small[i] as usize;
            self.alias_prob[i] = 1.0;
            self.alias_slot[i] = i as u32;
        }
        for i in 0..self.alias_large.len() {
            let i = self.alias_large[i] as usize;
            self.alias_prob[i] = 1.0;
            self.alias_slot[i] = i as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Protocol;
    use popgame_util::rng::{rng_from_seed, stream_rng};
    use proptest::prelude::*;
    use rand::Rng;

    /// One-way epidemic over {0: healthy, 1: infected}.
    #[derive(Clone, Copy)]
    struct Epidemic;

    impl Protocol for Epidemic {
        type State = bool;
        fn interact<R: Rng + ?Sized>(&self, i: bool, r: bool, _rng: &mut R) -> (bool, bool) {
            (i || r, r)
        }
        fn is_one_way(&self) -> bool {
            true
        }
    }

    impl EnumerableProtocol for Epidemic {
        fn num_states(&self) -> usize {
            2
        }
        fn state_index(&self, s: bool) -> usize {
            usize::from(s)
        }
        fn state_at(&self, i: usize) -> bool {
            i == 1
        }
    }

    /// Three-state cyclic rock-paper-scissors-like protocol: the initiator
    /// adopts the successor of the responder's state. Keeps all counts
    /// moving, which exercises the overdraw-splitting path.
    #[derive(Clone, Copy)]
    struct Cyclic;

    impl Protocol for Cyclic {
        type State = u8;
        fn interact<R: Rng + ?Sized>(&self, _i: u8, r: u8, _rng: &mut R) -> (u8, u8) {
            ((r + 1) % 3, r)
        }
        fn is_one_way(&self) -> bool {
            true
        }
    }

    impl EnumerableProtocol for Cyclic {
        fn num_states(&self) -> usize {
            3
        }
        fn state_index(&self, s: u8) -> usize {
            s as usize
        }
        fn state_at(&self, i: usize) -> u8 {
            i as u8
        }
    }

    /// A randomized protocol: the initiator flips to a uniform state.
    #[derive(Clone, Copy)]
    struct RandomFlip;

    impl Protocol for RandomFlip {
        type State = u8;
        fn interact<R: Rng + ?Sized>(&self, _i: u8, r: u8, rng: &mut R) -> (u8, u8) {
            (rng.gen_range(0..3u8), r)
        }
        fn is_one_way(&self) -> bool {
            true
        }
        fn has_random_transitions(&self) -> bool {
            true
        }
    }

    impl EnumerableProtocol for RandomFlip {
        fn num_states(&self) -> usize {
            3
        }
        fn state_index(&self, s: u8) -> usize {
            s as usize
        }
        fn state_at(&self, i: usize) -> u8 {
            i as u8
        }
    }

    #[test]
    fn kernel_table_probes_deterministic_protocols() {
        let table = KernelTable::build(&Epidemic).unwrap().unwrap();
        assert!(table.probed);
        assert_eq!(table.num_states(), 2);
        // One mass-1 outcome per cell.
        assert_eq!(table.outcomes(0, 1), &[((1, 1), 1.0)]);
        assert_eq!(table.outcomes(0, 0), &[((0, 0), 1.0)]);
        assert!(table.is_identity(1, 1));
        assert!(!table.is_identity(0, 1));
        assert_eq!(table.active_mass(0, 1), 1.0);
        assert_eq!(table.active_mass(1, 1), 0.0);
    }

    #[test]
    fn kernel_table_refuses_undeclared_randomized_protocols() {
        assert!(KernelTable::build(&RandomFlip).unwrap().is_none());
    }

    /// `RandomFlip` with its outcome law declared: the initiator flips to
    /// a uniform state, so the kernel of `(i, j)` is `1/3` on each
    /// `((t, j))`. τ-leapable.
    #[derive(Clone, Copy)]
    struct DeclaredRandomFlip;

    impl Protocol for DeclaredRandomFlip {
        type State = u8;
        fn interact<R: Rng + ?Sized>(&self, _i: u8, r: u8, rng: &mut R) -> (u8, u8) {
            (rng.gen_range(0..3u8), r)
        }
        fn is_one_way(&self) -> bool {
            true
        }
        fn has_random_transitions(&self) -> bool {
            true
        }
    }

    impl EnumerableProtocol for DeclaredRandomFlip {
        fn num_states(&self) -> usize {
            3
        }
        fn state_index(&self, s: u8) -> usize {
            s as usize
        }
        fn state_at(&self, i: usize) -> u8 {
            i as u8
        }
        fn pair_kernel(&self, _i: usize, j: usize) -> Option<Vec<((usize, usize), f64)>> {
            Some((0..3).map(|t| ((t, j), 1.0 / 3.0)).collect())
        }
    }

    #[test]
    fn kernel_table_tabulates_declared_randomized_protocols() {
        let kernel = KernelTable::build(&DeclaredRandomFlip).unwrap().unwrap();
        assert!(!kernel.probed);
        assert_eq!(kernel.num_states(), 3);
        assert_eq!(kernel.outcomes(0, 1).len(), 3);
        // (i, j) = (0, 1): outcome (0, 1) is the identity with p = 1/3,
        // but the cell as a whole is not an almost-sure no-op.
        assert!(!kernel.is_identity(0, 1));
        // Undeclared randomized protocols yield no kernel.
        assert!(KernelTable::build(&RandomFlip).unwrap().is_none());
    }

    /// A protocol declaring an ill-formed kernel (probabilities sum to 2).
    #[derive(Clone, Copy)]
    struct BadKernel;

    impl Protocol for BadKernel {
        type State = u8;
        fn interact<R: Rng + ?Sized>(&self, i: u8, r: u8, _rng: &mut R) -> (u8, u8) {
            (i, r)
        }
        fn has_random_transitions(&self) -> bool {
            true
        }
    }

    impl EnumerableProtocol for BadKernel {
        fn num_states(&self) -> usize {
            2
        }
        fn state_index(&self, s: u8) -> usize {
            s as usize
        }
        fn state_at(&self, i: usize) -> u8 {
            i as u8
        }
        fn pair_kernel(&self, i: usize, j: usize) -> Option<Vec<((usize, usize), f64)>> {
            Some(vec![((i, j), 1.0), ((j, i), 1.0)])
        }
    }

    #[test]
    fn kernel_table_rejects_non_pmf_kernels() {
        let err = KernelTable::build(&BadKernel).unwrap_err();
        assert!(
            matches!(&err, PopulationError::InvalidArgument { reason } if reason.contains("sums to")),
            "{err}"
        );
        assert!(BatchedEngine::from_counts(BadKernel, vec![2, 2]).is_err());
    }

    #[test]
    fn kernel_batch_matches_per_step_law_chi_square() {
        // Step-vs-batch distributional equivalence for a *randomized*
        // protocol executed through its declared kernel: final state-0
        // count of DeclaredRandomFlip after a fixed horizon, exact
        // stepping vs τ-leaps of n/4, two-sample chi-square.
        let n = 12u64;
        let horizon = 30u64;
        let reps = 4_000u64;
        let mut hist_step = vec![0u64; n as usize + 1];
        let mut hist_batch = vec![0u64; n as usize + 1];
        for rep in 0..reps {
            let mut engine =
                BatchedEngine::from_counts(DeclaredRandomFlip, vec![10, 1, 1]).unwrap();
            let mut rng = stream_rng(23, rep);
            for _ in 0..horizon {
                engine.step(&mut rng);
            }
            hist_step[engine.counts()[0] as usize] += 1;

            let mut engine =
                BatchedEngine::from_counts(DeclaredRandomFlip, vec![10, 1, 1]).unwrap();
            let mut rng = stream_rng(badge(rep), rep);
            engine.run_batched(horizon, n / 4, &mut rng).unwrap();
            hist_batch[engine.counts()[0] as usize] += 1;
        }
        let chi2 = two_sample_chi_square(&hist_step, &hist_batch);
        // ~13 populated cells; 99.9% quantile of chi2(12) ~ 32.9, plus
        // room for the documented O(batch/n) leap bias.
        assert!(chi2 < 45.0, "chi-square {chi2}: {hist_step:?} vs {hist_batch:?}");
    }

    /// A randomized protocol that *forgets* to override
    /// `has_random_transitions`: the probe pass must catch the mismatch
    /// and fall back to exact stepping instead of freezing one outcome.
    #[derive(Clone, Copy)]
    struct MisdeclaredRandom;

    impl Protocol for MisdeclaredRandom {
        type State = u8;
        fn interact<R: Rng + ?Sized>(&self, _i: u8, r: u8, rng: &mut R) -> (u8, u8) {
            (rng.gen_range(0..3u8), r)
        }
        // has_random_transitions deliberately left at the false default.
    }

    impl EnumerableProtocol for MisdeclaredRandom {
        fn num_states(&self) -> usize {
            3
        }
        fn state_index(&self, s: u8) -> usize {
            s as usize
        }
        fn state_at(&self, i: usize) -> u8 {
            i as u8
        }
    }

    #[test]
    fn kernel_table_detects_misdeclared_randomized_protocols() {
        assert!(
            KernelTable::build(&MisdeclaredRandom).unwrap().is_none(),
            "probe pass must notice outcome mismatches"
        );
        // The engine still runs (exactly, per interaction).
        let mut engine =
            BatchedEngine::from_counts(MisdeclaredRandom, vec![4, 4, 4]).unwrap();
        let mut rng = rng_from_seed(13);
        engine.step_batch(200, &mut rng).unwrap();
        assert_eq!(engine.counts().iter().sum::<u64>(), 12);
        assert_eq!(engine.interactions(), 200);
    }

    /// Pins the RNG stream, which the chi-square tests (law only) cannot:
    /// final counts of fixed-seed runs, recorded before the deterministic
    /// transition table was folded into [`KernelTable`]. `Cyclic` is
    /// probed, `DeclaredRandomFlip` declares its kernel. At n = 10⁵,
    /// leaps of 16 draw at most 16 < 12 × pairs active interactions (the
    /// categorical alias draws), leaps of 10⁴ draw thousands (the
    /// binomial chain); exact stepping is pinned beside them.
    #[test]
    fn rng_stream_is_pinned_for_probed_and_declared_tables() {
        fn leap_run<P: EnumerableProtocol>(protocol: P, batch: u64) -> Vec<u64> {
            let mut engine =
                BatchedEngine::from_counts(protocol, vec![50_000, 30_000, 20_000]).unwrap();
            let mut rng = rng_from_seed(2024);
            engine.run_batched(200_000, batch, &mut rng).unwrap();
            engine.counts().to_vec()
        }
        fn step_run<P: EnumerableProtocol>(protocol: P) -> Vec<u64> {
            let mut engine = BatchedEngine::from_counts(protocol, vec![50, 30, 20]).unwrap();
            let mut rng = rng_from_seed(2024);
            for _ in 0..1_000 {
                engine.step(&mut rng);
            }
            engine.counts().to_vec()
        }
        assert_eq!(leap_run(Cyclic, 16), [32_938, 34_233, 32_829]);
        assert_eq!(leap_run(Cyclic, 10_000), [32_567, 34_254, 33_179]);
        assert_eq!(leap_run(DeclaredRandomFlip, 16), [35_589, 33_215, 31_196]);
        assert_eq!(
            leap_run(DeclaredRandomFlip, 10_000),
            [35_322, 32_795, 31_883]
        );
        assert_eq!(step_run(Cyclic), [31, 36, 33]);
        assert_eq!(step_run(DeclaredRandomFlip), [33, 38, 29]);
    }

    #[test]
    fn alias_step_matches_reference_law() {
        // Chi-square over the sampled (initiator, responder) pre-state
        // pairs of the alias step against the exact without-replacement
        // law x_i (x_j - delta_ij) / (n (n-1)).
        let counts = [6u64, 3, 1];
        let n = 10u64;
        let draws = 120_000u64;
        let mut observed = [0u64; 9];
        for rep in 0..draws {
            let mut engine =
                BatchedEngine::from_counts(Cyclic, counts.to_vec()).unwrap();
            let mut rng = stream_rng(42, rep);
            let (i, j) = engine.step(&mut rng);
            observed[i * 3 + j] += 1;
        }
        let mut chi2 = 0.0;
        let mut cells = 0;
        for i in 0..3 {
            for j in 0..3 {
                let w = counts[i] as f64
                    * (counts[j] - u64::from(i == j)) as f64;
                let expected = w / (n as f64 * (n - 1) as f64) * draws as f64;
                let got = observed[i * 3 + j] as f64;
                if expected == 0.0 {
                    assert_eq!(got, 0.0, "impossible pair ({i},{j}) sampled");
                } else {
                    chi2 += (got - expected).powi(2) / expected;
                    cells += 1;
                }
            }
        }
        // 8 positive cells -> 7 dof; 99.9% quantile ~ 24.3.
        assert!(chi2 < 24.3, "pair-law chi-square too large: {chi2} ({cells} cells)");
    }

    #[test]
    fn batch_one_matches_per_step_law_chi_square() {
        // Distributional equivalence at batch size 1: the end-state count
        // of the epidemic after a fixed horizon must follow the same law
        // under CountedPopulation::step and step_batch(1), across a seed
        // family. Two-sample chi-square over the infected-count histogram.
        let horizon = 40u64;
        let reps = 4_000u64;
        let bins = 12usize; // infected count in 1..=12 (n = 12)
        let mut hist_step = vec![0u64; bins + 1];
        let mut hist_batch = vec![0u64; bins + 1];
        for rep in 0..reps {
            let mut pop = CountedPopulation::from_counts(vec![11, 1]).unwrap();
            let mut rng = stream_rng(7, rep);
            pop.run(&Epidemic, horizon, &mut rng).unwrap();
            hist_step[pop.count(1) as usize] += 1;

            let mut engine =
                BatchedEngine::from_counts(Epidemic, vec![11, 1]).unwrap();
            let mut rng = stream_rng(badge(rep), rep);
            for _ in 0..horizon {
                engine.step_batch(1, &mut rng).unwrap();
            }
            hist_batch[engine.counts()[1] as usize] += 1;
        }
        let chi2 = two_sample_chi_square(&hist_step, &hist_batch);
        // dof <= 11; 99.9% quantile of chi2(11) ~ 31.3.
        assert!(chi2 < 31.3, "chi-square {chi2}: {hist_step:?} vs {hist_batch:?}");
    }

    /// Decorrelates the second seed family from the first.
    fn badge(rep: u64) -> u64 {
        0x5eed ^ rep.wrapping_mul(0x9E37_79B9)
    }

    /// Two-sample chi-square statistic over paired histograms.
    fn two_sample_chi_square(a: &[u64], b: &[u64]) -> f64 {
        let (ta, tb) = (
            a.iter().sum::<u64>() as f64,
            b.iter().sum::<u64>() as f64,
        );
        let mut chi2 = 0.0;
        for (&ca, &cb) in a.iter().zip(b) {
            let total = (ca + cb) as f64;
            if total == 0.0 {
                continue;
            }
            let ea = total * ta / (ta + tb);
            let eb = total * tb / (ta + tb);
            chi2 += (ca as f64 - ea).powi(2) / ea + (cb as f64 - eb).powi(2) / eb;
        }
        chi2
    }

    #[test]
    fn moderate_batches_stay_distributionally_close() {
        // tau-leap bias check: with batch = n/8 the epidemic's end-state
        // histogram stays within a loose two-sample chi-square of the
        // exact law (the bias is O(batch/n) per leap).
        let n = 64u64;
        let horizon = 6 * n;
        let reps = 2_000u64;
        let mut hist_step = vec![0u64; n as usize + 1];
        let mut hist_batch = vec![0u64; n as usize + 1];
        for rep in 0..reps {
            let mut pop = CountedPopulation::from_counts(vec![n - 1, 1]).unwrap();
            let mut rng = stream_rng(11, rep);
            pop.run(&Epidemic, horizon, &mut rng).unwrap();
            hist_step[pop.count(1) as usize] += 1;

            let mut engine =
                BatchedEngine::from_counts(Epidemic, vec![n - 1, 1]).unwrap();
            let mut rng = stream_rng(badge(rep), rep);
            engine.run_batched(horizon, n / 8, &mut rng).unwrap();
            hist_batch[engine.counts()[1] as usize] += 1;
        }
        let chi2 = two_sample_chi_square(&hist_step, &hist_batch);
        // Wide support (~65 cells): the 99.9% quantile of chi2(64) ~ 112;
        // allow extra room for the documented leap bias.
        assert!(chi2 < 160.0, "chi-square {chi2}");
    }

    #[test]
    fn randomized_protocol_falls_back_to_exact_stepping() {
        let mut engine =
            BatchedEngine::from_counts(RandomFlip, vec![10, 10, 10]).unwrap();
        let mut rng = rng_from_seed(3);
        engine.step_batch(500, &mut rng).unwrap();
        assert_eq!(engine.interactions(), 500);
        assert_eq!(engine.counts().iter().sum::<u64>(), 30);
    }

    #[test]
    fn absorbed_population_leaps_in_constant_time() {
        let mut engine = BatchedEngine::from_counts(Epidemic, vec![0, 50]).unwrap();
        let mut rng = rng_from_seed(4);
        engine.run_batched(1_000_000_000, 1_000_000, &mut rng).unwrap();
        assert_eq!(engine.interactions(), 1_000_000_000);
        assert_eq!(engine.counts(), &[0, 50]);
        assert!(engine.is_consensus());
    }

    /// A *two-way* deterministic protocol: both agents adopt the larger of
    /// the two states (max-consensus). Exercises both-update tabulation.
    #[derive(Clone, Copy)]
    struct MaxConsensus;

    impl Protocol for MaxConsensus {
        type State = u8;
        fn interact<R: Rng + ?Sized>(&self, i: u8, r: u8, _rng: &mut R) -> (u8, u8) {
            let m = i.max(r);
            (m, m)
        }
    }

    impl EnumerableProtocol for MaxConsensus {
        fn num_states(&self) -> usize {
            3
        }
        fn state_index(&self, s: u8) -> usize {
            s as usize
        }
        fn state_at(&self, i: usize) -> u8 {
            i as u8
        }
    }

    #[test]
    fn two_way_protocols_tabulate_both_updates() {
        let table = KernelTable::build(&MaxConsensus).unwrap().unwrap();
        // Both components change: (0, 2) -> (2, 2) and (2, 0) -> (2, 2).
        assert_eq!(table.outcomes(0, 2), &[((2, 2), 1.0)]);
        assert_eq!(table.outcomes(2, 0), &[((2, 2), 1.0)]);
        assert!(table.is_identity(1, 1));
        assert!(!table.is_identity(1, 0));
    }

    #[test]
    fn two_way_step_vs_batch_chi_square() {
        // Step-vs-batch distributional equivalence for a two-way protocol:
        // final max-state count after a fixed horizon, exact stepping vs
        // τ-leaps of n/4.
        let n = 12u64;
        let horizon = 20u64;
        let reps = 4_000u64;
        let mut hist_step = vec![0u64; n as usize + 1];
        let mut hist_batch = vec![0u64; n as usize + 1];
        for rep in 0..reps {
            let mut engine =
                BatchedEngine::from_counts(MaxConsensus, vec![6, 4, 2]).unwrap();
            let mut rng = stream_rng(51, rep);
            for _ in 0..horizon {
                engine.step(&mut rng);
            }
            hist_step[engine.counts()[2] as usize] += 1;

            let mut engine =
                BatchedEngine::from_counts(MaxConsensus, vec![6, 4, 2]).unwrap();
            let mut rng = stream_rng(badge(rep), rep);
            engine.run_batched(horizon, n / 4, &mut rng).unwrap();
            hist_batch[engine.counts()[2] as usize] += 1;
        }
        let chi2 = two_sample_chi_square(&hist_step, &hist_batch);
        // ~11 populated cells; 99.9% quantile of chi2(10) ~ 29.6, plus
        // leap-bias room.
        assert!(chi2 < 42.0, "chi-square {chi2}: {hist_step:?} vs {hist_batch:?}");
    }

    /// A *count-coupled* randomized protocol: the initiator flips to state
    /// 0 with probability equal to the current frequency of state 0
    /// (a mean-field-coupled contagion). Its law cannot be stated by
    /// `interact`.
    #[derive(Clone, Copy)]
    struct FieldContagion;

    impl Protocol for FieldContagion {
        type State = u8;
        fn interact<R: Rng + ?Sized>(&self, _i: u8, _r: u8, _rng: &mut R) -> (u8, u8) {
            unreachable!("count-coupled protocols run through pair_kernel_at")
        }
        fn is_one_way(&self) -> bool {
            true
        }
        fn has_random_transitions(&self) -> bool {
            true
        }
    }

    impl EnumerableProtocol for FieldContagion {
        fn num_states(&self) -> usize {
            2
        }
        fn state_index(&self, s: u8) -> usize {
            s as usize
        }
        fn state_at(&self, i: usize) -> u8 {
            i as u8
        }
        fn kernel_depends_on_counts(&self) -> bool {
            true
        }
        fn pair_kernel_at(
            &self,
            _i: usize,
            j: usize,
            freq: &[f64],
        ) -> Option<Vec<((usize, usize), f64)>> {
            let p0 = freq[0];
            Some(vec![((0, j), p0), ((1, j), 1.0 - p0)])
        }
    }

    #[test]
    fn count_coupled_protocols_are_rejected_by_agent_paths() {
        let mut pop = CountedPopulation::from_counts(vec![6, 6]).unwrap();
        let mut rng = rng_from_seed(2);
        assert!(matches!(
            pop.step(&FieldContagion, &mut rng),
            Err(PopulationError::InvalidArgument { .. })
        ));
    }

    #[test]
    fn count_coupled_step_vs_batch_chi_square() {
        // The dynamic-kernel path: exact stepping rebuilds the kernel after
        // every count change; τ-leaps freeze it per leap. The two must stay
        // distributionally equivalent (the freeze is the same O(batch/n)
        // idealization as the leap itself).
        let n = 12u64;
        let horizon = 30u64;
        let reps = 4_000u64;
        let mut hist_step = vec![0u64; n as usize + 1];
        let mut hist_batch = vec![0u64; n as usize + 1];
        for rep in 0..reps {
            let mut engine =
                BatchedEngine::from_counts(FieldContagion, vec![8, 4]).unwrap();
            let mut rng = stream_rng(77, rep);
            for _ in 0..horizon {
                engine.step(&mut rng);
            }
            hist_step[engine.counts()[0] as usize] += 1;

            let mut engine =
                BatchedEngine::from_counts(FieldContagion, vec![8, 4]).unwrap();
            let mut rng = stream_rng(badge(rep), rep);
            engine.run_batched(horizon, n / 4, &mut rng).unwrap();
            hist_batch[engine.counts()[0] as usize] += 1;
        }
        let chi2 = two_sample_chi_square(&hist_step, &hist_batch);
        // 13 cells; 99.9% quantile of chi2(12) ~ 32.9, plus leap-bias room.
        assert!(chi2 < 45.0, "chi-square {chi2}: {hist_step:?} vs {hist_batch:?}");
    }

    /// A count-coupled protocol with *partial* kernel dependencies: four
    /// states on a ring, where cell `(i, j)` advances the initiator to
    /// `i + 1` with a probability that reads only `freq[i]` — declared
    /// via `KernelDeps::States([i])`, so the incremental refresh skips
    /// every cell whose initiator state kept its count. `FieldContagion`
    /// keeps the conservative `All` default; this one exercises the
    /// sparse mask.
    #[derive(Clone, Copy)]
    struct LocalDrift;

    impl Protocol for LocalDrift {
        type State = u8;
        fn interact<R: Rng + ?Sized>(&self, _i: u8, _r: u8, _rng: &mut R) -> (u8, u8) {
            unreachable!("count-coupled protocols run through pair_kernel_at")
        }
        fn is_one_way(&self) -> bool {
            true
        }
        fn has_random_transitions(&self) -> bool {
            true
        }
    }

    impl EnumerableProtocol for LocalDrift {
        fn num_states(&self) -> usize {
            4
        }
        fn state_index(&self, s: u8) -> usize {
            s as usize
        }
        fn state_at(&self, i: usize) -> u8 {
            i as u8
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
                return Some(vec![((i, j), 1.0)]);
            }
            let p = 0.2 + 0.6 * freq[i];
            Some(vec![(((i + 1) % 4, j), p), ((i, j), 1.0 - p)])
        }
        fn pair_kernel_deps(&self, i: usize, j: usize) -> KernelDeps {
            if i == j {
                KernelDeps::None
            } else {
                KernelDeps::States(vec![i])
            }
        }
    }

    #[test]
    fn partial_deps_step_vs_batch_chi_square() {
        // Same battery as `count_coupled_step_vs_batch_chi_square`, but
        // over sparse `KernelDeps::States` declarations: exact stepping
        // refreshes only the stale initiators' cells after every count
        // change, τ-leaps refresh once per leap. Both route through
        // `refresh_at`, and both must sample the one declared law.
        let n = 12u64;
        let horizon = 30u64;
        let reps = 4_000u64;
        let mut hist_step = vec![0u64; n as usize + 1];
        let mut hist_batch = vec![0u64; n as usize + 1];
        for rep in 0..reps {
            let mut engine =
                BatchedEngine::from_counts(LocalDrift, vec![5, 3, 2, 2]).unwrap();
            let mut rng = stream_rng(901, rep);
            for _ in 0..horizon {
                engine.step(&mut rng);
            }
            hist_step[engine.counts()[0] as usize] += 1;

            let mut engine =
                BatchedEngine::from_counts(LocalDrift, vec![5, 3, 2, 2]).unwrap();
            let mut rng = stream_rng(badge(rep), rep);
            engine.run_batched(horizon, n / 4, &mut rng).unwrap();
            hist_batch[engine.counts()[0] as usize] += 1;
        }
        let chi2 = two_sample_chi_square(&hist_step, &hist_batch);
        // 13 cells; 99.9% quantile of chi2(12) ~ 32.9, plus leap-bias room.
        assert!(chi2 < 45.0, "chi-square {chi2}: {hist_step:?} vs {hist_batch:?}");
    }

    /// The per-cell dirty mask `ensure_kernel` derives from the declared
    /// deps and the set of states whose counts changed — replicated here
    /// so the proptest can drive `refresh_at` exactly the way the engine
    /// does.
    fn deps_dirty_mask<P: EnumerableProtocol>(protocol: &P, changed: &[bool]) -> Vec<bool> {
        let k = protocol.num_states();
        let mut dirty = vec![false; k * k];
        for i in 0..k {
            for j in 0..k {
                dirty[i * k + j] = match protocol.pair_kernel_deps(i, j) {
                    KernelDeps::None => false,
                    KernelDeps::All => changed.iter().any(|&c| c),
                    KernelDeps::States(states) => states.iter().any(|&s| changed[s]),
                };
            }
        }
        dirty
    }

    /// A count-coupled protocol whose declared pmf breaks when any state
    /// empties (mass 1 + freq[0] at the boundary) — construction must
    /// surface the bug immediately.
    #[derive(Clone, Copy, Debug)]
    struct BrokenCoupled;

    impl Protocol for BrokenCoupled {
        type State = u8;
        fn interact<R: Rng + ?Sized>(&self, _i: u8, _r: u8, _rng: &mut R) -> (u8, u8) {
            unreachable!()
        }
        fn has_random_transitions(&self) -> bool {
            true
        }
    }

    impl EnumerableProtocol for BrokenCoupled {
        fn num_states(&self) -> usize {
            2
        }
        fn state_index(&self, s: u8) -> usize {
            s as usize
        }
        fn state_at(&self, i: usize) -> u8 {
            i as u8
        }
        fn kernel_depends_on_counts(&self) -> bool {
            true
        }
        fn pair_kernel_at(
            &self,
            _i: usize,
            j: usize,
            freq: &[f64],
        ) -> Option<Vec<((usize, usize), f64)>> {
            Some(vec![((0, j), 1.0 + freq[0])])
        }
    }

    #[test]
    fn count_coupled_construction_validates_the_declared_law() {
        assert!(matches!(
            BatchedEngine::from_counts(BrokenCoupled, vec![4, 4]).unwrap_err(),
            PopulationError::InvalidArgument { .. }
        ));
    }

    #[test]
    fn recorded_runs_match_unrecorded_runs_bitwise() {
        use crate::trajectory::TrajectoryRecorder;
        let mut plain = BatchedEngine::from_counts(Cyclic, vec![40, 30, 30]).unwrap();
        let mut rng = rng_from_seed(17);
        plain.run_batched(10_000, 16, &mut rng).unwrap();

        let mut recorded = BatchedEngine::from_counts(Cyclic, vec![40, 30, 30]).unwrap();
        let mut rng = rng_from_seed(17);
        let mut rec = TrajectoryRecorder::new(32).unwrap();
        recorded.run_recorded(10_000, 16, &mut rng, &mut rec).unwrap();

        // The recorder draws no randomness: identical final counts.
        assert_eq!(plain.counts(), recorded.counts());
        assert_eq!(plain.interactions(), recorded.interactions());
        // Capture is bounded, spans the run, and conserves agents.
        let points = rec.points();
        assert!(points.len() >= 2 && points.len() <= 32, "{}", points.len());
        assert_eq!(points.first().unwrap().interactions, 0);
        assert_eq!(points.last().unwrap().interactions, 10_000);
        for p in points {
            assert_eq!(p.counts.iter().sum::<u64>(), 100);
        }
    }

    #[test]
    fn round_trip_through_counted_population() {
        let pop = CountedPopulation::from_counts(vec![5, 5]).unwrap();
        let mut engine = BatchedEngine::new(Epidemic, pop).unwrap();
        let mut rng = rng_from_seed(5);
        engine.run_batched(100, 8, &mut rng).unwrap();
        let back = engine.into_population();
        assert_eq!(back.interactions(), 100);
        assert_eq!(back.len(), 10);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        assert!(BatchedEngine::from_counts(Epidemic, vec![5, 5, 5]).is_err());
    }

    proptest! {
        /// Batch sizes 1, n, and 10n all conserve the total agent count.
        #[test]
        fn prop_batches_conserve_agents(
            healthy in 1u64..60,
            infected in 1u64..60,
            seed in 0u64..50,
            scale in 0usize..3,
        ) {
            let n = healthy + infected;
            let batch = [1, n, 10 * n][scale];
            let mut engine = BatchedEngine::from_counts(
                Epidemic,
                vec![healthy, infected],
            ).unwrap();
            let mut rng = rng_from_seed(seed);
            engine.run_batched(3 * n, batch, &mut rng).unwrap();
            prop_assert_eq!(engine.counts().iter().sum::<u64>(), n);
            prop_assert_eq!(engine.interactions(), 3 * n);
        }

        /// Kernel-driven leaps conserve agents across batch sizes.
        #[test]
        fn prop_kernel_leaps_conserve_agents(
            a in 1u64..40,
            b in 1u64..40,
            c in 1u64..40,
            seed in 0u64..50,
            scale in 0usize..3,
        ) {
            let n = a + b + c;
            let batch = [1, n, 10 * n][scale];
            let mut engine =
                BatchedEngine::from_counts(DeclaredRandomFlip, vec![a, b, c]).unwrap();
            let mut rng = rng_from_seed(seed);
            engine.run_batched(4 * n, batch, &mut rng).unwrap();
            prop_assert_eq!(engine.counts().iter().sum::<u64>(), n);
            prop_assert_eq!(engine.interactions(), 4 * n);
        }

        /// Count-coupled dynamic-kernel leaps conserve agents across batch
        /// sizes (the kernel is rebuilt per leap and per exact step).
        #[test]
        fn prop_count_coupled_conserves_agents(
            a in 1u64..40,
            b in 1u64..40,
            seed in 0u64..50,
            scale in 0usize..3,
        ) {
            let n = a + b;
            let batch = [1, n, 10 * n][scale];
            let mut engine =
                BatchedEngine::from_counts(FieldContagion, vec![a, b]).unwrap();
            let mut rng = rng_from_seed(seed);
            engine.run_batched(4 * n, batch, &mut rng).unwrap();
            prop_assert_eq!(engine.counts().iter().sum::<u64>(), n);
            prop_assert_eq!(engine.interactions(), 4 * n);
        }

        /// Two-way protocols conserve agents under large batches: both
        /// halves of each tabulated update land in the deltas.
        #[test]
        fn prop_two_way_conserves_agents(
            a in 1u64..30,
            b in 1u64..30,
            c in 1u64..30,
            seed in 0u64..50,
        ) {
            let n = a + b + c;
            let mut engine =
                BatchedEngine::from_counts(MaxConsensus, vec![a, b, c]).unwrap();
            let mut rng = rng_from_seed(seed);
            engine.run_batched(4 * n, n, &mut rng).unwrap();
            prop_assert_eq!(engine.counts().iter().sum::<u64>(), n);
            // Max-consensus absorbs at the largest initially-present state.
            prop_assert!(engine.counts()[2] >= c);
        }

        /// The cyclic protocol (every cell active) conserves agents across
        /// batches too, exercising the overdraw split.
        #[test]
        fn prop_cyclic_conserves_under_large_batches(
            a in 1u64..30,
            b in 1u64..30,
            c in 1u64..30,
            seed in 0u64..50,
        ) {
            let n = a + b + c;
            let mut engine =
                BatchedEngine::from_counts(Cyclic, vec![a, b, c]).unwrap();
            let mut rng = rng_from_seed(seed);
            engine.run_batched(5 * n, n, &mut rng).unwrap();
            prop_assert_eq!(engine.counts().iter().sum::<u64>(), n);
        }

        /// After any randomized walk of single-agent moves, a table
        /// maintained through `refresh_at` with the deps-derived dirty
        /// mask is bitwise identical to a fresh `build_at` — including
        /// the derived sampler arrays (`active_mass`, `nid_*`), which
        /// the manual `PartialEq` deliberately skips. Run against both
        /// the sparse-deps protocol and the conservative-`All` one.
        #[test]
        fn prop_incremental_refresh_matches_full_rebuild(
            seed in 0u64..150,
            moves in 1usize..24,
            sparse_flag in 0u8..2,
        ) {
            let sparse = sparse_flag == 1;
            let k = if sparse { 4usize } else { 2 };
            let mut counts = if sparse {
                vec![6u64, 4, 3, 3]
            } else {
                vec![9u64, 7]
            };
            let n: u64 = counts.iter().sum();
            let freq_of = |counts: &[u64]| -> Vec<f64> {
                counts.iter().map(|&c| c as f64 / n as f64).collect()
            };
            let build = |freq: &[f64]| {
                if sparse {
                    KernelTable::build_at(&LocalDrift, freq)
                } else {
                    KernelTable::build_at(&FieldContagion, freq)
                }
                .unwrap()
                .unwrap()
            };
            let mut table = build(&freq_of(&counts));
            let mut rng = rng_from_seed(seed);
            let mut scratch = Vec::new();
            for _ in 0..moves {
                let from = rng.gen_range(0..k);
                let to = rng.gen_range(0..k);
                if from == to || counts[from] == 0 {
                    continue;
                }
                counts[from] -= 1;
                counts[to] += 1;
                let mut changed = vec![false; k];
                changed[from] = true;
                changed[to] = true;
                let freq = freq_of(&counts);
                let dirty = if sparse {
                    deps_dirty_mask(&LocalDrift, &changed)
                } else {
                    deps_dirty_mask(&FieldContagion, &changed)
                };
                if sparse {
                    table.refresh_at(&LocalDrift, &freq, &dirty, &mut scratch)
                } else {
                    table.refresh_at(&FieldContagion, &freq, &dirty, &mut scratch)
                }
                .unwrap();
                let rebuilt = build(&freq);
                prop_assert_eq!(&table, &rebuilt);
                let bits =
                    |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&table.active_mass), bits(&rebuilt.active_mass));
                prop_assert_eq!(&table.nid_start, &rebuilt.nid_start);
                prop_assert_eq!(&table.nid_ab, &rebuilt.nid_ab);
                prop_assert_eq!(bits(&table.nid_cum), bits(&rebuilt.nid_cum));
            }
        }

        /// Alias stepping and reference stepping agree on monotonicity of
        /// the epidemic (infected never decreases) and conservation.
        #[test]
        fn prop_alias_step_invariants(seed in 0u64..80) {
            let mut engine =
                BatchedEngine::from_counts(Epidemic, vec![12, 3]).unwrap();
            let mut rng = rng_from_seed(seed);
            let mut prev = engine.counts()[1];
            for _ in 0..150 {
                engine.step(&mut rng);
                let now = engine.counts()[1];
                prop_assert!(now >= prev);
                prop_assert_eq!(engine.counts().iter().sum::<u64>(), 15);
                prev = now;
            }
        }
    }
}
