//! Self-tuning engine selection: pick the fastest modmul path per
//! modulus the way a JIT picks a code path.
//!
//! The registry holds eight engines whose relative speed shifts with
//! bit-width, modulus parity, and batch shape, yet a classic
//! [`ContextPool`](crate::dispatch::ContextPool) is pinned to one engine
//! ctor chosen by the caller. This module makes the choice automatic:
//!
//! - [`EngineProfile`] — a measured `(bit_width, parity, engine)` →
//!   ns/mul table, serialisable to/from `results/engine_profile.json`
//!   with the vendored `serde_json` shim, so one process's calibration
//!   work is the next process's warm start.
//! - [`TunePolicy`] — `Pinned` (today's behaviour), `Profile` (consult
//!   the table, fall back to the engines' closed-form `CycleModel`
//!   ranking when cold), and `Race` (micro-race the candidates on a
//!   deterministic calibration batch at prepare time, amortization
//!   guarded, feeding measurements back into the profile).
//! - [`AutoTuner`] — the `Send + Sync` decision engine a pool plugs in
//!   via [`ContextPool::auto`](crate::dispatch::ContextPool::auto). It
//!   remembers every per-modulus decision independently of the pool's
//!   context cache, so LRU eviction never discards what was learned: a
//!   re-prepared modulus re-prepares the remembered winner and skips
//!   the race.
//!
//! Candidate enumeration respects parity constraints
//! ([`engine_candidates_for`]): the Montgomery family never races an
//! even modulus. The `direct` oracle is excluded from tuning — it
//! corresponds to no hardware design and instead supplies the expected
//! results every calibration pass is checked against.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use modsram_bigint::UBig;
use modsram_modmul::{
    engine_by_name, engine_candidates_for, engine_supports_modulus, modelled_cycles_by_name,
    ModMulError, PreparedModMul,
};
use serde_json::Value;

/// Timed repetitions per candidate in a calibration race; the best of
/// the repetitions is recorded, so one scheduling hiccup cannot crown
/// the wrong engine.
pub const RACE_REPS: usize = 2;

/// Default calibration batch size for [`TunePolicy::race`].
pub const DEFAULT_CALIB_PAIRS: usize = 32;

/// Default amortization budget for [`TunePolicy::race`]: the race is
/// skipped unless its multiplication count fits this many serving
/// multiplications.
pub const DEFAULT_REPAY_MULTS: u64 = 100_000;

/// Modulus parity — one axis of the profile key, because the candidate
/// set differs (Montgomery requires odd) and so do the winners.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Parity {
    /// Odd modulus: every registry engine is a candidate.
    Odd,
    /// Even modulus: the Montgomery family is excluded.
    Even,
}

impl Parity {
    /// The parity of `p` (zero counts as even; preparation will reject
    /// it before parity ever matters).
    pub fn of(p: &UBig) -> Self {
        if p.is_even() {
            Parity::Even
        } else {
            Parity::Odd
        }
    }

    /// Stable lowercase label used in JSON artifacts.
    pub fn label(self) -> &'static str {
        match self {
            Parity::Odd => "odd",
            Parity::Even => "even",
        }
    }

    /// Parses [`Parity::label`] output.
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "odd" => Some(Parity::Odd),
            "even" => Some(Parity::Even),
            _ => None,
        }
    }
}

/// One measured profile cell: the running-average ns per multiplication
/// observed for an engine at a `(bit_width, parity)` point, plus the
/// engine's modelled cycles there for model-vs-measurement comparisons.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSample {
    /// Running-average wall nanoseconds per multiplication.
    pub ns_per_mul: f64,
    /// Closed-form `CycleModel` cycles at this width (`None` for
    /// engines with no hardware model).
    pub modelled_cycles: Option<u64>,
    /// Number of calibration measurements averaged in.
    pub samples: u64,
}

/// The measured `(bit_width, parity, engine)` → ns/mul table.
///
/// Deterministically ordered (`BTreeMap`) so serialisation and best-of
/// lookups are stable across runs — the `Profile` policy with a fixed
/// table always picks the same engine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineProfile {
    entries: BTreeMap<(usize, Parity, String), ProfileSample>,
}

impl EngineProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of measured cells.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been measured or loaded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Folds one measurement into the running average for
    /// `(bits, parity, engine)`.
    pub fn record(&mut self, bits: usize, parity: Parity, engine: &str, ns_per_mul: f64) {
        let cell = self
            .entries
            .entry((bits, parity, engine.to_string()))
            .or_insert(ProfileSample {
                ns_per_mul: 0.0,
                modelled_cycles: modelled_cycles_by_name(engine, bits),
                samples: 0,
            });
        let n = cell.samples as f64;
        cell.ns_per_mul = (cell.ns_per_mul * n + ns_per_mul) / (n + 1.0);
        cell.samples += 1;
    }

    /// The measured cell for `(bits, parity, engine)`, if any.
    pub fn sample(&self, bits: usize, parity: Parity, engine: &str) -> Option<&ProfileSample> {
        self.entries.get(&(bits, parity, engine.to_string()))
    }

    /// `true` when every candidate has a measurement at
    /// `(bits, parity)` — the point where racing stops paying.
    pub fn covers_all(&self, bits: usize, parity: Parity, candidates: &[&str]) -> bool {
        candidates
            .iter()
            .all(|c| self.sample(bits, parity, c).is_some())
    }

    /// The measured-fastest candidate at `(bits, parity)`, or `None`
    /// when no candidate has a measurement. Ties keep the earlier
    /// candidate, so the answer is deterministic for a fixed table.
    pub fn best(&self, bits: usize, parity: Parity, candidates: &[&str]) -> Option<String> {
        let mut best: Option<(&str, f64)> = None;
        for c in candidates {
            if let Some(cell) = self.sample(bits, parity, c) {
                if best.is_none_or(|(_, ns)| cell.ns_per_mul < ns) {
                    best = Some((c, cell.ns_per_mul));
                }
            }
        }
        best.map(|(name, _)| name.to_string())
    }

    /// Serialises the table as a `serde_json` shim [`Value`].
    pub fn to_json(&self) -> Value {
        let entries: Vec<Value> = self
            .entries
            .iter()
            .map(|((bits, parity, engine), cell)| {
                Value::Object(vec![
                    ("bits".to_string(), Value::Int(*bits as i128)),
                    (
                        "parity".to_string(),
                        Value::String(parity.label().to_string()),
                    ),
                    ("engine".to_string(), Value::String(engine.clone())),
                    ("ns_per_mul".to_string(), Value::Float(cell.ns_per_mul)),
                    (
                        "modelled_cycles".to_string(),
                        match cell.modelled_cycles {
                            Some(c) => Value::Int(c as i128),
                            None => Value::Null,
                        },
                    ),
                    ("samples".to_string(), Value::Int(cell.samples as i128)),
                ])
            })
            .collect();
        Value::Object(vec![
            (
                "schema".to_string(),
                Value::String("modsram-engine-profile/v1".to_string()),
            ),
            ("entries".to_string(), Value::Array(entries)),
        ])
    }

    /// Rebuilds a profile from [`EngineProfile::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let entries = value
            .get("entries")
            .and_then(Value::as_array)
            .ok_or("profile document has no `entries` array")?;
        let mut profile = EngineProfile::new();
        for (i, entry) in entries.iter().enumerate() {
            let field = |name: &str| {
                entry
                    .get(name)
                    .ok_or_else(|| format!("entry {i} is missing `{name}`"))
            };
            let bits = field("bits")?
                .as_u64()
                .ok_or_else(|| format!("entry {i}: `bits` is not an integer"))?
                as usize;
            let parity = field("parity")?
                .as_str()
                .and_then(Parity::from_label)
                .ok_or_else(|| format!("entry {i}: `parity` is not odd/even"))?;
            let engine = field("engine")?
                .as_str()
                .ok_or_else(|| format!("entry {i}: `engine` is not a string"))?
                .to_string();
            let ns_per_mul = field("ns_per_mul")?
                .as_f64()
                .ok_or_else(|| format!("entry {i}: `ns_per_mul` is not a number"))?;
            let samples = entry.get("samples").and_then(Value::as_u64).unwrap_or(1);
            let modelled_cycles = entry.get("modelled_cycles").and_then(Value::as_u64);
            profile.entries.insert(
                (bits, parity, engine),
                ProfileSample {
                    ns_per_mul,
                    modelled_cycles,
                    samples: samples.max(1),
                },
            );
        }
        Ok(profile)
    }

    /// Writes the profile to `path` as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        if let Some(dir) = path.as_ref().parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let text = serde_json::to_string_pretty(&self.to_json())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(path, text)
    }

    /// Reads a profile previously written by [`EngineProfile::save`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; malformed JSON or a malformed
    /// table maps to [`io::ErrorKind::InvalidData`].
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let value = serde_json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Self::from_json(&value).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// How an autotuning pool decides which engine serves a modulus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TunePolicy {
    /// Always the named registry engine — today's pinned behaviour,
    /// expressed through the same machinery so stats stay comparable.
    Pinned(String),
    /// Consult the profile table; when the `(bits, parity)` point is
    /// cold, fall back to the engines' closed-form `CycleModel`
    /// ranking. Never spends time measuring.
    Profile,
    /// Micro-race the parity-legal candidates on a deterministic
    /// calibration batch at prepare time, and feed the measurements
    /// back into the profile so later moduli at the same
    /// `(bits, parity)` skip the race.
    Race {
        /// Calibration `(a, b)` pairs per candidate per repetition.
        calib_pairs: usize,
        /// Amortization guard: skip the race (falling back to the
        /// `Profile` decision path) unless the race's total
        /// multiplication count — `candidates × calib_pairs ×`
        /// [`RACE_REPS`] — fits within this many serving
        /// multiplications.
        repay_mults: u64,
    },
}

impl TunePolicy {
    /// A `Pinned` policy for the named engine.
    pub fn pinned(name: impl Into<String>) -> Self {
        TunePolicy::Pinned(name.into())
    }

    /// A `Race` policy with the default calibration size and
    /// amortization budget.
    pub fn race() -> Self {
        TunePolicy::Race {
            calib_pairs: DEFAULT_CALIB_PAIRS,
            repay_mults: DEFAULT_REPAY_MULTS,
        }
    }

    /// Stable label used in stats and artifacts.
    pub fn label(&self) -> String {
        match self {
            TunePolicy::Pinned(name) => format!("pinned:{name}"),
            TunePolicy::Profile => "profile".to_string(),
            TunePolicy::Race { .. } => "race".to_string(),
        }
    }
}

/// A point-in-time snapshot of an [`AutoTuner`]'s counters, surfaced
/// through `ServiceStats`/`ClusterStats`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AutotuneStats {
    /// Active policy label ([`TunePolicy::label`]).
    pub policy: String,
    /// Distinct moduli with a committed engine choice.
    pub tuned_moduli: u64,
    /// Calibration races actually run.
    pub races_run: u64,
    /// Races skipped by the amortization guard.
    pub races_skipped: u64,
    /// Total wall nanoseconds spent in calibration races.
    pub calibration_ns: u64,
    /// Pool evictions that hit a tuned modulus (the learned choice
    /// survived; only the prepared context was dropped).
    pub evicted_tuned: u64,
    /// Committed choices later moved by production-traffic evidence
    /// ([`AutoTuner::adopt_choice`]).
    pub refinements: u64,
    /// Per-engine win counters, sorted by engine name.
    pub engine_wins: Vec<(String, u64)>,
}

impl AutotuneStats {
    /// Folds another tuner's counters into this snapshot — used by
    /// cluster aggregation when tiles run *distinct* tuners. Policies
    /// that differ collapse to `"mixed"`.
    pub fn merge(&mut self, other: &AutotuneStats) {
        if self.policy != other.policy {
            self.policy = "mixed".to_string();
        }
        self.tuned_moduli += other.tuned_moduli;
        self.races_run += other.races_run;
        self.races_skipped += other.races_skipped;
        self.calibration_ns += other.calibration_ns;
        self.evicted_tuned += other.evicted_tuned;
        self.refinements += other.refinements;
        let mut wins: BTreeMap<String, u64> = self.engine_wins.drain(..).collect();
        for (engine, n) in &other.engine_wins {
            *wins.entry(engine.clone()).or_insert(0) += n;
        }
        self.engine_wins = wins.into_iter().collect();
    }
}

/// The `Send + Sync` decision engine behind
/// [`ContextPool::auto`](crate::dispatch::ContextPool::auto).
///
/// Per-modulus decisions live in the tuner, not the pool cache, so a
/// capacity-bounded pool can evict and re-prepare a modulus without
/// ever re-racing it. One tuner may back several pools — a
/// `ServiceCluster` shares a single tuner across its tiles so every
/// tile benefits from every tile's calibration.
pub struct AutoTuner {
    policy: TunePolicy,
    profile: Mutex<EngineProfile>,
    chosen: Mutex<HashMap<UBig, String>>,
    wins: Mutex<BTreeMap<String, u64>>,
    races_run: AtomicU64,
    races_skipped: AtomicU64,
    calibration_ns: AtomicU64,
    evicted_tuned: AtomicU64,
    refinements: AtomicU64,
}

impl std::fmt::Debug for AutoTuner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        write!(
            f,
            "AutoTuner {{ policy: {}, tuned_moduli: {}, races_run: {}, races_skipped: {} }}",
            stats.policy, stats.tuned_moduli, stats.races_run, stats.races_skipped
        )
    }
}

impl AutoTuner {
    /// A tuner with an empty (cold) profile.
    pub fn new(policy: TunePolicy) -> Self {
        Self::with_profile(policy, EngineProfile::new())
    }

    /// A tuner warm-started from an existing profile table (e.g. loaded
    /// from `results/engine_profile.json`).
    pub fn with_profile(policy: TunePolicy, profile: EngineProfile) -> Self {
        AutoTuner {
            policy,
            profile: Mutex::new(profile),
            chosen: Mutex::new(HashMap::new()),
            wins: Mutex::new(BTreeMap::new()),
            races_run: AtomicU64::new(0),
            races_skipped: AtomicU64::new(0),
            calibration_ns: AtomicU64::new(0),
            evicted_tuned: AtomicU64::new(0),
            refinements: AtomicU64::new(0),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &TunePolicy {
        &self.policy
    }

    /// The engines eligible to serve `p`: the parity-legal registry
    /// candidates minus the `direct` oracle, which corresponds to no
    /// hardware design and is reserved for checking results.
    pub fn tunable_candidates(p: &UBig) -> Vec<&'static str> {
        engine_candidates_for(p)
            .into_iter()
            .filter(|n| *n != "direct")
            .collect()
    }

    /// The candidate with the cheapest closed-form `CycleModel` at
    /// `bits` (ties keep the earlier candidate; engines with no model
    /// never win). This is the cold-table fallback.
    pub fn model_rank(bits: usize, candidates: &[&str]) -> Option<String> {
        candidates
            .iter()
            .min_by_key(|n| modelled_cycles_by_name(n, bits).unwrap_or(u64::MAX))
            .map(|n| n.to_string())
    }

    /// The engine already committed for `p`, if any.
    pub fn chosen_engine(&self, p: &UBig) -> Option<String> {
        self.chosen
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(p)
            .cloned()
    }

    /// A snapshot of the current profile table.
    pub fn profile_snapshot(&self) -> EngineProfile {
        self.profile
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Counter snapshot for `ServiceStats`/`ClusterStats`.
    pub fn stats(&self) -> AutotuneStats {
        AutotuneStats {
            policy: self.policy.label(),
            tuned_moduli: self
                .chosen
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len() as u64,
            races_run: self.races_run.load(Ordering::Relaxed),
            races_skipped: self.races_skipped.load(Ordering::Relaxed),
            calibration_ns: self.calibration_ns.load(Ordering::Relaxed),
            evicted_tuned: self.evicted_tuned.load(Ordering::Relaxed),
            refinements: self.refinements.load(Ordering::Relaxed),
            engine_wins: self
                .wins
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        }
    }

    /// Called by a capacity-bounded pool when it evicts `p`'s context.
    /// The learned choice is deliberately kept — only the counter
    /// moves, so the eviction is visible in stats.
    pub fn note_eviction(&self, p: &UBig) {
        if self
            .chosen
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(p)
        {
            self.evicted_tuned.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Feeds a production-measured data point into the profile table
    /// (running average with the calibration samples), so
    /// `TunePolicy::Profile` ranks future cold shapes on real traffic,
    /// not just the small calibration batches.
    pub fn observe(&self, p: &UBig, engine: &str, ns_per_mul: f64) {
        self.profile
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record(p.bit_len(), Parity::of(p), engine, ns_per_mul);
    }

    /// Moves the committed choice for `p` to `engine` — the
    /// continuous-tuning hook. A calibration race decides on a small
    /// batch; when production-shaped traffic measures a different
    /// winner (near-tied engines flip with batch shape), the caller
    /// reports the evidence and the tuner follows it. Returns `false`
    /// without changing anything under `Pinned` or for an engine that
    /// cannot serve `p`'s parity; re-adopting the current choice
    /// returns `true` without counting a refinement.
    pub fn adopt_choice(&self, p: &UBig, engine: &str) -> bool {
        if matches!(self.policy, TunePolicy::Pinned(_)) || !engine_supports_modulus(engine, p) {
            return false;
        }
        let mut chosen = self.chosen.lock().unwrap_or_else(PoisonError::into_inner);
        let prev = chosen.insert(p.clone(), engine.to_string());
        if prev.as_deref() == Some(engine) {
            return true;
        }
        let mut wins = self.wins.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(prev) = prev {
            if let Some(n) = wins.get_mut(&prev) {
                *n = n.saturating_sub(1);
            }
        }
        *wins.entry(engine.to_string()).or_insert(0) += 1;
        self.refinements.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Decides (or recalls) the engine for `p` and prepares its
    /// context. This is the preparer an autotuning pool installs.
    ///
    /// # Errors
    ///
    /// Propagates preparation errors; a calibration result that
    /// disagrees with the `direct` oracle maps to
    /// [`ModMulError::Backend`].
    pub fn prepare(&self, p: &UBig) -> Result<Box<dyn PreparedModMul>, ModMulError> {
        if let Some(name) = self.chosen_engine(p) {
            // Eviction survivor: re-prepare the remembered winner, no
            // new race, no new win counted.
            return prepare_named(&name, p);
        }
        let (name, ctx) = match &self.policy {
            TunePolicy::Pinned(name) => (name.clone(), prepare_named(name, p)?),
            TunePolicy::Profile => {
                let name = self.table_choice(p)?;
                let ctx = prepare_named(&name, p)?;
                (name, ctx)
            }
            TunePolicy::Race {
                calib_pairs,
                repay_mults,
            } => self.race_or_table(p, *calib_pairs, *repay_mults)?,
        };
        self.commit_choice(p, &name);
        Ok(ctx)
    }

    /// The `Profile` decision path: measured best, else model ranking.
    fn table_choice(&self, p: &UBig) -> Result<String, ModMulError> {
        let candidates = Self::tunable_candidates(p);
        let bits = p.bit_len();
        let parity = Parity::of(p);
        let table_best = self
            .profile
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .best(bits, parity, &candidates);
        table_best
            .or_else(|| Self::model_rank(bits, &candidates))
            .ok_or_else(|| ModMulError::Backend {
                reason: format!("no candidate engine for modulus of {bits} bits"),
            })
    }

    /// The `Race` decision path: race when the table is cold at
    /// `(bits, parity)` and the amortization guard allows it; otherwise
    /// fall back to the `Profile` path.
    fn race_or_table(
        &self,
        p: &UBig,
        calib_pairs: usize,
        repay_mults: u64,
    ) -> Result<(String, Box<dyn PreparedModMul>), ModMulError> {
        let candidates = Self::tunable_candidates(p);
        let bits = p.bit_len();
        let parity = Parity::of(p);
        let warm = self
            .profile
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .covers_all(bits, parity, &candidates);
        let race_mults = (candidates.len() * calib_pairs.max(1) * RACE_REPS) as u64;
        if warm || race_mults > repay_mults {
            if !warm {
                self.races_skipped.fetch_add(1, Ordering::Relaxed);
            }
            let name = self.table_choice(p)?;
            let ctx = prepare_named(&name, p)?;
            return Ok((name, ctx));
        }
        self.race(p, calib_pairs.max(1), &candidates)
    }

    /// Runs the calibration race: every candidate executes the same
    /// deterministic batch, every result is checked against the
    /// `direct` oracle, best-of-[`RACE_REPS`] ns/mul is folded into the
    /// profile, and the fastest candidate's context is returned.
    fn race(
        &self,
        p: &UBig,
        calib_pairs: usize,
        candidates: &[&str],
    ) -> Result<(String, Box<dyn PreparedModMul>), ModMulError> {
        let race_start = Instant::now();
        let pairs = calibration_pairs(p, calib_pairs);
        let expected: Vec<UBig> = pairs.iter().map(|(a, b)| &(a * b) % p).collect();
        let mut winner: Option<(String, Box<dyn PreparedModMul>, f64)> = None;
        for name in candidates {
            let ctx = prepare_named(name, p)?;
            let mut best_ns = f64::INFINITY;
            for _ in 0..RACE_REPS {
                let t0 = Instant::now();
                let out = ctx.mod_mul_batch(&pairs)?;
                let elapsed = t0.elapsed().as_nanos() as f64;
                if out != expected {
                    return Err(ModMulError::Backend {
                        reason: format!(
                            "calibration oracle mismatch: engine '{name}' disagrees with direct"
                        ),
                    });
                }
                best_ns = best_ns.min(elapsed);
            }
            let ns_per_mul = best_ns / pairs.len() as f64;
            self.profile
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .record(p.bit_len(), Parity::of(p), name, ns_per_mul);
            let beats = winner.as_ref().is_none_or(|(_, _, ns)| ns_per_mul < *ns);
            if beats {
                winner = Some((name.to_string(), ctx, ns_per_mul));
            }
        }
        self.races_run.fetch_add(1, Ordering::Relaxed);
        self.calibration_ns
            .fetch_add(race_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let (name, ctx, _) = winner.ok_or_else(|| ModMulError::Backend {
            reason: "calibration race had no candidates".to_string(),
        })?;
        Ok((name, ctx))
    }

    /// Records the first decision for `p`; concurrent racers agree on
    /// whoever commits first, and the win counter moves exactly once
    /// per modulus.
    fn commit_choice(&self, p: &UBig, name: &str) {
        let mut chosen = self.chosen.lock().unwrap_or_else(PoisonError::into_inner);
        if chosen.contains_key(p) {
            return;
        }
        chosen.insert(p.clone(), name.to_string());
        drop(chosen);
        *self
            .wins
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_insert(0) += 1;
    }
}

/// Prepares the named registry engine for `p`.
fn prepare_named(name: &str, p: &UBig) -> Result<Box<dyn PreparedModMul>, ModMulError> {
    engine_by_name(name)
        .ok_or_else(|| ModMulError::Backend {
            reason: format!("unknown engine '{name}'"),
        })?
        .prepare(p)
}

/// The deterministic calibration batch for `p`: operands are seeded
/// from the modulus limbs (same modulus → same batch, no RNG state),
/// reduced mod `p`, with multiplicand-reuse runs of 8 mirroring the
/// coalesced traffic of the service's batches — so
/// LUT-refill-sensitive engines are measured on representative
/// traffic.
pub fn calibration_pairs(p: &UBig, count: usize) -> Vec<(UBig, UBig)> {
    let mut seed = 0x9e37_79b9_7f4a_7c15u64 ^ (p.bit_len() as u64);
    for &limb in p.limbs() {
        seed = seed
            .rotate_left(7)
            .wrapping_add(limb.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    }
    if seed == 0 {
        seed = 1;
    }
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let limb_count = p.limbs().len().max(1);
    let below_p = |next: &mut dyn FnMut() -> u64| {
        let limbs: Vec<u64> = (0..limb_count).map(|_| next()).collect();
        &UBig::from_limbs(limbs) % p
    };
    let mut pairs = Vec::with_capacity(count);
    let mut b = below_p(&mut next);
    for i in 0..count {
        if i % 8 == 0 {
            b = below_p(&mut next);
        }
        let a = below_p(&mut next);
        pairs.push((a, b.clone()));
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn odd_modulus() -> UBig {
        UBig::from(0xffff_ffff_ffff_ffc5u64) // largest 64-bit prime
    }

    #[test]
    fn parity_candidates_respect_montgomery() {
        let odd = AutoTuner::tunable_candidates(&odd_modulus());
        assert!(odd.contains(&"montgomery"));
        assert!(!odd.contains(&"direct"));
        let even = AutoTuner::tunable_candidates(&UBig::from(0xffff_ffff_ffff_ffc4u64));
        assert!(!even.contains(&"montgomery"));
        assert!(even.contains(&"barrett"));
    }

    #[test]
    fn model_rank_never_picks_unmodelled() {
        let name = AutoTuner::model_rank(256, &["direct", "barrett"]).unwrap();
        assert_eq!(name, "barrett");
    }

    #[test]
    fn calibration_batch_is_deterministic_and_reduced() {
        let p = odd_modulus();
        let a = calibration_pairs(&p, 24);
        let b = calibration_pairs(&p, 24);
        assert_eq!(a, b);
        assert!(a.iter().all(|(x, y)| *x < p && *y < p));
        // Multiplicand reuse runs of 8.
        assert_eq!(a[0].1, a[7].1);
        assert_ne!(a[0].1, a[8].1);
    }

    #[test]
    fn race_commits_once_and_survives_eviction() {
        let tuner = AutoTuner::new(TunePolicy::Race {
            calib_pairs: 8,
            repay_mults: 1_000_000,
        });
        let p = odd_modulus();
        tuner.prepare(&p).unwrap();
        let first = tuner.chosen_engine(&p).unwrap();
        let races = tuner.stats().races_run;
        assert_eq!(races, 1);
        tuner.note_eviction(&p);
        tuner.prepare(&p).unwrap();
        assert_eq!(
            tuner.stats().races_run,
            races,
            "re-prepare must not re-race"
        );
        assert_eq!(tuner.chosen_engine(&p).unwrap(), first);
        assert_eq!(tuner.stats().evicted_tuned, 1);
        assert_eq!(tuner.stats().tuned_moduli, 1);
    }

    #[test]
    fn amortization_guard_skips_unaffordable_races() {
        let tuner = AutoTuner::new(TunePolicy::Race {
            calib_pairs: 64,
            repay_mults: 10, // race would cost far more than 10 mults
        });
        let p = odd_modulus();
        tuner.prepare(&p).unwrap();
        let stats = tuner.stats();
        assert_eq!(stats.races_run, 0);
        assert_eq!(stats.races_skipped, 1);
        // Cold table + skipped race → model ranking (Barrett's 3w²+2
        // is the cheapest closed form at every width).
        assert_eq!(tuner.chosen_engine(&p).unwrap(), "barrett");
    }

    #[test]
    fn race_warms_into_profile_for_same_shape() {
        let tuner = AutoTuner::new(TunePolicy::Race {
            calib_pairs: 8,
            repay_mults: 1_000_000,
        });
        let p1 = odd_modulus();
        let p2 = UBig::from(0xffff_ffff_ffff_ff71u64); // odd, same bit width
        assert_eq!(p1.bit_len(), p2.bit_len());
        tuner.prepare(&p1).unwrap();
        assert_eq!(tuner.stats().races_run, 1);
        tuner.prepare(&p2).unwrap();
        assert_eq!(
            tuner.stats().races_run,
            1,
            "second modulus at a measured (bits, parity) must reuse the table"
        );
        assert_eq!(tuner.stats().tuned_moduli, 2);
    }

    #[test]
    fn profile_json_round_trips() {
        let mut profile = EngineProfile::new();
        profile.record(256, Parity::Odd, "montgomery", 812.5);
        profile.record(256, Parity::Odd, "montgomery", 787.5); // running average
        profile.record(64, Parity::Even, "carryfree", 91.0);
        let round = EngineProfile::from_json(&profile.to_json()).unwrap();
        assert_eq!(round, profile);
        let cell = round.sample(256, Parity::Odd, "montgomery").unwrap();
        assert_eq!(cell.samples, 2);
        assert!((cell.ns_per_mul - 800.0).abs() < 1e-9);
    }

    #[test]
    fn profile_best_is_deterministic() {
        let mut profile = EngineProfile::new();
        profile.record(256, Parity::Odd, "montgomery", 100.0);
        profile.record(256, Parity::Odd, "barrett", 100.0); // exact tie
        profile.record(256, Parity::Odd, "r4csa-lut", 250.0);
        let candidates = ["barrett", "montgomery", "r4csa-lut"];
        for _ in 0..4 {
            assert_eq!(
                profile.best(256, Parity::Odd, &candidates).unwrap(),
                "barrett",
                "ties keep the earlier candidate"
            );
        }
    }

    #[test]
    fn pinned_policy_counts_wins() {
        let tuner = AutoTuner::new(TunePolicy::pinned("r4csa-lut"));
        tuner.prepare(&odd_modulus()).unwrap();
        let stats = tuner.stats();
        assert_eq!(stats.engine_wins, vec![("r4csa-lut".to_string(), 1)]);
        assert_eq!(stats.policy, "pinned:r4csa-lut");
    }

    #[test]
    fn oracle_check_runs_on_every_calibration() {
        // An even modulus exercises the reduced candidate set end to
        // end; the race must still agree with direct everywhere.
        let tuner = AutoTuner::new(TunePolicy::race());
        let p = UBig::from(0xffff_ffff_ffff_ffc4u64);
        let ctx = tuner.prepare(&p).unwrap();
        let pairs = calibration_pairs(&p, 8);
        for (a, b) in &pairs {
            assert_eq!(ctx.mod_mul(a, b).unwrap(), &(a * b) % &p);
        }
        assert!(!tuner
            .chosen_engine(&p)
            .unwrap()
            .eq_ignore_ascii_case("montgomery"));
    }
}
