//! The cluster's one routing decision, as pure functions: no lock, no
//! atomic. Every placement — per-job and bulk submission, spill,
//! `ServiceCluster::home_tile` and re-home accounting — is computed
//! here from a [`Fleet`] (state and weight per tile), a [`Health`]
//! view (which tiles are usable), the modulus key and the
//! [`SpillPolicy`]. The live cluster gathers those inputs and applies
//! the answer, so placement can be tested without threads.
//!
//! **The probe rule.** Reading a tile's health takes its queue lock,
//! so [`Health`] probes each tile at most once per decision, on first
//! need: [`route`] stops at the first usable tile in rank order, and
//! [`spill`] probes the tiles ranked after it only after the home has
//! refused, and only until it has `max_hops` of them. A job its home
//! accepts costs one probe under either policy, and a spilled job
//! one more per tile the spill walks; a bulk batch sharing one view
//! costs at most one per tile.
//!
//! **One ranking.** The natural home, the failover order, the spill
//! order and the four public planners all read [`ranking`], so they
//! cannot drift apart: a modulus that spills lands on the tile that
//! takes it over if its home leaves.

use std::cmp::Reverse;
use std::hash::{DefaultHasher, Hash, Hasher};

use modsram_bigint::UBig;

use super::{SpillPolicy, TileState};

/// 64-bit finaliser (splitmix64) — mixes the modulus key with a tile
/// index into a rendezvous score.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The prepared-modulus routing key: equal moduli map to equal keys,
/// so all traffic for one prepared context shares one home tile.
pub(super) fn modulus_key(p: &UBig) -> u64 {
    let mut h = DefaultHasher::new();
    p.hash(&mut h);
    h.finish()
}

/// The weighted rendezvous score of `(modulus key, tile, weight)` —
/// **the single definition** of both the score and its tie-break.
/// Higher is better.
///
/// The score uses the logarithmic method for weighted rendezvous
/// hashing: the mix is mapped to `u ∈ (0, 1)` and the score is
/// `weight / -ln(u)`, which makes each tile's win probability exactly
/// proportional to its weight. Because `u` is monotone in the mix,
/// **equal weights reproduce the unweighted mix ordering exactly** —
/// a weight-1 cluster places every modulus where the legacy
/// unweighted router did. Ties (the f64 mapping collapses nearby
/// mixes) fall back to the raw mix, then to the lower tile index
/// (`Reverse`), so the ordering stays total and deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct RendezvousScore {
    pub(super) score: f64,
    pub(super) mix: u64,
    pub(super) tie: Reverse<usize>,
}

impl Eq for RendezvousScore {}

impl Ord for RendezvousScore {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then(self.mix.cmp(&other.mix))
            .then(self.tie.cmp(&other.tie))
    }
}

impl PartialOrd for RendezvousScore {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

pub(super) fn rendezvous_score(key: u64, tile: usize, weight: u32) -> RendezvousScore {
    let mix = mix64(key ^ (tile as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Top 52 mix bits → odd 53-bit numerator / 2^53: exactly
    // representable, strictly inside (0, 1) at both ends (so `ln` is
    // finite and negative), and monotone in the mix — the property the
    // equal-weights-≡-legacy guarantee rests on.
    let u = (((mix >> 12) << 1) | 1) as f64 / (1u64 << 53) as f64;
    RendezvousScore {
        score: weight as f64 / -u.ln(),
        mix,
        tie: Reverse(tile),
    }
}

/// **The one ranking function**: the tiles `member` admits, out of
/// `0..weights.len()`, in weighted rendezvous order for `key` (best
/// score first). Scores are distinct per tile (the tile index breaks
/// the last tie), so the order is total.
pub(super) fn ranking(key: u64, weights: &[u32], member: impl Fn(usize) -> bool) -> Vec<usize> {
    let mut scored: Vec<(RendezvousScore, usize)> = weights
        .iter()
        .enumerate()
        .filter(|&(tile, _)| member(tile))
        .map(|(tile, &weight)| (rendezvous_score(key, tile, weight), tile))
        .collect();
    scored.sort_unstable_by_key(|&(score, _)| Reverse(score));
    scored.into_iter().map(|(_, tile)| tile).collect()
}

/// The natural home tile for modulus `p` in a cluster of `tiles`
/// equal-weight tiles — the same deterministic rendezvous placement a
/// live [`ServiceCluster`](super::ServiceCluster) of that size computes
/// (with every tile active at weight 1), exposed standalone so workload
/// planners (capacity sizing, sweep generators) can predict placement
/// without standing a cluster up. `None` when `tiles == 0`, consistent
/// with [`rendezvous_ranking`] returning the empty ranking (and with
/// the live cluster's answer when no tile is routable).
pub fn home_tile_for(p: &UBig, tiles: usize) -> Option<usize> {
    rendezvous_ranking(p, tiles).first().copied()
}

/// Tile indices `0..tiles` in rendezvous order (best score first,
/// equal weights) for modulus `p` — the full failover ranking behind
/// [`home_tile_for`] (which is its first element). Drain planners use
/// the second-ranked tile to predict where a modulus lands when its
/// home leaves.
pub fn rendezvous_ranking(p: &UBig, tiles: usize) -> Vec<usize> {
    weighted_rendezvous_ranking(p, &vec![1; tiles])
}

/// The weighted natural home for modulus `p` over a fleet described
/// by one capacity weight per tile: tile `i`'s probability of homing
/// a random modulus is `weights[i] / Σ weights`. With all weights
/// equal this is exactly [`home_tile_for`] — the placement the legacy
/// unweighted router computes. A zero-weight tile scores 0 and never
/// wins while any positive-weight tile exists (the live cluster
/// refuses weight 0 outright; see
/// [`ServiceCluster::set_tile_weight`](super::ServiceCluster::set_tile_weight)).
/// `None` when `weights` is empty.
pub fn weighted_home_tile_for(p: &UBig, weights: &[u32]) -> Option<usize> {
    weighted_rendezvous_ranking(p, weights).first().copied()
}

/// Tile indices `0..weights.len()` in weighted rendezvous order (best
/// score first) for modulus `p` — the weighted analogue of
/// [`rendezvous_ranking`].
pub fn weighted_rendezvous_ranking(p: &UBig, weights: &[u32]) -> Vec<usize> {
    ranking(modulus_key(p), weights, |_| true)
}

/// The membership half of a routing decision: one lifecycle state and
/// one capacity weight (never 0) per tile, indexed by tile id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct Fleet {
    pub(super) states: Vec<TileState>,
    pub(super) weights: Vec<u32>,
}

impl Fleet {
    /// Whether `tile` is in the routable set.
    pub(super) fn routable(&self, tile: usize) -> bool {
        self.states.get(tile) == Some(&TileState::Active)
    }

    pub(super) fn active_count(&self) -> usize {
        self.states
            .iter()
            .filter(|&&s| s == TileState::Active)
            .count()
    }

    /// Routable tiles in weighted rendezvous order for `key`.
    pub(super) fn ranked(&self, key: u64) -> Vec<usize> {
        ranking(key, &self.weights, |tile| self.routable(tile))
    }

    /// The rank-0 routable tile for `key`, health ignored — where the
    /// modulus's traffic lands in steady state. `None` when no tile is
    /// routable.
    pub(super) fn natural(&self, key: u64) -> Option<usize> {
        self.ranked(key).first().copied()
    }
}

/// The health half of a routing decision: whether a tile is usable
/// (live, admitting, not poisoned). Each tile is probed at most once
/// per decision (one job, or one bulk batch), the first time the
/// router needs it. Queue depth is not part of it: a usable tile that
/// is full says so by refusing the job.
pub(super) struct Health<F> {
    probe: F,
    seen: Vec<Option<bool>>,
}

impl<F: FnMut(usize) -> bool> Health<F> {
    pub(super) fn new(tiles: usize, probe: F) -> Self {
        Health {
            probe,
            seen: vec![None; tiles],
        }
    }

    fn usable(&mut self, tile: usize) -> bool {
        let probe = &mut self.probe;
        *self.seen[tile].get_or_insert_with(|| probe(tile))
    }
}

/// Where one job goes under one membership snapshot.
pub(super) struct Route {
    /// The rank-0 routable tile, health ignored: where the modulus's
    /// prepared context lives, and the tile affinity is scored against.
    pub(super) natural: usize,
    /// The tile offered the job first, and the one a blocking
    /// submission waits on once every offer was refused: the natural
    /// tile when usable, else the first usable tile in rendezvous
    /// order.
    pub(super) home: usize,
    /// The routable tiles ranked after `home`, best first: the order
    /// [`spill`] walks.
    after: Vec<usize>,
}

/// Routes a job for modulus `key`: `None` when no routable tile is
/// usable (the cluster then reports itself stopped).
pub(super) fn route<F: FnMut(usize) -> bool>(
    fleet: &Fleet,
    health: &mut Health<F>,
    key: u64,
) -> Option<Route> {
    let mut ranked = fleet.ranked(key);
    let natural = *ranked.first()?;
    let at = ranked.iter().position(|&tile| health.usable(tile))?;
    let home = ranked[at];
    ranked.drain(..=at);
    Some(Route {
        natural,
        home,
        after: ranked,
    })
}

/// The tiles to offer the job after its home refused it: the next
/// usable tiles after the home in the modulus's own rendezvous
/// ranking, at most the policy's `max_hops`, probed only until that
/// many are found. Empty under [`SpillPolicy::Strict`].
pub(super) fn spill<F: FnMut(usize) -> bool>(
    health: &mut Health<F>,
    route: &Route,
    policy: SpillPolicy,
) -> Vec<usize> {
    match policy {
        SpillPolicy::Strict => Vec::new(),
        SpillPolicy::Spill { max_hops } => route
            .after
            .iter()
            .copied()
            .filter(|&tile| health.usable(tile))
            .take(max_hops)
            .collect(),
    }
}
