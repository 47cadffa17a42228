//! The ModSRAM accelerator: a cycle-accurate model of the paper's
//! architecture (§4) executing R4CSA-LUT inside a simulated 8T SRAM
//! array.
//!
//! The pieces mirror Figure 4:
//!
//! * [`MemoryMap`] — wordline allocation on the 64×256 array: operands
//!   `A`/`B`/`p`, the `sum`/`carry` intermediate rows, the 13 LUT
//!   wordlines (5 radix-4 + 8 overflow), instrumented spill rows, and the
//!   scratch region sized for an elliptic-curve point addition (§5.2).
//! * [`Nmc`] — the near-memory circuit: Booth encoder, overflow
//!   combinational logic, the three full-width flip-flops (multiplier,
//!   sum, carry) plus small overflow FFs, and the shift-by-1/2 write-back
//!   paths. Counts its register writes (Figure 7's metric).
//! * `controller` — the FSM micro-op schedule. One multiplier fetch,
//!   then six cycles per radix-4 digit (two LUT phases, each
//!   activate-and-sense / write-back sum / write-back carry), with the
//!   two provably-zero carry write-backs of the first iteration elided:
//!   `1 + 4 + 6·(k−1) = 6k − 1` cycles — **767** at 256 bits, the
//!   paper's Table 3 headline.
//! * [`ModSram`] — the top-level device: owns the array, runs
//!   precomputation (LUT fill, reused across calls while `B`/`p` are
//!   unchanged — the paper's data-reuse claim), executes multiplications,
//!   and optionally verifies every phase against the word-level
//!   functional model from `modsram-modmul` in lock-step.
//! * [`cycles`] — the single home of the modelled-cycle constants and
//!   formulas (`6k − 1` per multiplication, the 13-wordline refill
//!   charge, per-engine latency models) shared by the service,
//!   dispatcher, and benches.
//! * [`dispatch`] — the staged serving layer: a shared-cursor
//!   [`dispatch::Dispatcher`] that fans a staged batch out over host
//!   threads, a per-modulus (optionally LRU-bounded)
//!   [`dispatch::ContextPool`], and the cost-aware chunk planner and
//!   least-loaded seeding from which [`BankedModSram`] and the
//!   service's modelled makespan assign chunks to modelled banks and
//!   lanes.
//! * [`autotune`] — self-tuning engine selection: an
//!   [`autotune::AutoTuner`] behind [`dispatch::ContextPool::auto`]
//!   picks the fastest registry engine per modulus (pinned, cached
//!   [`autotune::EngineProfile`] lookup, or a prepare-time calibration
//!   race) the way a JIT picks a code path.
//! * [`service`] — the streaming front-end: a [`service::ModSramService`]
//!   with cloneable submission handles, bounded-queue backpressure,
//!   completion tickets, and one executor per tile that takes whatever
//!   has queued up as one multiplicand-major batch and runs it on its
//!   own thread, one `mod_mul_batch` per modulus run (the tile's lanes
//!   are modelled, not spawned).
//!   Its [`service::MulBackend`] trait is the one seam batch
//!   consumers execute through: a [`service::Staged`] dispatcher +
//!   pool, a service, or a cluster.
//! * [`cluster`] — multi-tile scale-out: a [`cluster::ServiceCluster`]
//!   routes jobs across N service tiles by per-modulus rendezvous
//!   affinity, spills to the modulus's next-ranked tile on
//!   backpressure ([`cluster::SpillPolicy`]), and routes around
//!   poisoned tiles.
//! * [`test_util`] — deterministic fault-injection doubles
//!   ([`test_util::FailingPrepared`], the latch-gated
//!   [`test_util::GatedPrepared`]) the service/cluster test suites
//!   drive the failure and backpressure paths with.
//!
//! # Examples
//!
//! ```
//! use modsram_core::ModSram;
//! use modsram_bigint::UBig;
//!
//! let p = UBig::from(0xffff_fffb_u64); // a 32-bit prime
//! let mut dev = ModSram::for_modulus(&p).unwrap();
//! let (c, stats) = dev
//!     .mod_mul(&UBig::from(0x5ead_beefu64), &UBig::from(0x1234_5678u64))
//!     .unwrap();
//! assert_eq!(c, UBig::from((0x5ead_beefu64 * 0x1234_5678u64) % 0xffff_fffb));
//! assert_eq!(stats.cycles, 6 * 16 - 1); // ⌈32/2⌉ digits, MSB-clear multiplier
//! ```

pub mod autotune;
pub mod bank;
pub mod cluster;
mod controller;
pub mod cycles;
pub mod dispatch;
mod error;
pub mod isa;
mod memmap;
mod modsram;
mod nmc;
pub mod service;
pub mod session;
mod stats;
pub mod test_util;
pub mod trace;

pub use autotune::{AutoTuner, AutotuneStats, EngineProfile, Parity, TunePolicy};
pub use bank::{BankedModSram, BatchStats};
pub use cluster::{
    home_tile_for, rendezvous_ranking, weighted_home_tile_for, weighted_rendezvous_ranking,
    ClusterConfig, ClusterHandle, ClusterStats, ClusterSubmitError, MembershipChange, ProbeReport,
    ServiceCluster, SpillPolicy, TileStats,
};
pub use cycles::{
    modelled_batch_cycles, modelled_engine_mul_cycles, modelled_mul_cycles, LUT_REFILL_COST,
    MODELLED_REFILL_CYCLES,
};
pub use dispatch::{ContextPool, DispatchStats, Dispatcher, MulJob};
pub use error::CoreError;
pub use isa::{Executor, MicroOp, Program, ProgramError};
pub use memmap::{MemoryMap, PointAddWorkingSet};
pub use modsram::{ModSram, ModSramConfig, PreparedModSram};
pub use nmc::Nmc;
pub use service::{
    ModSramService, MulBackend, Reservoir, ServiceConfig, ServiceError, ServiceStats, Staged,
    SubmitError, SubmitHandle, Ticket, TileHealth,
};
pub use session::{ScratchSession, SessionStats, StagedPoint};
pub use stats::{PrecomputeStats, RunStats};
pub use trace::{DataflowSnapshot, Phase};
