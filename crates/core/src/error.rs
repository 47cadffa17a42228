//! Error type for the accelerator.

use core::fmt;

use modsram_modmul::ModMulError;

/// Errors produced by the ModSRAM device model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The configured array cannot hold the requested operand width.
    WidthExceedsArray {
        /// Requested operand bits.
        n_bits: usize,
        /// Available columns.
        cols: usize,
    },
    /// The configured array has too few wordlines for the memory map.
    NotEnoughRows {
        /// Rows required by the memory map.
        required: usize,
        /// Rows available.
        available: usize,
    },
    /// An operand exceeded the configured width.
    OperandTooWide {
        /// Bits of the offending operand.
        operand_bits: usize,
        /// Configured width.
        n_bits: usize,
    },
    /// No modulus has been loaded yet.
    NoModulus,
    /// No multiplicand has been loaded yet (LUT-radix4 rows are empty).
    NoMultiplicand,
    /// An algorithm-level error (zero modulus etc.).
    ModMul(ModMulError),
    /// A bank/dispatch construction named an engine absent from the
    /// registry. Build it with [`CoreError::unknown_engine`] so the
    /// message lists what *is* registered.
    UnknownEngine {
        /// The name that failed to resolve.
        name: String,
        /// The names that would have resolved, in registry order.
        known: Vec<String>,
    },
    /// A shared lock was poisoned by a panicking holder; the protected
    /// state can no longer be trusted, so the operation is refused
    /// instead of unwinding the caller.
    PoisonedLock {
        /// Which lock was found poisoned.
        what: &'static str,
    },
    /// A planner handed the dispatcher a chunk covering no items —
    /// impossible through the public planning functions, surfaced as an
    /// error rather than an index panic for callers that build chunks
    /// by hand.
    EmptyChunk,
    /// A streaming submission raced a [`crate::service::ModSramService`]
    /// shutdown: the job was not executed.
    ServiceStopped,
    /// A streaming submission found the
    /// [`crate::service::ModSramService`]'s admissions paused (the tile
    /// is draining or on probation): the job was not executed, but the
    /// tile may admit again after
    /// [`crate::service::ModSramService::resume_admissions`].
    ServicePaused,
    /// A routed submission raced a
    /// [`crate::cluster::ServiceCluster`] shutdown: the job was not
    /// executed on any tile.
    ClusterStopped,
    /// A non-blocking cluster submission found every tile its
    /// [`crate::cluster::SpillPolicy`] allowed at capacity (under
    /// `Strict` that is the home tile alone) — the caller should shed
    /// load or retry with backoff.
    AllTilesSaturated {
        /// Tiles whose queues refused the job.
        tried: usize,
    },
    /// A membership operation named a tile index outside the cluster
    /// (tile ids are stable: indices never shrink, so this means the
    /// tile never existed).
    UnknownTile {
        /// The out-of-range tile index.
        tile: usize,
    },
    /// [`crate::cluster::ServiceCluster::drain_tile`] targeted a tile
    /// that is already draining or drained — a drain is in progress
    /// (or complete); wait for probation to re-admit the tile before
    /// draining it again.
    TileDraining {
        /// The tile already out of the routable set.
        tile: usize,
    },
    /// A membership operation tried to set a tile's capacity weight to
    /// zero. Weights are multiplicative capacity in the weighted
    /// rendezvous score, not membership — take a tile out of service
    /// with [`crate::cluster::ServiceCluster::drain_tile`] instead.
    ZeroTileWeight {
        /// The tile the zero weight was aimed at.
        tile: usize,
    },
    /// A structurally invalid micro-program (see [`crate::isa`]).
    Program(crate::isa::ProgramError),
    /// Lock-step verification against the functional model diverged —
    /// only possible when fault injection is enabled.
    ModelDivergence {
        /// Loop iteration (1-based) where the divergence was detected.
        iteration: u64,
        /// Which value diverged.
        what: &'static str,
    },
    /// The OS refused to spawn a service thread (resource exhaustion).
    /// Only [`crate::service::ModSramService::try_with_shared_pool`]
    /// surfaces this; the panicking constructors treat it as fatal.
    Spawn {
        /// Which thread failed to start.
        what: &'static str,
    },
}

impl CoreError {
    /// Builds [`CoreError::UnknownEngine`] for `name`, capturing the
    /// registry's current engine list so the message tells the caller
    /// what would have worked.
    pub fn unknown_engine(name: &str) -> Self {
        CoreError::UnknownEngine {
            name: name.to_string(),
            known: modsram_modmul::engine_names()
                .into_iter()
                .map(str::to_string)
                .collect(),
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::WidthExceedsArray { n_bits, cols } => {
                write!(f, "operand width {n_bits} exceeds array columns {cols}")
            }
            CoreError::NotEnoughRows {
                required,
                available,
            } => write!(f, "memory map needs {required} rows, array has {available}"),
            CoreError::OperandTooWide {
                operand_bits,
                n_bits,
            } => write!(
                f,
                "operand has {operand_bits} bits, device is configured for {n_bits}"
            ),
            CoreError::NoModulus => write!(f, "no modulus loaded"),
            CoreError::NoMultiplicand => write!(f, "no multiplicand loaded"),
            CoreError::ModMul(e) => write!(f, "{e}"),
            CoreError::UnknownEngine { name, known } => {
                write!(
                    f,
                    "no engine named '{name}' in the registry (registered: {})",
                    known.join(", ")
                )
            }
            CoreError::PoisonedLock { what } => {
                write!(f, "the {what} lock was poisoned by a panicking holder")
            }
            CoreError::EmptyChunk => write!(f, "a dispatched chunk covered no items"),
            CoreError::ServiceStopped => {
                write!(f, "the service shut down before the job could run")
            }
            CoreError::ServicePaused => {
                write!(f, "the service's admissions are paused; the job did not run")
            }
            CoreError::ClusterStopped => {
                write!(f, "the cluster shut down before the job could be routed")
            }
            CoreError::AllTilesSaturated { tried } => {
                write!(
                    f,
                    "all {tried} tile(s) the spill policy allows are at queue capacity"
                )
            }
            CoreError::UnknownTile { tile } => {
                write!(f, "no tile with index {tile} exists in this cluster")
            }
            CoreError::TileDraining { tile } => {
                write!(f, "tile {tile} is already draining or drained")
            }
            CoreError::ZeroTileWeight { tile } => {
                write!(
                    f,
                    "tile {tile} cannot take capacity weight 0 (drain it instead)"
                )
            }
            CoreError::Program(e) => write!(f, "{e}"),
            CoreError::ModelDivergence { iteration, what } => write!(
                f,
                "in-SRAM result diverged from the functional model at iteration {iteration} ({what})"
            ),
            CoreError::Spawn { what } => {
                write!(f, "could not spawn the {what} (thread resources exhausted)")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::ModMul(e) => Some(e),
            CoreError::Program(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModMulError> for CoreError {
    fn from(e: ModMulError) -> Self {
        CoreError::ModMul(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = CoreError::WidthExceedsArray {
            n_bits: 300,
            cols: 256,
        };
        assert_eq!(e.to_string(), "operand width 300 exceeds array columns 256");
        let e: CoreError = ModMulError::ZeroModulus.into();
        assert_eq!(e.to_string(), "modulus must be non-zero");
    }

    #[test]
    fn unknown_engine_lists_the_registry() {
        let e = CoreError::unknown_engine("no-such-engine");
        let msg = e.to_string();
        assert!(
            msg.starts_with("no engine named 'no-such-engine' in the registry"),
            "unexpected message: {msg}"
        );
        // Every registered name must appear so a typo is self-correcting.
        for name in modsram_modmul::engine_names() {
            assert!(msg.contains(name), "message misses '{name}': {msg}");
        }
    }
}
