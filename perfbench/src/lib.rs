//! The serving-ladder benchmark of the ModSRAM stack.
//!
//! One command runs a named workload against the public entry points of
//! the stack and prints every metric by name with its unit:
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stack-barrett --seed 1 --seconds 30 --trace 0
//! ```
//!
//! * `--trace 0` measures the end-to-end metrics at the top rung,
//!   `modsram_net` over loopback, with tracing off.
//! * `--trace 1` replays the workload's jobs up the ladder, one rung per
//!   layer (`modmul` → `dispatch` → `service` → `cluster` → `net`), with
//!   spans recorded around each call into a layer, and reports each
//!   layer's cost and the cost it adds over the rung below.
//!
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`. The line before it
//! records the host, commit, seed, workload configuration, sample counts
//! and span summaries. Every product is checked against the `UBig`
//! oracle; a mismatch makes the run exit nonzero.

pub mod clock;
pub mod ladder;
pub mod report;
pub mod run;
pub mod trace;
pub mod wire;
pub mod workload;
