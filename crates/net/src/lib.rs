//! The wire-protocol front-end of the serving stack: TCP in, modular
//! multiplication out.
//!
//! Every layer below this one — dispatch, service, cluster,
//! elasticity, autotune — terminates at an in-process submission
//! handle. `modsram_net` puts a network boundary in front of it so
//! independent processes (and, eventually, independent machines) can
//! drive one cluster:
//!
//! * [`frame`] — the hand-rolled length-prefixed binary protocol
//!   (magic + version + frame type + payload; big integers as
//!   little-endian limbs; client-assigned request ids so completions
//!   stream back out of order). No crates.io access means no
//!   serde/tonic — the bytes are spelled out.
//! * [`tenant`] — [`TenantRegistry`]: API keys plus per-tenant rate
//!   limits and in-flight caps, enforced across all of a tenant's
//!   connections.
//! * [`server`] — [`WireServer`]: an acceptor plus a per-connection
//!   reader/completer thread pair bridging
//!   [`Ticket`](modsram_core::service::Ticket) completions back onto
//!   the socket through one shared, coalescing writer. Admission control maps `QueueFull` / `Paused` /
//!   `AllTilesSaturated` / tenant refusals to typed
//!   [`Frame::RetryAfter`] responses instead of dropped connections;
//!   [`WireServer::shutdown`] drains gracefully (listener refused,
//!   in-flight responses delivered).
//! * [`stats`] — [`NetStats`]: per-tenant frames/bytes/outcomes and
//!   reservoir-sampled request-to-response latency percentiles.
//! * [`client`] — [`WireClient`]: the blocking single-threaded client
//!   perfbench's closed loops and the loopback tests drive; the
//!   waiter reads the socket itself and files out-of-order completions
//!   locally.
//!
//! # Example: serve a cluster over loopback
//!
//! ```
//! use std::sync::Arc;
//! use modsram_bigint::UBig;
//! use modsram_core::cluster::{ClusterConfig, ServiceCluster};
//! use modsram_core::dispatch::MulJob;
//! use modsram_net::{NetBackend, TenantLimits, TenantRegistry, WireClient, WireConfig,
//!                   WireResponse, WireServer};
//!
//! let cluster =
//!     ServiceCluster::for_engine_name("barrett", 2, ClusterConfig::default()).unwrap();
//! let registry = Arc::new(TenantRegistry::new());
//! registry.register("quickstart", 0xC0FFEE, TenantLimits::default());
//! let server = WireServer::bind(
//!     "127.0.0.1:0",
//!     NetBackend::Cluster(cluster.handle()),
//!     Arc::clone(&registry),
//!     WireConfig::default(),
//! )
//! .unwrap();
//!
//! let mut client = WireClient::connect(server.local_addr(), "quickstart", 0xC0FFEE).unwrap();
//! let id = client
//!     .submit(MulJob::new(UBig::from(6u64), UBig::from(7u64), UBig::from(97u64)))
//!     .unwrap();
//! assert_eq!(client.wait(id).unwrap(), WireResponse::Done(UBig::from(42u64)));
//! client.close().unwrap();
//! let stats = server.shutdown();
//! assert_eq!(stats.accepted, 1);
//! assert_eq!(stats.completed, 1);
//! cluster.shutdown();
//! ```

pub mod client;
pub mod frame;
pub mod server;
pub mod stats;
pub mod tenant;

pub use client::{WireClient, WireResponse};
pub use frame::{Frame, RetryReason, WireError};
pub use server::{NetBackend, WireConfig, WireServer};
pub use stats::{NetStats, TenantNetStats};
pub use tenant::{AuthError, TenantCell, TenantLimits, TenantRefusal, TenantRegistry};
