//! Helpers shared by this crate's integration tests.

use std::time::Instant;

use modsram_core::cluster::ServiceCluster;
use modsram_core::test_util::SATURATE_STALL_LIMIT;

/// Spins until `cluster` has accepted more than `jobs` submissions, so
/// a soak acts on a stream with real in-flight depth instead of after a
/// guessed sleep.
///
/// # Panics
///
/// Panics if the accepted count stops growing for
/// [`SATURATE_STALL_LIMIT`] before it passes `jobs`.
pub fn wait_for_submitted(cluster: &ServiceCluster, jobs: u64) {
    let (mut seen, mut last_progress) = (0, Instant::now());
    while seen <= jobs {
        let submitted = cluster.stats().submitted;
        if submitted > seen {
            (seen, last_progress) = (submitted, Instant::now());
        }
        assert!(
            last_progress.elapsed() < SATURATE_STALL_LIMIT,
            "submissions stalled at {seen} of {jobs}"
        );
        std::thread::yield_now();
    }
}
