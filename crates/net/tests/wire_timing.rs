//! The timing check of the wire: four closed loops over loopback TCP
//! keep at least half the throughput of the same four closed loops on
//! a bare cluster handle. It sits alone in its file so no other test
//! shares the host while it times. Perfbench's net rung reports the
//! full wire measurement.

mod common;

use std::sync::Barrier;
use std::time::Instant;

use modsram_bigint::UBig;
use modsram_core::cluster::ClusterHandle;
use modsram_core::dispatch::MulJob;

const CLIENTS: usize = 4;
const WINDOW: usize = 64;
const JOBS_PER_CLIENT: usize = 256;
/// Alternating wire/in-process pass pairs per measurement.
const PASSES: usize = 8;
/// Fresh-cluster measurements while the ratio sits below the bound.
const ATTEMPTS: usize = 3;
const MIN_RATIO: f64 = 0.5;

/// The in-process twin of `common::pump`: the same window discipline
/// over a bare cluster handle, so the ratio isolates protocol and
/// socket costs. (The queues never fill, so nothing is refused.)
fn inproc_pump(handle: &ClusterHandle, jobs: &[(MulJob, UBig)]) {
    for round in jobs.chunks(WINDOW) {
        let tickets: Vec<_> = round
            .iter()
            .map(|(job, _)| handle.submit(job.clone()))
            .collect();
        for (ticket, (_, product)) in tickets.into_iter().zip(round) {
            assert_eq!(&ticket.unwrap().wait().unwrap(), product, "in-process job");
        }
    }
}

/// One measurement on fresh clusters: wire and in-process passes
/// alternate, each bracketed by barriers so its clock covers only the
/// closed loops, and the off-duty side sits parked. Returns the best
/// matched pair's in-process time over wire time, i.e. wire throughput
/// over in-process throughput under the same host conditions.
fn best_pair_ratio(job_lists: &[Vec<(MulJob, UBig)>]) -> f64 {
    let (wire_cluster, inproc_cluster) =
        (common::cluster("r4csa-lut"), common::cluster("r4csa-lut"));
    let server = common::serve(&wire_cluster);
    let addr = server.local_addr();
    let [wire_start, wire_done, inproc_start, inproc_done] =
        [(); 4].map(|_| Barrier::new(CLIENTS + 1));
    let mut best = 0.0f64;
    std::thread::scope(|scope| {
        for (c, jobs) in job_lists.iter().enumerate() {
            let (start, done) = (&wire_start, &wire_done);
            scope.spawn(move || {
                let mut client = common::connect(addr, c);
                // One window warms the tenant's context on its home tile.
                common::pump(&mut client, &jobs[..WINDOW], WINDOW);
                for _ in 0..PASSES {
                    start.wait();
                    common::pump(&mut client, jobs, WINDOW);
                    done.wait();
                }
                assert_eq!(client.duplicates(), 0);
                client.close().unwrap();
            });
            let (start, done, handle) = (&inproc_start, &inproc_done, inproc_cluster.handle());
            scope.spawn(move || {
                inproc_pump(&handle, &jobs[..WINDOW]);
                for _ in 0..PASSES {
                    start.wait();
                    inproc_pump(&handle, jobs);
                    done.wait();
                }
            });
        }
        for _ in 0..PASSES {
            wire_start.wait();
            let t0 = Instant::now();
            wire_done.wait();
            let wire_s = t0.elapsed().as_secs_f64();
            inproc_start.wait();
            let t0 = Instant::now();
            inproc_done.wait();
            best = best.max(t0.elapsed().as_secs_f64() / wire_s);
        }
    });
    let stats = server.shutdown();
    assert_eq!((stats.accepted, stats.failed), (stats.completed, 0));
    wire_cluster.shutdown();
    inproc_cluster.shutdown();
    best
}

#[test]
fn wire_keeps_half_of_in_process_throughput() {
    let p = UBig::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
    let job_lists = common::job_lists(&p.unwrap(), CLIENTS, JOBS_PER_CLIENT, 0x317E);
    let mut ratios = Vec::new();
    while ratios.len() < ATTEMPTS && !ratios.iter().any(|&r| r >= MIN_RATIO) {
        ratios.push(best_pair_ratio(&job_lists));
    }
    println!("wire/in-process throughput, best matched pair per attempt: {ratios:.2?}");
    assert!(
        ratios.iter().any(|&r| r >= MIN_RATIO),
        "wire kept {ratios:.2?} of in-process throughput at {CLIENTS} clients (< {MIN_RATIO})"
    );
}
