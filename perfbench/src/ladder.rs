//! The in-process rungs of the ladder. Each replays the workload's job
//! streams in closed rounds of `WINDOW` jobs through one layer's public
//! entry point, with spans around every call, and checks every product
//! against the oracle.

use std::sync::Arc;
use std::time::Duration;

use modsram_bigint::UBig;
use modsram_core::dispatch::{ContextPool, Dispatcher};
use modsram_core::service::{ModSramService, ServiceConfig, Ticket};
use modsram_core::MulJob;
use modsram_modmul::{engine_by_name, PreparedModMul};

use crate::clock::{Observed, Recorder, Window};
use crate::trace::{Kind, Tracer};
use crate::workload::{Generated, STREAM_JOBS, TILES, WINDOW};

/// What one rung measured.
pub struct RungRun {
    pub window: Window,
    pub obs: Observed,
    pub tracers: Vec<Tracer>,
}

/// Runs `body` on `threads` generator threads over one fresh window,
/// each with its own recorder and tracer, and merges what they saw.
fn run_threads(
    threads: usize,
    warm: Duration,
    measure: Duration,
    generated: &Generated,
    trace: bool,
    body: impl Fn(usize, &mut Recorder, &mut Tracer) + Sync,
) -> RungRun {
    let window = Window::starting_now(warm, measure);
    let outs: Vec<(Observed, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (window, body) = (&window, &body);
                s.spawn(move || {
                    let mut rec = Recorder::new(window, generated, false);
                    let mut tracer = Tracer::new(trace, window.t0);
                    body(t, &mut rec, &mut tracer);
                    (rec.obs, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut obs = Observed::default();
    let mut tracers = Vec::with_capacity(outs.len());
    for (o, t) in outs {
        obs.merge(o);
        tracers.push(t);
    }
    RungRun {
        window,
        obs,
        tracers,
    }
}

/// Start of round `r` of a stream.
fn round_base(r: usize) -> usize {
    (r % (STREAM_JOBS / WINDOW)) * WINDOW
}

/// One round's jobs grouped by modulus, in stream order within a group:
/// the shape the service's coalescer hands the kernel.
struct Group {
    modulus_ix: usize,
    pairs: Vec<(UBig, UBig)>,
    jobs: Vec<usize>,
}

/// Rung 1, `modmul`: `TILES` threads call each modulus's prepared
/// context's `mod_mul_batch` directly.
pub fn modmul(generated: &Generated, warm: Duration, measure: Duration, trace: bool) -> RungRun {
    let engine = engine_by_name(generated.engine).expect("workload engines are in the registry");
    let contexts: Vec<Arc<dyn PreparedModMul>> = generated
        .moduli
        .iter()
        .map(|p| Arc::from(engine.prepare(p).expect("workload moduli are valid")))
        .collect();
    let plan: Vec<Vec<Vec<Group>>> = generated
        .streams
        .iter()
        .map(|stream| {
            (0..STREAM_JOBS / WINDOW)
                .map(|r| {
                    let mut groups: Vec<Group> = Vec::new();
                    for i in round_base(r)..round_base(r) + WINDOW {
                        let m = stream.modulus_ix[i];
                        let pair = (stream.jobs[i].a.clone(), stream.jobs[i].b.clone());
                        match groups.iter_mut().find(|g| g.modulus_ix == m) {
                            Some(g) => {
                                g.pairs.push(pair);
                                g.jobs.push(i);
                            }
                            None => groups.push(Group {
                                modulus_ix: m,
                                pairs: vec![pair],
                                jobs: vec![i],
                            }),
                        }
                    }
                    groups
                })
                .collect()
        })
        .collect();
    run_threads(TILES, warm, measure, generated, trace, |t, rec, tracer| {
        let s = t % plan.len();
        for r in t.. {
            if rec.window.over() {
                break;
            }
            let root = tracer.begin(Kind::Round, None);
            let start = rec.window.now_ns();
            for group in &plan[s][r % plan[s].len()] {
                let span = tracer.begin(Kind::ModMul, Some(root));
                let out = contexts[group.modulus_ix].mod_mul_batch(&group.pairs);
                tracer.end(span);
                let now = rec.window.now_ns();
                match out {
                    Ok(products) => {
                        for (p, &i) in products.iter().zip(&group.jobs) {
                            rec.done(s, i, p, start, now);
                        }
                    }
                    Err(_) => rec.obs.job_failed += group.jobs.len() as u64,
                }
            }
            tracer.end(root);
        }
    })
}

/// A staged dispatch batch: the jobs and, for each, its (stream, job
/// index).
type Staged = (Vec<MulJob>, Vec<(usize, usize)>);

/// Dispatch-rung counters beyond throughput.
pub struct DispatchExtras {
    pub busy_speedup: f64,
    pub pool_hit_ratio: f64,
}

/// Rung 2, `dispatch`: one staging thread hands `Dispatcher::dispatch_jobs`
/// (`TILES` workers, one shared `ContextPool`) two rounds at a time: one
/// from each connection's stream, or two consecutive rounds of a single
/// stream.
pub fn dispatch(
    generated: &Generated,
    warm: Duration,
    measure: Duration,
    trace: bool,
) -> (RungRun, DispatchExtras) {
    let pool = ContextPool::for_engine_name(generated.engine)
        .expect("workload engines are in the registry");
    for p in &generated.moduli {
        pool.context(p).expect("workload moduli are valid");
    }
    let (hits0, misses0) = (pool.hits(), pool.misses());
    let rounds = STREAM_JOBS / WINDOW;
    let staged: Vec<Staged> = (0..rounds)
        .map(|r| {
            let parts: Vec<(usize, usize)> = if generated.streams.len() >= 2 {
                (0..generated.streams.len()).map(|s| (s, r)).collect()
            } else {
                vec![(0, r), (0, r + 1)]
            };
            let mut jobs = Vec::new();
            let mut origin = Vec::new();
            for (s, r) in parts {
                for i in round_base(r)..round_base(r) + WINDOW {
                    jobs.push(generated.streams[s].jobs[i].clone());
                    origin.push((s, i));
                }
            }
            (jobs, origin)
        })
        .collect();
    let dispatcher = Dispatcher::new(TILES);
    let busy = std::sync::Mutex::new((0u64, 0u64));
    let run = run_threads(1, warm, measure, generated, trace, |_, rec, tracer| {
        let (mut total, mut critical) = (0u64, 0u64);
        for r in 0.. {
            if rec.window.over() {
                break;
            }
            let (jobs, origin) = &staged[r % staged.len()];
            let root = tracer.begin(Kind::Round, None);
            let start = rec.window.now_ns();
            let span = tracer.begin(Kind::Dispatch, Some(root));
            let out = dispatcher.dispatch_jobs(&pool, jobs);
            tracer.end(span);
            let now = rec.window.now_ns();
            match out {
                Ok((products, stats)) => {
                    total += stats.per_worker_busy_ns.iter().sum::<u64>();
                    critical += stats.per_worker_busy_ns.iter().copied().max().unwrap_or(0);
                    for (p, &(s, i)) in products.iter().zip(origin) {
                        rec.done(s, i, p, start, now);
                    }
                }
                Err(_) => rec.obs.job_failed += jobs.len() as u64,
            }
            tracer.end(root);
        }
        *busy.lock().expect("no panics while holding the tally") = (total, critical);
    });
    let (total, critical) = busy
        .into_inner()
        .expect("no panics while holding the tally");
    let hits = (pool.hits() - hits0) as f64;
    let misses = (pool.misses() - misses0) as f64;
    let extras = DispatchExtras {
        busy_speedup: crate::report::ratio(total as f64, critical as f64),
        pool_hit_ratio: crate::report::ratio(hits, hits + misses),
    };
    (run, extras)
}

/// Rungs 3 and 4: one thread per connection submits each job of a round
/// through `submit` (a `span` each), then waits on every ticket (a `wait`
/// span each).
fn tickets(
    generated: &Generated,
    warm: Duration,
    measure: Duration,
    trace: bool,
    spans: (Kind, Kind),
    submit: impl Fn(MulJob) -> Option<Ticket> + Sync,
) -> RungRun {
    for stream in &generated.streams {
        for &i in &stream.first_per_modulus {
            if let Some(ticket) = submit(stream.jobs[i].clone()) {
                let _ = ticket.wait();
            }
        }
    }
    run_threads(
        generated.streams.len(),
        warm,
        measure,
        generated,
        trace,
        |s, rec, tracer| {
            let stream = &generated.streams[s];
            let mut tickets: Vec<(usize, Option<Ticket>)> = Vec::with_capacity(WINDOW);
            for r in s.. {
                if rec.window.over() {
                    break;
                }
                let base = round_base(r);
                let root = tracer.begin(Kind::Round, None);
                let start = rec.window.now_ns();
                tickets.clear();
                for i in base..base + WINDOW {
                    let job = stream.jobs[i].clone();
                    let span = tracer.begin(spans.0, Some(root));
                    let ticket = submit(job);
                    tracer.end(span);
                    tickets.push((i, ticket));
                }
                for (i, ticket) in tickets.drain(..) {
                    let span = tracer.begin(spans.1, Some(root));
                    let answer = ticket.map(|t| t.wait());
                    tracer.end(span);
                    let now = rec.window.now_ns();
                    match answer {
                        Some(Ok(product)) => rec.done(s, i, &product, start, now),
                        _ => rec.failed(),
                    }
                }
                tracer.end(root);
            }
        },
    )
}

/// Rung 3, `service`: one `ModSramService` with `TILES` workers.
pub fn service(generated: &Generated, warm: Duration, measure: Duration, trace: bool) -> RungRun {
    let service = ModSramService::for_engine_name(
        generated.engine,
        ServiceConfig {
            workers: TILES,
            ..ServiceConfig::default()
        },
    )
    .expect("workload engines are in the registry");
    let handle = service.handle();
    let run = tickets(
        generated,
        warm,
        measure,
        trace,
        (Kind::ServiceSubmit, Kind::ServiceWait),
        |job| handle.submit(job).ok(),
    );
    service.shutdown();
    run
}

/// Rung 4, `cluster`: the wire stack's cluster, without the wire.
pub fn cluster(generated: &Generated, warm: Duration, measure: Duration, trace: bool) -> RungRun {
    let cluster = crate::wire::cluster(generated.engine);
    let handle = cluster.handle();
    let run = tickets(
        generated,
        warm,
        measure,
        trace,
        (Kind::ClusterSubmit, Kind::ClusterWait),
        |job| handle.submit(job).ok(),
    );
    cluster.shutdown();
    run
}
