//! The two kinds of run: end to end over the wire, and the traced
//! ladder.

use std::time::{Duration, Instant};

use modsram_baselines::table3_rows;
use modsram_core::cycles::modelled_mul_cycles;
use modsram_modmul::modelled_cycles_by_name;
use serde_json::{json, Value};

use crate::clock::{process_cpu_ns, Observed, Recorder, Window};
use crate::ladder::{self, RungRun};
use crate::report::{interquartile_mean, median, percentile, ratio, Metric, Percentile};
use crate::trace::{summarize, Kind, SpanSummary, Tracer};
use crate::wire::{close_all, closed_loop, connect_all, open_loop, Conn, Delta, Snapshot, Stack};
use crate::workload::{Arrival, Generated, Workload, BITS};

/// Table 3 of the paper: cycles of one 256-bit R4CSA-LUT multiplication.
pub const PAPER_TABLE3_CYCLES: u64 = 767;

/// Table 3's area for the ModSRAM column, passed through unchanged.
const PAPER_TABLE3_AREA_MM2: f64 = 0.053;

/// The end-to-end run measures one segment of this length on each of
/// its fresh stacks and reports the median of the per-segment values, so
/// an unlucky placement of one stack's threads on the host's cores moves
/// one value, not the result.
pub const SEGMENT: Duration = Duration::from_secs(1);

/// Warm-up before each end-to-end segment.
const WARM: Duration = Duration::from_millis(150);

/// Warm-up before each rung's measurement.
const RUNG_WARM: Duration = Duration::from_millis(200);

/// What a run reports.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    /// Everything else worth keeping with the result.
    pub detail: Value,
}

/// Checks the modelled device against the paper: the cycle model the
/// service charges, the R4CSA-LUT engine's own model and the regenerated
/// Table 3 row must all read 767 at 256 bits. Returns the cycles and
/// their ratio to BP-NTT's Table 3 row.
pub fn paper_anchor() -> Result<(u64, f64), String> {
    let modelled = modelled_mul_cycles(BITS);
    let engine = modelled_cycles_by_name("r4csa-lut", BITS);
    let rows = table3_rows(modelled, PAPER_TABLE3_AREA_MM2);
    let table = rows.first().and_then(|r| r.cycles_256);
    if modelled != PAPER_TABLE3_CYCLES
        || engine != Some(PAPER_TABLE3_CYCLES)
        || table != Some(PAPER_TABLE3_CYCLES)
    {
        return Err(format!(
            "paper anchor: modelled {modelled}, engine {engine:?}, Table 3 {table:?}; \
             the paper gives {PAPER_TABLE3_CYCLES}"
        ));
    }
    let bpntt = rows
        .iter()
        .find(|r| r.reference == "BP-NTT")
        .and_then(|r| r.cycles_256)
        .unwrap_or(0);
    Ok((modelled, ratio(modelled as f64, bpntt as f64)))
}

/// Drives the workload's jobs over `conns` for `window` as `arrival`
/// says: rounds on `WireClient` connections, the open loop on frame
/// connections.
fn drive(
    w: &Workload,
    arrival: Arrival,
    generated: &Generated,
    conns: &mut [Conn],
    window: &Window,
    keep_latency: bool,
    trace: bool,
) -> (Observed, Vec<Tracer>) {
    let outs: Vec<(Observed, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let mut tracer = Tracer::new(trace, window.t0);
                    let obs = match (conn, arrival) {
                        (Conn::Frames(conn), Arrival::Open { rate_per_s }) => open_loop(
                            conn,
                            generated,
                            rate_per_s,
                            window,
                            keep_latency,
                            &mut tracer,
                        ),
                        (Conn::Client(client), _) => {
                            let mut rec = Recorder::new(window, generated, keep_latency);
                            closed_loop(client, w, generated, c, &mut rec, &mut tracer);
                            rec.obs
                        }
                        (Conn::Frames(_), _) => {
                            unreachable!("rounds go out on WireClient connections")
                        }
                    };
                    (obs, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut obs = Observed::default();
    let mut tracers = Vec::new();
    for (o, t) in outs {
        obs.merge(o);
        tracers.push(t);
    }
    (obs, tracers)
}

/// What one measured pass saw: the generators' record, the stack's
/// counters and the process's CPU time at the ends of the measured
/// interval.
struct Measured {
    obs: Observed,
    tracers: Vec<Tracer>,
    before: Snapshot,
    after: Snapshot,
    cpu_ns: u64,
}

/// Drives `conns` as `arrival` says over `window`, keeping latencies,
/// while another thread reads the counters and CPU time as the measured
/// interval starts and ends.
fn measured_pass(
    w: &Workload,
    arrival: Arrival,
    generated: &Generated,
    stack: &Stack,
    conns: &mut [Conn],
    window: &Window,
    trace: bool,
) -> Measured {
    std::thread::scope(|s| {
        let snapshots = s.spawn(|| {
            window.sleep_until(window.from_ns);
            let (before, cpu0) = (stack.snapshot(), process_cpu_ns());
            window.sleep_until(window.to_ns);
            let cpu1 = process_cpu_ns();
            (before, stack.snapshot(), cpu1 - cpu0)
        });
        let (obs, tracers) = drive(w, arrival, generated, conns, window, true, trace);
        let (before, after, cpu_ns) = snapshots.join().expect("snapshot thread panicked");
        Measured {
            obs,
            tracers,
            before,
            after,
            cpu_ns,
        }
    })
}

fn pct_json(p: &Option<Percentile>) -> Value {
    match p {
        Some(p) => json!({"label": p.label.clone(), "q": p.q, "ns": p.value, "samples": p.samples}),
        None => Value::Null,
    }
}

/// The end-to-end run: `seconds` fresh stacks, each set up, then driven
/// untraced over the wire for one `SEGMENT`. One untimed set-up before
/// them takes the process's own first-use costs.
///
/// The result holds only the metrics that repeat across runs on a shared
/// 2-core host: the modelled device cycles and the set-up time. Over ten
/// runs of the same code, `stack-barrett`'s saturated rate and p50 spread
/// by a quarter (IQR/median) and its p99 by up to 2x. The process's CPU
/// time per correct result leaves out time the hypervisor gave to other
/// guests and time spent waiting to run (a busy loop on one of the two
/// cores halved the rate and moved it 2%), but it follows how fast the
/// shared cores run: it read 6.4 us per job on a quiet host and 8-9 on a
/// busy one, a spread of up to 0.14 within a set. These wall and CPU
/// figures stay in the record line, per segment and as medians over the
/// segments.
///
/// `setup_s` is the mean of the middle half of the set-up times: the
/// server's acceptor polls every 2 ms, so they gather in two peaks a tick
/// apart, between which a median would jump from run to run.
pub fn end_to_end(w: &Workload, generated: &Generated, seconds: u64) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut obs = Observed::default();
    let mut delta = Delta::default();
    let (mut rates, mut p50s, mut p99s, mut cpus, mut segments) =
        (vec![], vec![], vec![], vec![], vec![]);
    for rep in 0..=seconds {
        let t = Instant::now();
        let stack = Stack::start(w).map_err(|e| format!("server bind: {e}"))?;
        let mut conns = connect_all(w, &stack, generated, w.arrival)?;
        if rep > 0 {
            setups.push(t.elapsed().as_secs_f64());
            let window = Window::starting_now(WARM, SEGMENT);
            let pass = measured_pass(w, w.arrival, generated, &stack, &mut conns, &window, false);
            delta.add(&pass.before, &pass.after);
            let mut seg = pass.obs;
            let mut sorted: Vec<u64> = seg.latency_ns.drain(..).map(u64::from).collect();
            sorted.sort_unstable();
            let (p50, p99) = (percentile(&sorted, 0.5), percentile(&sorted, 0.99));
            if let (Some(a), Some(b)) = (&p50, &p99) {
                p50s.push(a.value as f64 / 1e3);
                p99s.push(b.value as f64 / 1e3);
            }
            let rate = ratio(seg.delivered as f64, window.measured_s());
            let cpu_us = ratio(pass.cpu_ns as f64 / 1e3, seg.delivered as f64);
            rates.push(rate);
            cpus.push(cpu_us);
            segments.push(json!({
                "measured_s": window.measured_s(),
                "jobs_per_s": rate,
                "cpu_us_per_job": cpu_us,
                "p50": pct_json(&p50),
                "p99": pct_json(&p99),
            }));
            obs.merge(seg);
        }
        close_all(conns);
        stack.stop();
    }

    let late = {
        let mut l: Vec<u64> = obs.late_ns.iter().map(|&x| u64::from(x)).collect();
        l.sort_unstable();
        percentile(&l, 0.99)
    };
    let metrics = vec![
        Metric {
            name: "modelled_cycles_per_job",
            value: delta.modelled_cycles_per_job(),
        },
        Metric {
            name: "setup_s",
            value: interquartile_mean(&setups),
        },
    ];
    let detail = json!({
        "aggregation": "median over fresh stacks",
        "wall": {
            "jobs_per_s": median(&rates),
            "latency_p50_us": median(&p50s),
            "latency_p99_us": median(&p99s),
            "cpu_us_per_job": median(&cpus),
            "latency_from": if w.is_open() { "due time" } else { "first submit" },
        },
        "segments": segments,
        "setup_s_samples": setups,
        "gen_late_p99": pct_json(&late),
        "retries": obs.retries,
        "job_failed": obs.job_failed,
        "lost": obs.lost,
        "modelled_tiles": delta.tiles.iter().map(|t| json!({"cycles": t.0, "completed": t.1, "batches": t.2})).collect::<Vec<_>>(),
    });
    Ok(Outcome {
        metrics,
        attempted: obs.attempted(),
        failed: obs.failed(),
        mismatches: obs.mismatches,
        detail,
    })
}

fn spans_json(spans: &[SpanSummary]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name, "count": s.count, "total_ns": s.total_ns,
                    "self_ns": s.self_ns, "p50_ns": s.p50_ns, "p99_ns": s.p99_ns,
                })
            })
            .collect(),
    )
}

fn span(spans: &[SpanSummary], kind: Kind) -> Option<&SpanSummary> {
    spans.iter().find(|s| s.name == kind.name())
}

/// Wall nanoseconds per correct result over the measured intervals of
/// one or more passes of a rung.
fn ns_per_job<'a>(runs: impl IntoIterator<Item = &'a RungRun>) -> f64 {
    let (ns, jobs) = runs.into_iter().fold((0, 0), |(ns, jobs), r| {
        (
            ns + r.window.to_ns - r.window.from_ns,
            jobs + r.obs.delivered,
        )
    });
    ratio(ns as f64, jobs as f64)
}

/// The traced run: the workload's jobs replayed at every rung, then the
/// workload itself over the wire with spans on.
pub fn traced_ladder(w: &Workload, generated: &Generated, seconds: u64) -> Result<Outcome, String> {
    let (anchor, _) = paper_anchor()?;
    // modmul, dispatch, service, cluster, two net phases (untraced and
    // traced) and the workload at its own arrival.
    let measure = Duration::from_secs_f64(seconds as f64 / 7.0);
    let m = ladder::modmul(generated, RUNG_WARM, measure, true);
    let (d, dx) = ladder::dispatch(generated, RUNG_WARM, measure, true);
    let s = ladder::service(generated, RUNG_WARM, measure, true);
    let c = ladder::cluster(generated, RUNG_WARM, measure, true);

    let stack = Stack::start(w).map_err(|e| format!("server bind: {e}"))?;
    // The net rung replays closed rounds, as the rungs below it do, so
    // its cost per job compares with theirs. The workload then runs at
    // its offered rate on connections of its own, which give the
    // counters and the generator's lateness.
    let mut conns = connect_all(w, &stack, generated, Arrival::Closed)?;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    // Alternate untraced and traced passes so both see the same host.
    for pass in 0..4 {
        let trace = pass % 2 == 1;
        let window = Window::starting_now(RUNG_WARM / 2, measure / 2);
        let (obs, tracers) = drive(
            w,
            Arrival::Closed,
            generated,
            &mut conns,
            &window,
            false,
            trace,
        );
        let run = RungRun {
            window,
            obs,
            tracers,
        };
        if trace {
            traced.push(run);
        } else {
            untraced.push(run);
        }
    }
    close_all(conns);
    let mut workload_delta = Delta::default();
    let (offered, offered_cpu_ns) = {
        let mut conns = connect_all(w, &stack, generated, w.arrival)?;
        let window = Window::starting_now(RUNG_WARM, measure);
        // Counters over the whole phase, which ends only once every round
        // or due job has its answer, so per-job byte and frame counts are
        // exact; CPU time over the measured interval.
        let before = stack.snapshot();
        let pass = measured_pass(w, w.arrival, generated, &stack, &mut conns, &window, true);
        workload_delta.add(&before, &stack.snapshot());
        close_all(conns);
        let run = RungRun {
            window,
            obs: pass.obs,
            tracers: pass.tracers,
        };
        (run, pass.cpu_ns)
    };
    stack.stop();

    let n_untraced = ns_per_job(&untraced);
    let [m_ns, d_ns, s_ns, c_ns, n_ns] = [
        ns_per_job([&m]),
        ns_per_job([&d]),
        ns_per_job([&s]),
        ns_per_job([&c]),
        ns_per_job(&traced),
    ];
    let s_spans = summarize(&s.tracers);
    let sorted = |xs: &[u32]| {
        let mut v: Vec<u64> = xs.iter().map(|&x| u64::from(x)).collect();
        v.sort_unstable();
        v
    };
    let late_p99 = percentile(&sorted(&offered.obs.late_ns), 0.99);
    let latency = sorted(&offered.obs.latency_ns);
    let latency_us = |q: f64| percentile(&latency, q).map_or(0.0, |p| p.value as f64 / 1e3);
    let wd = &workload_delta;
    let completed: Vec<f64> = wd.tiles.iter().map(|t| t.1 as f64).collect();
    let mean_completed = completed.iter().sum::<f64>() / completed.len().max(1) as f64;
    let max_completed = completed.iter().copied().fold(0.0, f64::max);
    let modelled = wd.modelled_cycles_per_job();

    let everything: Vec<&RungRun> = [&m, &d, &s, &c]
        .into_iter()
        .chain(&untraced)
        .chain(&traced)
        .chain([&offered])
        .collect();
    let attempted: u64 = everything.iter().map(|r| r.obs.attempted()).sum();
    let failed: u64 = everything.iter().map(|r| r.obs.failed()).sum();
    let mismatches: u64 = everything.iter().map(|r| r.obs.mismatches).sum();

    let per_job = |x: u64| ratio(x as f64, wd.accepted as f64);
    let values: Vec<(&'static str, f64)> = vec![
        ("modmul.ns_per_job", m_ns),
        ("modmul.modelled_cycles_per_mul", anchor as f64),
        ("dispatch.ns_per_job", d_ns),
        ("dispatch.added_ns_per_job", d_ns - m_ns),
        ("dispatch.busy_speedup", dx.busy_speedup),
        ("dispatch.pool_hit_ratio", dx.pool_hit_ratio),
        ("service.ns_per_job", s_ns),
        ("service.added_ns_per_job", s_ns - d_ns),
        (
            "service.submit_ns_p50",
            span(&s_spans, Kind::ServiceSubmit).map_or(0.0, |x| x.p50_ns as f64),
        ),
        (
            "service.wait_ns_p99",
            span(&s_spans, Kind::ServiceWait).map_or(0.0, |x| x.p99_ns as f64),
        ),
        (
            "service.coalesce_mean",
            ratio(
                wd.tiles.iter().map(|t| t.1).sum::<u64>() as f64,
                wd.tiles.iter().map(|t| t.2).sum::<u64>() as f64,
            ),
        ),
        (
            "service.refill_cycles_per_job",
            modelled - PAPER_TABLE3_CYCLES as f64,
        ),
        ("cluster.ns_per_job", c_ns),
        ("cluster.added_ns_per_job", c_ns - s_ns),
        (
            "cluster.affinity_hit_rate",
            ratio(wd.affinity_hits as f64, wd.submitted as f64),
        ),
        (
            "cluster.spilled_frac",
            ratio(wd.spilled as f64, wd.submitted as f64),
        ),
        (
            "cluster.tile_imbalance",
            ratio(max_completed, mean_completed),
        ),
        (
            "net.jobs_per_s",
            ratio(offered.obs.delivered as f64, offered.window.measured_s()),
        ),
        ("net.latency_p50_us", latency_us(0.5)),
        ("net.latency_p99_us", latency_us(0.99)),
        (
            "net.cpu_us_per_job",
            ratio(offered_cpu_ns as f64 / 1e3, offered.obs.delivered as f64),
        ),
        ("net.ns_per_job", n_ns),
        ("net.added_ns_per_job", n_ns - c_ns),
        ("net.bytes_in_per_job", per_job(wd.bytes_in)),
        ("net.bytes_out_per_job", per_job(wd.bytes_out)),
        ("net.frames_in_per_job", per_job(wd.frames_in)),
        ("net.frames_out_per_job", per_job(wd.frames_out)),
        ("net.retry_after_per_job", per_job(wd.rejected)),
        (
            "gen.late_p99_us",
            late_p99.as_ref().map_or(0.0, |p| p.value as f64 / 1e3),
        ),
        ("trace.overhead_frac", ratio(n_ns - n_untraced, n_untraced)),
        ("failed_frac", ratio(failed as f64, attempted as f64)),
    ];
    let metrics = values
        .into_iter()
        .map(|(name, value)| Metric { name, value })
        .collect();

    let rung = |name: &str, runs: &[&RungRun]| {
        let tracers = runs.iter().flat_map(|r| &r.tracers);
        json!({
            "rung": name,
            "jobs": runs.iter().map(|r| r.obs.delivered).sum::<u64>(),
            "measured_s": runs.iter().map(|r| r.window.measured_s()).sum::<f64>(),
            "spans": spans_json(&summarize(tracers)),
        })
    };
    let rungs = vec![
        rung("modmul", &[&m]),
        rung("dispatch", &[&d]),
        rung("service", &[&s]),
        rung("cluster", &[&c]),
        rung("net.untraced", &untraced.iter().collect::<Vec<_>>()),
        rung("net", &traced.iter().collect::<Vec<_>>()),
        rung("net.offered", &[&offered]),
    ];
    let detail = json!({
        "rungs": rungs,
        "net_frames": if w.is_open() { "single Submit" } else { "SubmitBatch" },
        "workload_phase": "the workload at its offered rate, traced",
        "gen_late_p99": pct_json(&late_p99),
        "modelled_cycles_per_job": modelled,
        "modelled_tiles": wd.tiles.iter().map(|t| json!({"cycles": t.0, "completed": t.1, "batches": t.2})).collect::<Vec<_>>(),
    });
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        mismatches,
        detail,
    })
}
