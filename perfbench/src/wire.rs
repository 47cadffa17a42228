//! The top rung: a 2-tile `ServiceCluster` behind a `WireServer` on
//! loopback, driven by closed-loop `WireClient`s or by an open-loop
//! generator that writes single-job `Submit` frames on a schedule.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use modsram_core::cluster::{ClusterConfig, ClusterStats, ServiceCluster};
use modsram_core::service::ServiceConfig;
use modsram_net::frame::{read_frame, read_frame_into, write_frame, DEFAULT_MAX_PAYLOAD};
use modsram_net::{
    Frame, NetBackend, NetStats, TenantLimits, TenantRegistry, WireClient, WireConfig, WireError,
    WireResponse, WireServer,
};

use crate::clock::{Observed, Recorder, Window};
use crate::trace::{Kind, Tracer};
use crate::workload::{Arrival, Generated, Workload, STREAM_JOBS, TILES, WINDOW};

/// Tenant name and API key of connection `c`.
fn tenant(c: usize) -> (String, u64) {
    (format!("tenant{c}"), 0x7E4A_0000 + c as u64)
}

/// The cluster every rung from `cluster` up runs: `TILES` tiles of
/// `engine` with one worker each, the default spill policy and default
/// service settings.
pub fn cluster(engine: &str) -> ServiceCluster {
    ServiceCluster::for_engine_name(
        engine,
        TILES,
        ClusterConfig {
            service: ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            ..ClusterConfig::default()
        },
    )
    .expect("workload engines are in the registry")
}

/// A cluster served over loopback.
pub struct Stack {
    cluster: ServiceCluster,
    server: WireServer,
}

impl Stack {
    /// Builds the cluster, registers one tenant per connection and binds
    /// the server on an ephemeral loopback port.
    pub fn start(w: &Workload) -> std::io::Result<Stack> {
        let cluster = cluster(w.engine);
        let registry = Arc::new(TenantRegistry::new());
        for c in 0..w.connections {
            let (name, key) = tenant(c);
            registry.register(&name, key, TenantLimits::default());
        }
        let server = WireServer::bind(
            "127.0.0.1:0",
            NetBackend::Cluster(cluster.handle()),
            registry,
            WireConfig::default(),
        )?;
        Ok(Stack { cluster, server })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Counters of both layers at one instant.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            net: self.server.stats(),
            cluster: self.cluster.stats(),
        }
    }

    /// Drains the server, then the cluster.
    pub fn stop(self) {
        self.server.shutdown();
        self.cluster.shutdown();
    }
}

/// Net and cluster counters taken together.
#[derive(Debug, Clone)]
pub struct Snapshot {
    net: NetStats,
    cluster: ClusterStats,
}

/// Counter growth between two snapshots, summed over any number of
/// intervals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Delta {
    pub accepted: u64,
    pub rejected: u64,
    pub frames_in: u64,
    pub frames_out: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub submitted: u64,
    pub affinity_hits: u64,
    pub spilled: u64,
    /// Per tile: (modelled cycles, completed jobs, batches).
    pub tiles: Vec<(u64, u64, u64)>,
}

impl Delta {
    /// Adds the growth from `before` to `after`.
    pub fn add(&mut self, before: &Snapshot, after: &Snapshot) {
        let (b, a) = (&before.net, &after.net);
        self.accepted += a.accepted - b.accepted;
        self.rejected += a.rejected - b.rejected;
        self.frames_in += a.frames_in - b.frames_in;
        self.frames_out += a.frames_out - b.frames_out;
        self.bytes_in += a.bytes_in - b.bytes_in;
        self.bytes_out += a.bytes_out - b.bytes_out;
        let (b, a) = (&before.cluster, &after.cluster);
        self.submitted += a.submitted - b.submitted;
        self.affinity_hits += a.affinity_hits - b.affinity_hits;
        self.spilled += a.spilled - b.spilled;
        self.tiles.resize(a.tiles.len(), (0, 0, 0));
        for ((acc, ta), tb) in self.tiles.iter_mut().zip(&a.tiles).zip(&b.tiles) {
            acc.0 += ta.service.modelled_cycles_total - tb.service.modelled_cycles_total;
            acc.1 += ta.service.completed - tb.service.completed;
            acc.2 += ta.service.batches - tb.service.batches;
        }
    }

    /// The busiest tile's modelled cycles divided by the jobs it
    /// completed: device time per job on the tile that bounds the
    /// cluster's makespan.
    pub fn modelled_cycles_per_job(&self) -> f64 {
        self.tiles
            .iter()
            .max_by_key(|t| t.0)
            .map_or(0.0, |t| crate::report::ratio(t.0 as f64, t.1 as f64))
    }
}

/// One connection to the server.
pub enum Conn {
    /// A closed-loop client.
    Client(WireClient),
    /// A raw frame connection for the open-loop generator, whose reads
    /// and writes run on separate threads.
    Frames(FrameConn),
}

/// An authenticated connection spoken in raw frames.
pub struct FrameConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
    payload: Vec<u8>,
}

impl FrameConn {
    /// Connects and authenticates as `tenant`.
    pub fn connect(addr: SocketAddr, tenant: &str, key: u64) -> Result<FrameConn, WireError> {
        let mut writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let hello = Frame::Hello {
            tenant: tenant.to_string(),
            key,
        };
        write_frame(&mut writer, &hello)?;
        match read_frame(&mut writer, DEFAULT_MAX_PAYLOAD)? {
            Some((Frame::HelloOk { .. }, _)) => {}
            other => return Err(WireError::Malformed(format!("no HelloOk: {other:?}"))),
        }
        let reader = BufReader::new(writer.try_clone()?);
        Ok(FrameConn {
            writer,
            reader,
            buf: Vec::with_capacity(256),
            payload: Vec::new(),
        })
    }

    fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
        send_on(&mut self.writer, &mut self.buf, frame)
    }

    fn recv(&mut self) -> Result<Option<Frame>, WireError> {
        Ok(read_frame_into(&mut self.reader, DEFAULT_MAX_PAYLOAD, &mut self.payload)?.map(|f| f.0))
    }

    /// Says `Goodbye` and reads until the server's `Bye`.
    fn close(mut self) {
        if self.send(&Frame::Goodbye).is_ok() {
            while let Ok(Some(frame)) = self.recv() {
                if matches!(frame, Frame::Bye { .. }) {
                    break;
                }
            }
        }
    }
}

fn send_on(writer: &mut TcpStream, buf: &mut Vec<u8>, frame: &Frame) -> Result<(), WireError> {
    buf.clear();
    frame.encode(buf);
    writer.write_all(buf)?;
    Ok(())
}

/// Request ids the set-up uses on frame connections, far above any id a
/// run reaches.
const SETUP_REQ_BASE: u64 = 1 << 48;

/// Connects every connection of `w`, as raw frame connections for an
/// open `arrival` and as `WireClient`s for a closed one, and gets a first
/// correct result for every modulus it uses.
pub fn connect_all(
    w: &Workload,
    stack: &Stack,
    generated: &Generated,
    arrival: Arrival,
) -> Result<Vec<Conn>, String> {
    let mut conns = Vec::with_capacity(w.connections);
    for c in 0..w.connections {
        let (name, key) = tenant(c);
        let stream = &generated.streams[c];
        let err = |e: WireError| format!("connection {c}: {e}");
        if let Arrival::Open { .. } = arrival {
            let mut conn = FrameConn::connect(stack.addr(), &name, key).map_err(err)?;
            for (k, &i) in stream.first_per_modulus.iter().enumerate() {
                let frame = Frame::Submit {
                    req_id: SETUP_REQ_BASE + k as u64,
                    job: stream.jobs[i].clone(),
                };
                conn.send(&frame).map_err(err)?;
            }
            for _ in 0..stream.first_per_modulus.len() {
                match conn.recv().map_err(err)? {
                    Some(Frame::Done { req_id, product }) => {
                        let k = (req_id - SETUP_REQ_BASE) as usize;
                        let i = stream.first_per_modulus[k];
                        if product != stream.oracle[i] {
                            return Err(format!("set-up job {i} diverged from the oracle"));
                        }
                    }
                    other => return Err(format!("set-up answer: {other:?}")),
                }
            }
            conns.push(Conn::Frames(conn));
        } else {
            let mut client = WireClient::connect(stack.addr(), &name, key).map_err(err)?;
            let first = &stream.first_per_modulus;
            let ids = client
                .submit_batch_refs(first.iter().map(|&i| &stream.jobs[i]))
                .map_err(err)?;
            for (id, &i) in ids.zip(first) {
                match client.wait(id).map_err(err)? {
                    WireResponse::Done(product) if product == stream.oracle[i] => {}
                    other => return Err(format!("set-up job {i}: {other:?}")),
                }
            }
            conns.push(Conn::Client(client));
        }
    }
    Ok(conns)
}

/// Closes every connection.
pub fn close_all(conns: Vec<Conn>) {
    for conn in conns {
        match conn {
            Conn::Client(client) => {
                let _ = client.close();
            }
            Conn::Frames(conn) => conn.close(),
        }
    }
}

/// Resubmits a refused job as a single `Submit` until it is accepted,
/// honouring the server's hint for at most 5 ms per attempt.
fn retry(client: &mut WireClient, job: &modsram_core::MulJob) -> Result<WireResponse, WireError> {
    for _ in 0..1000 {
        let id = client.submit(job.clone())?;
        match client.wait(id)? {
            WireResponse::RetryAfter { millis, .. } => {
                std::thread::sleep(Duration::from_millis(u64::from(millis.clamp(1, 5))));
            }
            answer => return Ok(answer),
        }
    }
    Err(WireError::Malformed("refused 1000 times in a row".into()))
}

/// One closed-loop connection: rounds of `WINDOW` jobs from stream
/// `stream_ix` until the window ends, in the frames `w` sends: one
/// `SubmitBatch` per round for a closed-loop workload, one single-job
/// `Submit` per job for the open-loop one, whose traced run replays its
/// jobs in closed rounds. Latency runs from a job's first submit to its
/// answer.
pub fn closed_loop(
    client: &mut WireClient,
    w: &Workload,
    generated: &Generated,
    stream_ix: usize,
    rec: &mut Recorder,
    tracer: &mut Tracer,
) {
    let stream = &generated.streams[stream_ix];
    let rounds = STREAM_JOBS / WINDOW;
    let mut last_answer: Option<u64> = None;
    let mut ids = Vec::with_capacity(WINDOW);
    for r in 0.. {
        if rec.window.over() {
            break;
        }
        let base = ((r + stream_ix) % rounds) * WINDOW;
        let root = tracer.begin(Kind::Round, None);
        let start = rec.window.now_ns();
        if let Some(prev) = last_answer {
            rec.late(prev, start);
        }
        ids.clear();
        let submitted = if w.is_open() {
            (base..base + WINDOW).try_for_each(|i| {
                let job = stream.jobs[i].clone();
                let span = tracer.begin(Kind::NetSubmit, Some(root));
                let id = client.submit(job);
                tracer.end(span);
                ids.push(id?);
                Ok(())
            })
        } else {
            let span = tracer.begin(Kind::NetSubmit, Some(root));
            let range = client.submit_batch_refs(stream.jobs[base..base + WINDOW].iter());
            tracer.end(span);
            range.map(|range| ids.extend(range))
        };
        if submitted.is_err() {
            rec.obs.lost += WINDOW as u64;
            return;
        }
        for (k, &id) in ids.iter().enumerate() {
            let i = base + k;
            let span = tracer.begin(Kind::NetWait, Some(root));
            let mut answer = client.wait(id);
            tracer.end(span);
            if let Ok(WireResponse::RetryAfter { .. }) = answer {
                rec.obs.retries += 1;
                answer = retry(client, &stream.jobs[i]);
            }
            let now = rec.window.now_ns();
            match answer {
                Ok(WireResponse::Done(product)) => rec.done(stream_ix, i, &product, start, now),
                Ok(_) => rec.failed(),
                Err(_) => {
                    rec.obs.lost += (WINDOW - k) as u64;
                    return;
                }
            }
        }
        tracer.end(root);
        last_answer = Some(rec.window.now_ns());
    }
}

/// Takes the refused jobs the reader has queued into `resends` and sends
/// every one whose resend time is not after `now_ns`.
fn resend_due(
    resends: &mut Vec<(u64, u64)>,
    queued: &mpsc::Receiver<(u64, u64)>,
    now_ns: u64,
    send: &mut impl FnMut(u64) -> Result<(), WireError>,
) -> Result<(), WireError> {
    resends.extend(queued.try_iter());
    let mut sent = Ok(());
    resends.retain(|&(k, at)| {
        if at > now_ns || sent.is_err() {
            return true;
        }
        sent = send(k);
        false
    });
    sent
}

/// How long the open-loop reader waits for missing answers once every
/// job is sent.
const ANSWER_GRACE: Duration = Duration::from_secs(2);

/// The open loop: job `k` of stream 0 is due `k / rate` seconds after the
/// window's start and goes out as one `Submit` frame with id `k + 1`,
/// however late the generator is; a reader thread timestamps answers as
/// they arrive. A job the server refuses goes out again under the same
/// id once the server's hint (at most 5 ms) has passed, as a client
/// would resend it; its latency still runs from its due time. Jobs are
/// due until the window ends. Returns once every job is answered (or
/// the grace period runs out), leaving the connection open so the caller
/// can read the server's counters before `Goodbye`.
pub fn open_loop(
    conn: &mut FrameConn,
    generated: &Generated,
    rate_per_s: f64,
    window: &Window,
    keep_latency: bool,
    tracer: &mut Tracer,
) -> Observed {
    let interval_ns = 1e9 / rate_per_s;
    let due = |k: u64| (k as f64 * interval_ns) as u64;
    let total = (window.to_ns as f64 / interval_ns).ceil() as u64;
    let stream = &generated.streams[0];
    let job = |k: u64| stream.jobs[(k % STREAM_JOBS as u64) as usize].clone();
    let FrameConn {
        writer,
        reader,
        buf,
        payload,
    } = conn;
    let _ = reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(100)));
    // Refused jobs, as (job, when to resend), from the reader to the
    // writer. The reader's end closing tells the writer to stop.
    let (resend_tx, resend_rx) = mpsc::channel::<(u64, u64)>();
    std::thread::scope(|s| {
        let receiver = s.spawn(move || {
            let mut rec = Recorder::new(window, generated, keep_latency);
            let mut answered = 0u64;
            let mut answered_due_in_window = 0u64;
            let mut last_progress = Instant::now();
            while answered < total {
                match read_frame_into(reader, DEFAULT_MAX_PAYLOAD, payload) {
                    Ok(Some((frame, _))) => {
                        last_progress = Instant::now();
                        let now = window.now_ns();
                        let k = match &frame {
                            Frame::Done { req_id, .. }
                            | Frame::JobFailed { req_id, .. }
                            | Frame::RetryAfter { req_id, .. } => *req_id - 1,
                            _ => break,
                        };
                        let in_window = window.contains(due(k));
                        match frame {
                            Frame::RetryAfter { millis, .. } => {
                                rec.obs.retries += 1;
                                let wait = u64::from(millis.clamp(1, 5)) * 1_000_000;
                                if resend_tx.send((k, now + wait)).is_err() {
                                    break;
                                }
                                continue;
                            }
                            Frame::Done { product, .. } => {
                                let i = (k % STREAM_JOBS as u64) as usize;
                                rec.done(0, i, &product, due(k), now);
                            }
                            Frame::JobFailed { .. } if in_window => rec.failed(),
                            _ => {}
                        }
                        answered += 1;
                        answered_due_in_window += u64::from(in_window);
                    }
                    Err(WireError::Io(e))
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        if window.over() && last_progress.elapsed() > ANSWER_GRACE {
                            break;
                        }
                    }
                    _ => break,
                }
            }
            let _ = reader.get_ref().set_read_timeout(None);
            (rec, answered_due_in_window)
        });
        let mut rec = Recorder::new(window, generated, false);
        let mut resends: Vec<(u64, u64)> = Vec::new();
        let mut send = |k: u64| {
            send_on(
                writer,
                buf,
                &Frame::Submit {
                    req_id: k + 1,
                    job: job(k),
                },
            )
        };
        for k in 0..total {
            window.sleep_until(due(k));
            if resend_due(&mut resends, &resend_rx, window.now_ns(), &mut send).is_err() {
                break;
            }
            let issued = window.now_ns();
            let span = tracer.begin(Kind::NetSend, None);
            let sent = send(k);
            tracer.end(span);
            rec.late(due(k), issued);
            if sent.is_err() {
                break;
            }
        }
        // Keep resending until the reader has every answer it waits for.
        loop {
            match resend_rx.recv_timeout(Duration::from_millis(1)) {
                Ok(r) => resends.push(r),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
            if resend_due(&mut resends, &resend_rx, window.now_ns(), &mut send).is_err() {
                break;
            }
        }
        let (received, answered) = receiver.join().expect("open-loop reader panicked");
        let mut obs = received.obs;
        obs.merge(rec.obs);
        obs.due = (0..total).filter(|&k| window.contains(due(k))).count() as u64;
        obs.lost = obs.due.saturating_sub(answered);
        obs
    })
}
