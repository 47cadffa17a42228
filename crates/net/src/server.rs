//! The threaded serving runtime: an acceptor thread plus, per
//! connection, a reader / completer pair that pushes [`Ticket`]
//! completions back onto the socket.
//!
//! No thread on the wire path waits on a timer:
//!
//! * the **reader** blocks in `read`, parses frames and runs admission
//!   control (the drain and tenant limits per job, then one
//!   `try_submit_many` per frame into the backend), so a saturated
//!   cluster answers with a typed [`Frame::RetryAfter`] instead of a
//!   stalled or dropped connection. A [`Frame::SubmitBatch`] thus
//!   reaches its tile whole: the client's batch is the tile's batch
//!   too. Each accepted ticket gets a [`Ticket::on_done`] hook;
//! * the hook runs on the thread that completes the job and appends
//!   the result to the connection's **outbox**, waking the completer
//!   only when the outbox was empty. Results therefore leave **out of
//!   submission order**, as they finish: one slow job never blocks a
//!   finished one behind it;
//! * the **completer** blocks on the outbox, takes everything in it
//!   and writes it as one coalesced send. Whatever finished while the
//!   previous send was in progress is the next send, so bursts batch
//!   themselves on the way out as they do on the way in.
//!
//! Both sides write through one [`ConnWriter`] mutex, each call
//! coalescing its frames into a single `write` — a burst of completions
//! costs one syscall (and one packet on the nodelay socket), and
//! partial writes never interleave. A peer that stops reading
//! eventually blocks the writer mid-send; that backpressure
//! deliberately propagates to the reader rather than growing an
//! unbounded frame queue.
//!
//! The acceptor blocks in `accept`, so a connecting client waits on
//! no timer. A drain wakes it with one loopback connect; the acceptor
//! sees the drain flag, drops that stream unmetered and exits.
//!
//! Graceful drain ([`WireServer::shutdown`]): the acceptor stops
//! (listener refused), then the drain shuts the read half of every
//! connection's socket, so a reader blocked in `read` (in the
//! handshake too) sees end-of-stream at once. A reader that still
//! finds a buffered frame refuses its jobs with
//! [`RetryReason::Draining`] and stops. The completer delivers every
//! accepted in-flight ticket, then the connection says [`Frame::Bye`]
//! and closes. Zero accepted responses are lost.

use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use modsram_bigint::UBig;
use modsram_core::cluster::{ClusterHandle, ClusterSubmitError};
use modsram_core::dispatch::MulJob;
use modsram_core::service::{ServiceError, SubmitError, SubmitHandle, Ticket};

use crate::frame::{read_frame_into, write_frame, Frame, RetryReason, DEFAULT_MAX_PAYLOAD};
use crate::stats::{NetMeter, NetStats};
use crate::tenant::{TenantCell, TenantRefusal, TenantRegistry};

/// What the wire server submits into: a single service tile or a whole
/// cluster. Tile backends exist for tenant-pinned deployments (and are
/// how a live [`drain_tile`](modsram_core::cluster::ServiceCluster::drain_tile)
/// surfaces as [`RetryReason::TilePaused`] at the wire boundary —
/// grab the tile via
/// [`tile_service`](modsram_core::cluster::ServiceCluster::tile_service)).
#[derive(Clone)]
pub enum NetBackend {
    /// One tile's submission handle.
    Tile(SubmitHandle),
    /// A cluster's routing handle.
    Cluster(ClusterHandle),
}

/// Outcome of offering one job to the backend.
enum Admission {
    Accepted(Ticket),
    Retry(RetryReason),
    /// The backend is gone for good — answered as a terminal
    /// [`Frame::JobFailed`], not a retry hint.
    Dead(&'static str),
}

impl NetBackend {
    /// Offers jobs without blocking, one outcome per job in job order.
    /// The backend queues each tile's share whole, so a `SubmitBatch`
    /// frame is one tile batch.
    fn try_submit_many(&self, jobs: Vec<MulJob>) -> Vec<Admission> {
        match self {
            NetBackend::Tile(handle) => {
                let (tickets, refused) = handle.try_submit_many(jobs);
                let refused = refused.into_iter().flat_map(|(e, rest)| {
                    let refusal = move || match e {
                        SubmitError::QueueFull => Admission::Retry(RetryReason::QueueFull),
                        SubmitError::Paused => Admission::Retry(RetryReason::TilePaused),
                        SubmitError::Stopped => Admission::Dead("tile stopped"),
                    };
                    std::iter::repeat_with(refusal).take(rest.len())
                });
                tickets
                    .into_iter()
                    .map(Admission::Accepted)
                    .chain(refused)
                    .collect()
            }
            NetBackend::Cluster(handle) => handle
                .try_submit_many(jobs)
                .into_iter()
                .map(|outcome| match outcome {
                    Ok(ticket) => Admission::Accepted(ticket),
                    Err(ClusterSubmitError::AllTilesSaturated { tried }) => {
                        Admission::Retry(RetryReason::Saturated {
                            tried: tried as u32,
                        })
                    }
                    Err(ClusterSubmitError::Stopped) => Admission::Dead("cluster stopped"),
                })
                .collect(),
        }
    }
}

/// Tunables for one [`WireServer`].
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// Per-frame payload cap (oversized frames are refused before
    /// allocation and fail the connection).
    pub max_frame_bytes: u32,
    /// Backoff hint put in [`Frame::RetryAfter`] for backpressure
    /// refusals (rate-limit refusals compute their own from the token
    /// deficit).
    pub retry_after_hint: Duration,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            max_frame_bytes: DEFAULT_MAX_PAYLOAD,
            retry_after_hint: Duration::from_millis(1),
        }
    }
}

struct ServerShared {
    backend: NetBackend,
    registry: Arc<TenantRegistry>,
    config: WireConfig,
    meter: NetMeter,
    draining: AtomicBool,
}

/// One finished job, pushed by its ticket's completion hook.
struct Delivery {
    req_id: u64,
    t0: Instant,
    result: Result<UBig, ServiceError>,
}

/// Finished jobs waiting for the connection's completer.
struct Outbox {
    state: Mutex<OutboxState>,
    wake: Condvar,
}

struct OutboxState {
    done: Vec<Delivery>,
    /// Accepted jobs the completer has not taken yet.
    outstanding: usize,
    /// Reader finished (Goodbye, end of stream, drain, error): no more
    /// accepted jobs.
    reads_done: bool,
}

impl Outbox {
    fn new() -> Self {
        Outbox {
            state: Mutex::new(OutboxState {
                done: Vec::new(),
                outstanding: 0,
                reads_done: false,
            }),
            wake: Condvar::new(),
        }
    }

    /// Counts `n` accepted jobs, before their hooks can push.
    fn add_outstanding(&self, n: usize) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .outstanding += n;
    }

    /// A completion hook's push. Only the push that makes the outbox
    /// non-empty wakes the completer: it takes everything at once.
    fn push(&self, delivery: Delivery) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let was_empty = state.done.is_empty();
        state.done.push(delivery);
        drop(state);
        if was_empty {
            self.wake.notify_one();
        }
    }

    fn reads_done(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .reads_done = true;
        self.wake.notify_one();
    }

    /// Blocks until deliveries are ready and swaps them all into
    /// `batch` (which must be empty); `false` once reads are done and
    /// every accepted job has been taken.
    fn take(&self, batch: &mut Vec<Delivery>) -> bool {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if !state.done.is_empty() {
                std::mem::swap(&mut state.done, batch);
                state.outstanding = state.outstanding.saturating_sub(batch.len());
                return true;
            }
            if state.reads_done && state.outstanding == 0 {
                return false;
            }
            state = self
                .wake
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The connection's shared write half. Reader (refusals, failures)
/// and completer (deliveries, `Bye`) serialise through the mutex; each
/// [`ConnWriter::send`] coalesces its frames into one buffer and one
/// `write_all`.
struct ConnWriter {
    state: Mutex<ConnWriterState>,
}

struct ConnWriterState {
    stream: TcpStream,
    /// Reused encode buffer.
    buf: Vec<u8>,
    /// Set on the first write failure: the peer vanished, every later
    /// send becomes a no-op so ticket draining can still finish.
    dead: bool,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> Self {
        ConnWriter {
            state: Mutex::new(ConnWriterState {
                stream,
                buf: Vec::with_capacity(4096),
                dead: false,
            }),
        }
    }

    fn send(&self, meter: &NetMeter, tenant: Option<&str>, frames: &[Frame]) {
        if frames.is_empty() {
            return;
        }
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.dead {
            return;
        }
        let mut buf = std::mem::take(&mut state.buf);
        buf.clear();
        for frame in frames {
            frame.encode(&mut buf);
        }
        meter.frames_out_batch(tenant, frames.len() as u64, buf.len());
        if state.stream.write_all(&buf).is_err() {
            state.dead = true;
        }
        state.buf = buf;
    }

    /// Flushes and shuts the socket down (both directions) — unblocks
    /// a reader parked in `read`, which is how a drain reaches clients
    /// that never say `Goodbye`.
    fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = state.stream.flush();
        let _ = state.stream.shutdown(Shutdown::Both);
        state.dead = true;
    }
}

/// A TCP front-end serving one backend to authenticated tenants.
///
/// Bind with [`WireServer::bind`], connect with
/// [`crate::client::WireClient`], stop with [`WireServer::shutdown`]
/// (graceful drain) — dropping the server also drains it.
pub struct WireServer {
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<Conn>>>,
    stopped: bool,
}

/// One live connection as the drain sees it.
struct Conn {
    thread: JoinHandle<()>,
    /// A clone of the socket, whose read half the drain shuts.
    stream: TcpStream,
}

impl WireServer {
    /// Binds `addr` (use port 0 for an ephemeral loopback port) and
    /// starts the acceptor, which blocks in `accept` until a client or
    /// the drain's wake connection arrives.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(
        addr: impl ToSocketAddrs,
        backend: NetBackend,
        registry: Arc<TenantRegistry>,
        config: WireConfig,
    ) -> io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            backend,
            registry,
            config,
            meter: NetMeter::new(),
            draining: AtomicBool::new(false),
        });
        let conns = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            // bind() already returns io::Result, so a refused thread
            // spawn reports through the same channel as a refused port.
            std::thread::Builder::new()
                .name("wire-acceptor".into())
                .spawn(move || accept_loop(listener, shared, conns))?
        };
        Ok(WireServer {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            conns,
            stopped: false,
        })
    }

    /// The bound address (the ephemeral port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A live metering snapshot.
    pub fn stats(&self) -> NetStats {
        self.shared.meter.snapshot()
    }

    /// `true` once a drain has started.
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Graceful drain: wake the blocked acceptor with one loopback
    /// connect and refuse the listener, end every connection's reads
    /// (a frame still buffered is refused with
    /// [`RetryReason::Draining`]), deliver every accepted in-flight
    /// response, close every connection, and return the final
    /// metering snapshot. Neither the wake connection nor a client
    /// that connects mid-drain is counted in
    /// [`NetStats::connections_accepted`].
    pub fn shutdown(mut self) -> NetStats {
        self.drain();
        self.shared.meter.snapshot()
    }

    fn drain(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        self.shared.draining.store(true, Ordering::Release);
        if let Some(acceptor) = self.acceptor.take() {
            // Unblock the acceptor's `accept` so it sees the flag. If
            // the wake cannot connect, the acceptor is left to exit at
            // its next accept rather than hang the shutdown on a join.
            if TcpStream::connect_timeout(&wake_addr(self.local_addr), WAKE_TIMEOUT).is_ok() {
                let _ = acceptor.join();
            }
        }
        // Connection threads join their own completer, so joining them
        // drains the whole runtime. New entries can't appear: the
        // acceptor is gone, or (after a failed wake) meters nothing it
        // accepts from here on.
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(PoisonError::into_inner));
        // A reader blocked in `read`, in the handshake too, sees the
        // end of its stream at once.
        for conn in &conns {
            let _ = conn.stream.shutdown(Shutdown::Read);
        }
        for conn in conns {
            let _ = conn.thread.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Bound on the drain's wake connect; loopback answers in microseconds.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Where the drain's wake connection goes: the bound address, with an
/// unspecified IP (`0.0.0.0` / `::`) rewritten to the same family's
/// loopback address.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>, conns: Arc<Mutex<Vec<Conn>>>) {
    loop {
        if shared.draining.load(Ordering::Acquire) {
            // Dropping the listener refuses new connections at the OS
            // level while existing ones drain.
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.draining.load(Ordering::Acquire) {
                    // The drain's wake connection, or a client that
                    // arrived mid-drain: close it unmetered, so
                    // connections_accepted == connections_closed.
                    return;
                }
                shared.meter.connection_accepted();
                // Without a clone the drain could not end this
                // connection's reads; shed it (the dropped stream
                // closes the socket).
                let Ok(drain_half) = stream.try_clone() else {
                    shared.meter.connection_closed();
                    continue;
                };
                let conn_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("wire-conn".into())
                    .spawn(move || connection_main(stream, conn_shared));
                match spawned {
                    Ok(thread) => {
                        let mut conns = conns.lock().unwrap_or_else(PoisonError::into_inner);
                        // Forget finished connections, so their socket
                        // clones close now rather than at the drain.
                        conns.retain(|conn| !conn.thread.is_finished());
                        conns.push(Conn {
                            thread,
                            stream: drain_half,
                        });
                    }
                    // Thread exhaustion sheds this connection (the
                    // dropped stream closes the socket) instead of
                    // killing the acceptor for everyone.
                    Err(_) => shared.meter.connection_closed(),
                }
            }
            // analyzer: allow(no_sleep, accept errors such as EMFILE repeat at once; back off)
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn connection_main(mut stream: TcpStream, shared: Arc<ServerShared>) {
    serve_connection(&mut stream, &shared);
    // The drain holds a clone of this socket, so dropping `stream`
    // alone would leave it open.
    let _ = stream.shutdown(Shutdown::Both);
    shared.meter.connection_closed();
}

/// Runs one connection: the handshake, then the reader on this thread
/// and the completer on its own, until both are done.
fn serve_connection(stream: &mut TcpStream, shared: &Arc<ServerShared>) {
    let _ = stream.set_nodelay(true);

    // ---- handshake: first frame must be Hello -------------------------
    let hello = read_frame_into(stream, shared.config.max_frame_bytes, &mut Vec::new());
    let tenant: Arc<TenantCell> = match hello {
        Ok(Some((Frame::Hello { tenant, key }, bytes))) => {
            shared.meter.frame_in(None, bytes);
            match shared.registry.authenticate(&tenant, key) {
                Ok(cell) => {
                    let ok = Frame::HelloOk {
                        max_inflight: cell.limits().max_inflight,
                    };
                    match write_frame(stream, &ok) {
                        Ok(n) => shared.meter.frame_out(Some(cell.name()), n),
                        Err(_) => return,
                    }
                    cell
                }
                Err(why) => {
                    shared.meter.auth_failure();
                    let frame = Frame::HelloErr {
                        reason: why.to_string(),
                    };
                    if let Ok(n) = write_frame(stream, &frame) {
                        shared.meter.frame_out(None, n);
                    }
                    return;
                }
            }
        }
        Ok(Some((_, bytes))) => {
            shared.meter.frame_in(None, bytes);
            shared.meter.auth_failure();
            let frame = Frame::HelloErr {
                reason: "expected Hello as the first frame".into(),
            };
            if let Ok(n) = write_frame(stream, &frame) {
                shared.meter.frame_out(None, n);
            }
            return;
        }
        Ok(None) | Err(_) => return,
    };

    // ---- completer ----------------------------------------------------
    // A socket that can't be cloned can't carry responses; close it
    // before any job is admitted rather than panic the acceptor's
    // child and strand the tenant session.
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(ConnWriter::new(write_half));
    let outbox = Arc::new(Outbox::new());
    let completer = {
        let conn_shared = Arc::clone(shared);
        let outbox = Arc::clone(&outbox);
        let tenant = Arc::clone(&tenant);
        let writer = Arc::clone(&writer);
        let spawned = std::thread::Builder::new()
            .name("wire-completer".into())
            .spawn(move || completer_loop(conn_shared, outbox, tenant, writer));
        match spawned {
            Ok(handle) => handle,
            // Without a completer no response can ever be delivered;
            // shed the connection while nothing is in flight yet.
            Err(_) => return,
        }
    };

    // ---- reader loop (this thread) ------------------------------------
    reader_loop(stream, shared, &outbox, &tenant, &writer);
    let _ = completer.join();
}

/// Reads and admits frames until `Goodbye`, the end of the stream (the
/// peer's, or the drain's read shutdown), an error, or a frame that met
/// the drain; then tells the completer no more jobs are coming.
fn reader_loop(
    stream: &mut TcpStream,
    shared: &ServerShared,
    outbox: &Arc<Outbox>,
    tenant: &Arc<TenantCell>,
    writer: &ConnWriter,
) {
    let mut payload = Vec::new();
    while let Ok(Some((frame, bytes))) =
        read_frame_into(stream, shared.config.max_frame_bytes, &mut payload)
    {
        shared.meter.frame_in(Some(tenant.name()), bytes);
        let drained = match frame {
            Frame::Submit { req_id, job } => {
                admit(shared, outbox, tenant, writer, req_id, vec![job])
            }
            Frame::SubmitBatch { first_req_id, jobs } => {
                admit(shared, outbox, tenant, writer, first_req_id, jobs)
            }
            // Goodbye ends the session; anything else from a client is
            // a protocol error, so close rather than guess.
            _ => break,
        };
        if drained {
            break;
        }
    }
    outbox.reads_done();
}

/// Admits the jobs of one `Submit` or `SubmitBatch` frame, with ids
/// counting up from `first_req_id`. Each job passes the drain check and
/// the tenant's limits; the survivors reach the backend in one
/// non-blocking `try_submit_many`, and each accepted ticket pushes its
/// result to `outbox` when done. Returns whether the drain refused any
/// job, after which the reader admits nothing more.
fn admit(
    shared: &ServerShared,
    outbox: &Arc<Outbox>,
    tenant: &Arc<TenantCell>,
    writer: &ConnWriter,
    first_req_id: u64,
    jobs: Vec<MulJob>,
) -> bool {
    let t0 = Instant::now();
    let hint = shared.config.retry_after_hint.as_millis() as u32;
    let mut drained = false;
    let (mut ids, mut offered) = (Vec::with_capacity(jobs.len()), Vec::new());
    for (i, job) in jobs.into_iter().enumerate() {
        let req_id = first_req_id.wrapping_add(i as u64);
        drained = drained || shared.draining.load(Ordering::Acquire);
        let refusal = if drained {
            Some((RetryReason::Draining, hint))
        } else {
            match tenant.begin_job() {
                Ok(()) => None,
                Err(TenantRefusal::RateLimited { retry_after }) => Some((
                    RetryReason::RateLimited,
                    (retry_after.as_millis() as u32).max(1),
                )),
                Err(TenantRefusal::InflightFull) => Some((RetryReason::InflightCap, hint)),
            }
        };
        match refusal {
            Some((reason, millis)) => reject(shared, tenant, writer, req_id, reason, millis),
            None => {
                ids.push(req_id);
                offered.push(job);
            }
        }
    }
    if offered.is_empty() {
        return drained;
    }
    let admissions = shared.backend.try_submit_many(offered);
    // Counted before any hook can push, so the completer never sees
    // more deliveries than accepted jobs.
    let accepted = admissions
        .iter()
        .filter(|a| matches!(a, Admission::Accepted(_)))
        .count();
    outbox.add_outstanding(accepted);
    for (req_id, admission) in ids.into_iter().zip(admissions) {
        match admission {
            Admission::Accepted(ticket) => {
                shared.meter.job_accepted(tenant.name());
                let outbox = Arc::clone(outbox);
                ticket.on_done(move |result| {
                    outbox.push(Delivery { req_id, t0, result });
                });
            }
            Admission::Retry(reason) => {
                tenant.end_job();
                reject(shared, tenant, writer, req_id, reason, hint);
            }
            Admission::Dead(why) => {
                tenant.end_job();
                shared.meter.job_dead(tenant.name());
                let failed = Frame::JobFailed {
                    req_id,
                    reason: why.to_string(),
                };
                writer.send(&shared.meter, Some(tenant.name()), &[failed]);
            }
        }
    }
    drained
}

fn reject(
    shared: &ServerShared,
    tenant: &Arc<TenantCell>,
    writer: &ConnWriter,
    req_id: u64,
    reason: RetryReason,
    millis: u32,
) {
    shared.meter.job_rejected(tenant.name(), reason);
    writer.send(
        &shared.meter,
        Some(tenant.name()),
        &[Frame::RetryAfter {
            req_id,
            reason,
            millis,
        }],
    );
}

fn completer_loop(
    shared: Arc<ServerShared>,
    outbox: Arc<Outbox>,
    tenant: Arc<TenantCell>,
    writer: Arc<ConnWriter>,
) {
    let mut delivered: u64 = 0;
    let mut batch: Vec<Delivery> = Vec::new();
    let mut frames: Vec<Frame> = Vec::new();
    let mut outcomes = DeliveryOutcomes::default();
    // Whatever finished since the last take goes out as one write, with
    // one metering pass covering all of it.
    while outbox.take(&mut batch) {
        frames.clear();
        for done in batch.drain(..) {
            delivered += 1;
            frames.push(resolve_unmetered(&tenant, done, &mut outcomes));
        }
        outcomes.meter(&shared, &tenant);
        writer.send(&shared.meter, Some(tenant.name()), &frames);
    }
    writer.send(
        &shared.meter,
        Some(tenant.name()),
        &[Frame::Bye {
            completed: delivered,
        }],
    );
    writer.close();
}

/// Outcome tallies for one delivery burst, metered in a single pass
/// once the burst's frames are assembled.
#[derive(Default)]
struct DeliveryOutcomes {
    completed: u64,
    failed: u64,
    latencies_ns: Vec<u64>,
}

impl DeliveryOutcomes {
    fn meter(&mut self, shared: &ServerShared, tenant: &Arc<TenantCell>) {
        shared.meter.jobs_done_batch(
            tenant.name(),
            self.completed,
            self.failed,
            &self.latencies_ns,
        );
        self.completed = 0;
        self.failed = 0;
        self.latencies_ns.clear();
    }
}

/// Turns one finished job into its terminal frame without touching the
/// shared meter; the caller tallies the burst into `outcomes` and
/// meters it once.
fn resolve_unmetered(
    tenant: &Arc<TenantCell>,
    done: Delivery,
    outcomes: &mut DeliveryOutcomes,
) -> Frame {
    outcomes
        .latencies_ns
        .push(done.t0.elapsed().as_nanos() as u64);
    tenant.end_job();
    match done.result {
        Ok(product) => {
            outcomes.completed += 1;
            Frame::Done {
                req_id: done.req_id,
                product,
            }
        }
        Err(err) => {
            outcomes.failed += 1;
            Frame::JobFailed {
                req_id: done.req_id,
                reason: err.to_string(),
            }
        }
    }
}
