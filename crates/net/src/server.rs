//! The threaded serving runtime: an acceptor thread plus, per
//! connection, a reader / completer pair that bridges [`Ticket`]
//! completions back onto the socket.
//!
//! The division of labour keeps every blocking point bounded:
//!
//! * the **reader** parses frames and runs admission control (the
//!   drain and tenant limits per job, then one `try_submit_many` per
//!   frame into the backend), so a saturated cluster answers with a
//!   typed [`Frame::RetryAfter`] instead of a stalled or dropped
//!   connection. A [`Frame::SubmitBatch`] thus reaches its tile whole:
//!   the client's batch is the tile's batch too;
//! * the **completer** owns the connection's in-flight tickets and
//!   delivers terminal frames **out of submission order** — it parks
//!   on the oldest ticket with [`Ticket::wait_deadline`] in short
//!   slices and sweeps the rest with `try_poll`, so one slow job never
//!   blocks a finished one behind it.
//!
//! Both sides write through one [`ConnWriter`] mutex, each call
//! coalescing its frames into a single `write` — a sweep's burst of
//! completions costs one syscall (and one packet on the nodelay
//! socket), and partial writes never interleave. A peer that stops
//! reading eventually blocks the writer mid-send; that backpressure
//! deliberately propagates to the reader rather than growing an
//! unbounded frame queue.
//!
//! The acceptor blocks in `accept`, so a connecting client waits on
//! no timer. A drain wakes it with one loopback connect; the acceptor
//! sees the drain flag, drops that stream unmetered and exits.
//!
//! Graceful drain ([`WireServer::shutdown`]): the acceptor stops
//! (listener refused), readers refuse new submissions with
//! [`RetryReason::Draining`], completers deliver every accepted
//! in-flight ticket, then each connection says [`Frame::Bye`] and
//! closes. Zero accepted responses are lost.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use modsram_core::cluster::{ClusterHandle, ClusterSubmitError};
use modsram_core::dispatch::MulJob;
use modsram_core::service::{SubmitError, SubmitHandle, Ticket};

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
    /// Socket read timeout — the granularity at which idle readers
    /// notice a server drain.
    pub read_timeout: Duration,
    /// How long the completer parks on the *oldest* in-flight ticket
    /// before re-sweeping the others for out-of-order completions.
    pub completion_slice: Duration,
    /// After the first completion of a burst, how long the completer
    /// keeps accumulating further completions before flushing them as
    /// one coalesced write. Engine workers retire a batch's tickets a
    /// few microseconds apart; without the linger each would go out as
    /// its own syscall and client wake-up.
    pub delivery_linger: Duration,
    /// Flush a coalesced delivery once it holds this many frames even
    /// if completions are still streaming in (bounds both response
    /// latency and the write size under sustained load).
    pub max_delivery_batch: usize,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            max_frame_bytes: DEFAULT_MAX_PAYLOAD,
            retry_after_hint: Duration::from_millis(1),
            read_timeout: Duration::from_millis(20),
            // The park almost always ends early (the oldest ticket's
            // condvar fires on completion, and near-FIFO execution
            // makes the oldest finish first); the slice only bounds
            // how long a younger out-of-order completion can sit
            // before a sweep picks it up.
            completion_slice: Duration::from_millis(2),
            delivery_linger: Duration::from_micros(300),
            // Big enough that a client's whole submission window plus
            // out-of-order stragglers fits one coalesced write.
            max_delivery_batch: 128,
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

/// One accepted job awaiting its terminal frame.
struct Pending {
    req_id: u64,
    ticket: Ticket,
    t0: Instant,
}

struct PendingQueue {
    state: Mutex<PendingState>,
    wake: Condvar,
}

struct PendingState {
    queue: VecDeque<Pending>,
    /// Reader finished (Goodbye, EOF, error) — no more pushes.
    reads_done: bool,
    /// Reader has observed the server drain and refuses all further
    /// submissions — no more pushes, even though reads continue.
    drain_observed: bool,
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
        let _ = state.stream.shutdown(std::net::Shutdown::Both);
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
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    stopped: bool,
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
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
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
    /// connect and refuse the listener, refuse new submissions with
    /// [`RetryReason::Draining`], deliver every accepted in-flight
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
        // Connection threads join their own completer and writer, so
        // draining the vector drains the whole runtime. New handles
        // can't appear: the acceptor is gone, or (after a failed wake)
        // meters nothing it accepts from here on.
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.conns.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in handles {
            let _ = handle.join();
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

fn accept_loop(
    listener: TcpListener,
    shared: Arc<ServerShared>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
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
                let conn_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("wire-conn".into())
                    .spawn(move || connection_main(stream, conn_shared));
                match spawned {
                    Ok(handle) => conns
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(handle),
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

/// Reads one frame, treating read timeouts as "check the drain flag
/// and keep waiting". `Ok(None)` is a clean EOF.
///
/// With `bail_on_drain` (the handshake phase, where no completer
/// exists yet to close the socket) a drain aborts the read instead of
/// marking `drain_observed`.
fn read_frame_patient(
    stream: &mut TcpStream,
    shared: &ServerShared,
    pending: &PendingQueue,
    bail_on_drain: bool,
    payload: &mut Vec<u8>,
) -> Result<Option<(Frame, usize)>, crate::frame::WireError> {
    loop {
        match read_frame_into(stream, shared.config.max_frame_bytes, payload) {
            Ok(got) => return Ok(got),
            Err(crate::frame::WireError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle sockets still observe the drain promptly.
                if shared.draining.load(Ordering::Acquire) {
                    if bail_on_drain {
                        return Err(crate::frame::WireError::ConnectionClosed);
                    }
                    let mut state = pending.state.lock().unwrap_or_else(PoisonError::into_inner);
                    state.drain_observed = true;
                    pending.wake.notify_all();
                }
            }
            Err(e) => return Err(e),
        }
    }
}

fn connection_main(mut stream: TcpStream, shared: Arc<ServerShared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));

    let pending = Arc::new(PendingQueue {
        state: Mutex::new(PendingState {
            queue: VecDeque::new(),
            reads_done: false,
            drain_observed: false,
        }),
        wake: Condvar::new(),
    });

    // ---- handshake: first frame must be Hello -------------------------
    let hello = read_frame_patient(&mut stream, &shared, &pending, true, &mut Vec::new());
    let tenant: Arc<TenantCell> = match hello {
        Ok(Some((Frame::Hello { tenant, key }, bytes))) => {
            shared.meter.frame_in(None, bytes);
            match shared.registry.authenticate(&tenant, key) {
                Ok(cell) => {
                    let ok = Frame::HelloOk {
                        max_inflight: cell.limits().max_inflight,
                    };
                    match write_frame(&mut stream, &ok) {
                        Ok(n) => shared.meter.frame_out(Some(cell.name()), n),
                        Err(_) => {
                            shared.meter.connection_closed();
                            return;
                        }
                    }
                    cell
                }
                Err(why) => {
                    shared.meter.auth_failure();
                    let frame = Frame::HelloErr {
                        reason: why.to_string(),
                    };
                    if let Ok(n) = write_frame(&mut stream, &frame) {
                        shared.meter.frame_out(None, n);
                    }
                    shared.meter.connection_closed();
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
            if let Ok(n) = write_frame(&mut stream, &frame) {
                shared.meter.frame_out(None, n);
            }
            shared.meter.connection_closed();
            return;
        }
        Ok(None) | Err(_) => {
            shared.meter.connection_closed();
            return;
        }
    };

    // ---- completer ----------------------------------------------------
    // A socket that can't be cloned can't carry responses; close it
    // before any job is admitted rather than panic the acceptor's
    // child and strand the tenant session.
    let Ok(write_half) = stream.try_clone() else {
        shared.meter.connection_closed();
        return;
    };
    let writer = Arc::new(ConnWriter::new(write_half));
    let completer = {
        let conn_shared = Arc::clone(&shared);
        let pending = Arc::clone(&pending);
        let tenant = Arc::clone(&tenant);
        let writer = Arc::clone(&writer);
        let spawned = std::thread::Builder::new()
            .name("wire-completer".into())
            .spawn(move || completer_loop(conn_shared, pending, tenant, writer));
        match spawned {
            Ok(handle) => handle,
            // Without a completer no response can ever be delivered;
            // shed the connection while nothing is in flight yet.
            Err(_) => {
                shared.meter.connection_closed();
                return;
            }
        }
    };

    // ---- reader loop (this thread) ------------------------------------
    reader_loop(&mut stream, &shared, &pending, &tenant, &writer);

    let _ = completer.join();
    shared.meter.connection_closed();
}

fn reader_loop(
    stream: &mut TcpStream,
    shared: &ServerShared,
    pending: &PendingQueue,
    tenant: &Arc<TenantCell>,
    writer: &ConnWriter,
) {
    let mut payload = Vec::new();
    while let Ok(Some((frame, bytes))) =
        read_frame_patient(stream, shared, pending, false, &mut payload)
    {
        shared.meter.frame_in(Some(tenant.name()), bytes);
        match frame {
            Frame::Submit { req_id, job } => {
                admit(shared, pending, tenant, writer, req_id, vec![job]);
            }
            Frame::SubmitBatch { first_req_id, jobs } => {
                admit(shared, pending, tenant, writer, first_req_id, jobs);
            }
            Frame::Goodbye => break,
            // Anything else from a client is a protocol error; close
            // rather than guess.
            _ => break,
        }
    }
    let mut state = pending.state.lock().unwrap_or_else(PoisonError::into_inner);
    state.reads_done = true;
    pending.wake.notify_all();
}

/// Admits the jobs of one `Submit` or `SubmitBatch` frame, with ids
/// counting up from `first_req_id`. Each job passes the drain check and
/// the tenant's limits; the survivors reach the backend in one
/// non-blocking `try_submit_many`.
fn admit(
    shared: &ServerShared,
    pending: &PendingQueue,
    tenant: &Arc<TenantCell>,
    writer: &ConnWriter,
    first_req_id: u64,
    jobs: Vec<MulJob>,
) {
    let t0 = Instant::now();
    let hint = shared.config.retry_after_hint.as_millis() as u32;
    let mut drained = false;
    let (mut ids, mut offered) = (Vec::with_capacity(jobs.len()), Vec::new());
    for (i, job) in jobs.into_iter().enumerate() {
        let req_id = first_req_id.wrapping_add(i as u64);
        // Drain check first: once observed, this reader never admits
        // again, which is what lets the completer exit safely. The
        // completer learns of it below, after this frame's accepted
        // tickets are queued for it.
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
    let mut accepted = Vec::with_capacity(ids.len());
    if !offered.is_empty() {
        let admissions = shared.backend.try_submit_many(offered);
        for (req_id, admission) in ids.into_iter().zip(admissions) {
            match admission {
                Admission::Accepted(ticket) => {
                    shared.meter.job_accepted(tenant.name());
                    accepted.push(Pending { req_id, ticket, t0 });
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
    }
    if !accepted.is_empty() || drained {
        let mut state = pending.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.queue.extend(accepted);
        state.drain_observed |= drained;
        drop(state);
        pending.wake.notify_all();
    }
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

/// Moves every completed ticket out of `queue` into `batch`, keeping
/// arrival order among the remainder.
fn sweep_ready(queue: &mut VecDeque<Pending>, batch: &mut Vec<Pending>) {
    let mut i = 0;
    while let Some(p) = queue.get(i) {
        if p.ticket.is_done() {
            if let Some(done) = queue.remove(i) {
                batch.push(done);
            }
        } else {
            i += 1;
        }
    }
}

fn completer_loop(
    shared: Arc<ServerShared>,
    pending: Arc<PendingQueue>,
    tenant: Arc<TenantCell>,
    writer: Arc<ConnWriter>,
) {
    let mut delivered: u64 = 0;
    let mut frames: Vec<Frame> = Vec::new();
    let mut outcomes = DeliveryOutcomes::default();
    loop {
        // Sweep: collect everything already complete, out of order.
        let (mut batch, oldest, quiescent) = {
            let mut state = pending.state.lock().unwrap_or_else(PoisonError::into_inner);
            let mut batch = Vec::new();
            sweep_ready(&mut state.queue, &mut batch);
            let oldest = if batch.is_empty() {
                // Park on the oldest remaining ticket outside the
                // lock; take it out so the sweep above stays O(n).
                state.queue.pop_front()
            } else {
                None
            };
            let no_more_pushes = state.reads_done || state.drain_observed;
            let quiescent = state.queue.is_empty() && oldest.is_none() && no_more_pushes;
            (batch, oldest, quiescent)
        };
        if batch.is_empty() {
            let Some(front) = oldest else {
                if quiescent {
                    break;
                }
                // Nothing in flight: sleep until the reader pushes or
                // ends.
                let state = pending.state.lock().unwrap_or_else(PoisonError::into_inner);
                if state.queue.is_empty() && !state.reads_done && !state.drain_observed {
                    let _ = pending
                        .wake
                        .wait_timeout(state, shared.config.read_timeout)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                continue;
            };
            match front
                .ticket
                .wait_deadline(Instant::now() + shared.config.completion_slice)
            {
                Some(_) => batch.push(front),
                None => {
                    // Not done yet: put it back at the front and
                    // re-sweep (a younger ticket may have finished).
                    let mut state = pending.state.lock().unwrap_or_else(PoisonError::into_inner);
                    state.queue.push_front(front);
                    continue;
                }
            }
        }
        // Linger: engine workers retire a batch's tickets microseconds
        // apart and near-FIFO, so keep parking on the (new) oldest
        // ticket and folding further completions into this delivery —
        // one lock per fold, no re-sweep. The first park that times
        // out ends the burst; a single sweep then catches whatever
        // completed out of order during the linger.
        while batch.len() < shared.config.max_delivery_batch {
            let next = {
                let mut state = pending.state.lock().unwrap_or_else(PoisonError::into_inner);
                state.queue.pop_front()
            };
            let Some(front) = next else { break };
            match front
                .ticket
                .wait_deadline(Instant::now() + shared.config.delivery_linger)
            {
                Some(_) => batch.push(front),
                None => {
                    let mut state = pending.state.lock().unwrap_or_else(PoisonError::into_inner);
                    state.queue.push_front(front);
                    sweep_ready(&mut state.queue, &mut batch);
                    break;
                }
            }
        }
        // The whole burst goes out as one write, with one metering
        // pass covering all of it.
        frames.clear();
        for done in batch {
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

/// Redeems one completed ticket without touching the shared meter;
/// the caller tallies the burst into `outcomes` and meters it once.
fn resolve_unmetered(
    tenant: &Arc<TenantCell>,
    done: Pending,
    outcomes: &mut DeliveryOutcomes,
) -> Frame {
    // sweep_ready only queues tickets whose is_done() returned true,
    // so a None here is a ticket-state bug — fail the request instead
    // of taking the whole connection's completer down with a panic.
    let Some(result) = done.ticket.try_poll() else {
        outcomes.failed += 1;
        tenant.end_job();
        return Frame::JobFailed {
            req_id: done.req_id,
            reason: "internal: ticket incomplete at delivery".into(),
        };
    };
    outcomes
        .latencies_ns
        .push(done.t0.elapsed().as_nanos() as u64);
    tenant.end_job();
    match result {
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
