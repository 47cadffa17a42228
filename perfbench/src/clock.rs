//! The measurement window and the per-thread record of what the stack
//! delivered in it, checked against the `UBig` oracle.

use std::time::{Duration, Instant};

use modsram_bigint::UBig;

use crate::workload::Generated;

/// A warm-up followed by the measured interval `[from, to)`, in
/// nanoseconds since `t0`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub t0: Instant,
    pub from_ns: u64,
    pub to_ns: u64,
}

impl Window {
    /// A window that starts measuring `warm` from now and lasts `measure`.
    pub fn starting_now(warm: Duration, measure: Duration) -> Self {
        let from_ns = warm.as_nanos() as u64;
        Window {
            t0: Instant::now(),
            from_ns,
            to_ns: from_ns + measure.as_nanos().max(1) as u64,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// `true` once the measured interval has ended.
    pub fn over(&self) -> bool {
        self.now_ns() >= self.to_ns
    }

    pub fn measured_s(&self) -> f64 {
        (self.to_ns - self.from_ns) as f64 / 1e9
    }

    /// `true` when `t_ns` falls in the measured interval.
    pub fn contains(&self, t_ns: u64) -> bool {
        (self.from_ns..self.to_ns).contains(&t_ns)
    }

    /// Sleeps until `t_ns` after `t0`.
    pub fn sleep_until(&self, t_ns: u64) {
        let now = self.now_ns();
        if t_ns > now {
            std::thread::sleep(Duration::from_nanos(t_ns - now));
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPUTIME: i32 = 2;

/// CPU time every thread of this process has run so far, living or
/// ended, in nanoseconds. The kernel leaves out time the hypervisor
/// gave to other guests (steal) and time spent runnable but waiting.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// What one generator thread saw inside the measured interval.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// Correct results.
    pub delivered: u64,
    /// Latencies of correct results in nanoseconds (kept only when the
    /// run needs them).
    pub latency_ns: Vec<u32>,
    /// Oracle mismatches.
    pub mismatches: u64,
    /// `JobFailed` answers.
    pub job_failed: u64,
    /// Admission refusals, each answered by sending the job again.
    pub retries: u64,
    /// Jobs due in the measured interval that never got an answer (open
    /// loop).
    pub lost: u64,
    /// Jobs due in the measured interval (open loop; closed loops attempt
    /// what they deliver or fail).
    pub due: u64,
    /// How late the generator issued work, in nanoseconds.
    pub late_ns: Vec<u32>,
}

impl Observed {
    pub fn failed(&self) -> u64 {
        self.mismatches + self.job_failed + self.lost
    }

    pub fn attempted(&self) -> u64 {
        if self.due > 0 {
            self.due
        } else {
            self.delivered + self.failed()
        }
    }

    /// Folds in another thread's observations, or a later window's.
    pub fn merge(&mut self, other: Observed) {
        self.delivered += other.delivered;
        self.latency_ns.extend(other.latency_ns);
        self.mismatches += other.mismatches;
        self.job_failed += other.job_failed;
        self.retries += other.retries;
        self.lost += other.lost;
        self.due += other.due;
        self.late_ns.extend(other.late_ns);
    }
}

/// Records one thread's outcomes against the oracle.
pub struct Recorder<'a> {
    pub window: &'a Window,
    generated: &'a Generated,
    keep_latency: bool,
    pub obs: Observed,
}

impl<'a> Recorder<'a> {
    pub fn new(window: &'a Window, generated: &'a Generated, keep_latency: bool) -> Self {
        Recorder {
            window,
            generated,
            keep_latency,
            obs: Observed::default(),
        }
    }

    /// Job `job` of stream `stream`, due or first submitted at
    /// `start_ns`, answered `product` at `done_ns`. Results count when
    /// delivered in the measured interval; mismatches count wherever
    /// they happen.
    pub fn done(&mut self, stream: usize, job: usize, product: &UBig, start_ns: u64, done_ns: u64) {
        if *product != self.generated.streams[stream].oracle[job] {
            self.obs.mismatches += 1;
            return;
        }
        if self.window.contains(done_ns) {
            self.obs.delivered += 1;
            if self.keep_latency {
                let lat = done_ns.saturating_sub(start_ns).min(u64::from(u32::MAX));
                self.obs.latency_ns.push(lat as u32);
            }
        }
    }

    /// A `JobFailed` answer.
    pub fn failed(&mut self) {
        self.obs.job_failed += 1;
    }

    /// Records generator lateness for work due at `due_ns` and issued at
    /// `issued_ns`, when due inside the measured interval.
    pub fn late(&mut self, due_ns: u64, issued_ns: u64) {
        if self.window.contains(due_ns) {
            let late = issued_ns.saturating_sub(due_ns).min(u64::from(u32::MAX));
            self.obs.late_ns.push(late as u32);
        }
    }
}
