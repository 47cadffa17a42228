//! Spans recorded by the benchmark around its calls into each layer's
//! public functions. They stay in memory and are summarised when the run
//! ends. A disabled tracer records nothing, so one driver serves the
//! untraced and the traced run.

use std::time::Instant;

use crate::report::percentile;

/// The spans the ladder records, one per public call it makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A closed-loop round or an open-loop send: the root of a request.
    Round,
    ModMul,
    Dispatch,
    ServiceSubmit,
    ServiceWait,
    ClusterSubmit,
    ClusterWait,
    NetSubmit,
    NetWait,
    NetSend,
}

impl Kind {
    pub const ALL: [Kind; 10] = [
        Kind::Round,
        Kind::ModMul,
        Kind::Dispatch,
        Kind::ServiceSubmit,
        Kind::ServiceWait,
        Kind::ClusterSubmit,
        Kind::ClusterWait,
        Kind::NetSubmit,
        Kind::NetWait,
        Kind::NetSend,
    ];

    /// The span's name: the layer and the public function it wraps.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Round => "round",
            Kind::ModMul => "modmul.mod_mul_batch",
            Kind::Dispatch => "dispatch.dispatch_jobs",
            Kind::ServiceSubmit => "service.submit",
            Kind::ServiceWait => "service.wait",
            Kind::ClusterSubmit => "cluster.submit",
            Kind::ClusterWait => "cluster.wait",
            Kind::NetSubmit => "net.submit",
            Kind::NetWait => "net.wait",
            Kind::NetSend => "net.send",
        }
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

const NO_SPAN: u32 = u32::MAX;

/// One recorded span. The spans of one request hang off one root span
/// (a closed-loop round), whose index identifies the request.
#[derive(Debug, Clone, Copy)]
struct Span {
    start_ns: u64,
    dur_ns: u32,
    parent: u32,
    kind: Kind,
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, t0: Instant) -> Self {
        Tracer {
            enabled,
            t0,
            spans: Vec::new(),
        }
    }

    /// Opens a span of `kind` under `parent`.
    pub fn begin(&mut self, kind: Kind, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return SpanId(NO_SPAN);
        }
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            start_ns,
            dur_ns: 0,
            parent: parent.map_or(NO_SPAN, |p| p.0),
            kind,
        });
        SpanId((self.spans.len() - 1) as u32)
    }

    /// Closes `id`.
    pub fn end(&mut self, id: SpanId) {
        if id.0 == NO_SPAN {
            return;
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        if let Some(span) = self.spans.get_mut(id.0 as usize) {
            span.dur_ns = now.saturating_sub(span.start_ns).min(u64::from(u32::MAX)) as u32;
        }
    }
}

/// Totals for one span name across every tracer.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    /// Duration not covered by child spans.
    pub self_ns: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
}

/// Summarises every span name that was recorded.
pub fn summarize<'a>(tracers: impl IntoIterator<Item = &'a Tracer>) -> Vec<SpanSummary> {
    let mut durations: Vec<Vec<u64>> = vec![Vec::new(); Kind::ALL.len()];
    let mut self_ns = vec![0u64; Kind::ALL.len()];
    for tracer in tracers {
        let mut child_ns = vec![0u64; tracer.spans.len()];
        for span in &tracer.spans {
            if let Some(c) = child_ns.get_mut(span.parent as usize) {
                *c += u64::from(span.dur_ns);
            }
        }
        for (i, span) in tracer.spans.iter().enumerate() {
            let k = span.kind as usize;
            durations[k].push(u64::from(span.dur_ns));
            self_ns[k] += u64::from(span.dur_ns).saturating_sub(child_ns[i]);
        }
    }
    Kind::ALL
        .iter()
        .zip(durations)
        .zip(self_ns)
        .filter(|((_, d), _)| !d.is_empty())
        .map(|((kind, mut d), self_ns)| {
            d.sort_unstable();
            let pick = |q| percentile(&d, q).map_or(0, |p| p.value);
            SpanSummary {
                name: kind.name(),
                count: d.len() as u64,
                total_ns: d.iter().sum(),
                self_ns,
                p50_ns: pick(0.5),
                p99_ns: pick(0.99),
            }
        })
        .collect()
}
