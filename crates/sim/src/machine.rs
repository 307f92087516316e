//! The shared context of one simulated machine (host).
//!
//! Every subsystem of one host — IPC, VM, disks, network interface —
//! charges the same clock and counter registry, so an experiment can ask
//! "how much total work did this host do" and "how many I/O operations
//! happened" exactly as the paper does in Section 9.

use crate::clock::SimClock;
use crate::cost::CostModel;
use crate::gauge::GaugeRegistry;
use crate::stats::{keys, HotCounters, StatsRegistry};
use crate::topology::Topology;
use crate::trace::{CorrelationId, EventKind, LatencyRegistry, SpanInfo, TraceBuffer, TraceEvent};
use std::sync::Arc;

/// Clock, statistics and cost model of one simulated host.
///
/// Cloning shares the underlying clock, counters, trace ring and latency
/// histograms.
#[derive(Clone, Debug)]
pub struct Machine {
    /// Virtual clock charged by every component of this host.
    pub clock: SimClock,
    /// Event counters for this host.
    pub stats: StatsRegistry,
    /// Latency model.
    pub cost: Arc<CostModel>,
    /// Causal trace ring of this host.
    pub trace: Arc<TraceBuffer>,
    /// Named latency histograms of this host.
    pub latency: LatencyRegistry,
    /// Pre-resolved counters for the fault/IPC/disk hot paths, backed by
    /// the same atomics as `stats` (no per-increment name lookup).
    pub hot: Arc<HotCounters>,
    /// Sampled queue-depth/occupancy gauges of this host.
    pub gauges: Arc<GaugeRegistry>,
    /// Host name shown in trace events ("local" unless on a fabric).
    host: Arc<str>,
}

impl Machine {
    /// Creates a machine with the given cost model.
    pub fn new(cost: CostModel) -> Self {
        Self::named(cost, "local")
    }

    /// Creates a machine with the given cost model and host name.
    pub fn named(cost: CostModel, host: &str) -> Self {
        let stats = StatsRegistry::new();
        let hot = Arc::new(HotCounters::new(&stats));
        Self {
            clock: SimClock::new(),
            stats,
            cost: Arc::new(cost),
            trace: Arc::new(TraceBuffer::default()),
            latency: LatencyRegistry::new(),
            hot,
            gauges: Arc::new(GaugeRegistry::new()),
            host: Arc::from(host),
        }
    }

    /// The host name stamped on this machine's trace events.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Records a trace event under the current thread's correlation id.
    pub fn trace_event(&self, actor: &str, kind: EventKind) {
        self.trace_event_with(actor, kind, crate::trace::current_correlation());
    }

    /// Records a trace event under an explicit correlation id.
    pub fn trace_event_with(&self, actor: &str, kind: EventKind, cid: Option<CorrelationId>) {
        if !self.trace.is_enabled() {
            return;
        }
        self.trace.record(TraceEvent::new(
            self.clock.now_ns(),
            self.host.clone(),
            actor,
            kind,
            cid,
        ));
    }

    /// Opens a phase span under the current thread's (correlation, span)
    /// context and returns its raw id. Pair with [`Machine::span_close`]
    /// passing the *same name literal* — machlint's span-pairing lint
    /// matches open/close names statically per file.
    pub fn span_open(&self, name: &'static str) -> u64 {
        self.span_open_with(
            name,
            crate::trace::current_span(),
            crate::trace::current_correlation(),
        )
    }

    /// Opens a phase span under an explicit parent (0 = chain root),
    /// correlated to the current thread's chain.
    pub fn span_open_under(&self, name: &'static str, parent: u64) -> u64 {
        self.span_open_with(name, parent, crate::trace::current_correlation())
    }

    /// Opens a phase span with explicit parent and correlation — the
    /// fully spelled-out form used where the chain context is carried in
    /// a message or continuation rather than thread-locally.
    pub fn span_open_with(
        &self,
        name: &'static str,
        parent: u64,
        cid: Option<CorrelationId>,
    ) -> u64 {
        let id = crate::trace::allocate_span_id();
        self.hot.trace_spans.incr();
        if self.trace.is_enabled() {
            self.trace.record(
                TraceEvent::new(
                    self.clock.now_ns(),
                    self.host.clone(),
                    name,
                    EventKind::SpanOpen(name),
                    cid,
                )
                .with_span(SpanInfo { id, parent }),
            );
        }
        id
    }

    /// Closes span `id` under the current thread's correlation.
    pub fn span_close(&self, name: &'static str, id: u64) {
        self.span_close_with(name, id, crate::trace::current_correlation());
    }

    /// Closes span `id` under an explicit correlation.
    pub fn span_close_with(&self, name: &'static str, id: u64, cid: Option<CorrelationId>) {
        if !self.trace.is_enabled() {
            return;
        }
        self.trace.record(
            TraceEvent::new(
                self.clock.now_ns(),
                self.host.clone(),
                name,
                EventKind::SpanClose(name),
                cid,
            )
            .with_span(SpanInfo { id, parent: 0 }),
        );
    }

    /// Opens a span, makes it the thread's current span, and returns a
    /// guard that closes it (and restores the previous span) on drop.
    /// Self-pairing, so the span-pairing lint ignores `span_enter` sites.
    pub fn span_enter(&self, name: &'static str) -> SpanGuard {
        let id = self.span_open(name);
        let previous = crate::trace::current_span();
        crate::trace::set_current_span(id);
        SpanGuard {
            machine: self.clone(),
            name,
            id,
            previous,
        }
    }

    /// Samples every registered gauge at the current sim-time and folds
    /// the process-wide lock-contention total into this machine's
    /// [`keys::LOCK_CONTENDED`] counter (as a delta, so one machine per
    /// process sees each contended acquisition — adequate for the
    /// single-kernel benchmarks these telemetry feeds serve).
    pub fn sample_gauges(&self) {
        let sampled = self.gauges.sample_all(self.clock.now_ns());
        if sampled > 0 {
            self.stats.add(keys::GAUGE_SAMPLES, 1);
        }
        let delta = self
            .gauges
            .counter_delta(crate::lockdep::contention_total());
        if delta > 0 {
            self.stats.add(keys::LOCK_CONTENDED, delta);
        }
    }

    /// A default UMA workstation.
    pub fn default_machine() -> Self {
        Self::new(CostModel::default())
    }

    /// A machine of the given multiprocessor class (Section 7).
    pub fn with_topology(topology: Topology) -> Self {
        Self::new(CostModel::for_topology(topology))
    }
}

impl Default for Machine {
    fn default() -> Self {
        Self::default_machine()
    }
}

/// RAII guard from [`Machine::span_enter`]: closes its span and restores
/// the thread's previous current span on drop.
pub struct SpanGuard {
    machine: Machine,
    name: &'static str,
    id: u64,
    previous: u64,
}

impl SpanGuard {
    /// The raw id of the span this guard holds open.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.machine.span_close(self.name, self.id);
        crate::trace::set_current_span(self.previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_clock_and_stats() {
        let m = Machine::default_machine();
        let n = m.clone();
        m.clock.charge(5);
        m.stats.incr("x");
        assert_eq!(n.clock.now_ns(), 5);
        assert_eq!(n.stats.get("x"), 1);
    }

    #[test]
    fn topology_constructor_sets_cost_model() {
        let m = Machine::with_topology(Topology::Norma);
        assert_eq!(m.cost.topology, Topology::Norma);
    }

    #[test]
    fn span_enter_nests_and_emits_paired_events() {
        let m = Machine::named(CostModel::default(), "spanhost");
        let cid = CorrelationId::allocate();
        let _c = crate::trace::CorrelationScope::enter(cid);
        {
            let outer = m.span_enter("outer");
            m.clock.charge(10);
            {
                let inner = m.span_enter("inner");
                assert_eq!(crate::trace::current_span(), inner.id());
                m.clock.charge(5);
            }
            assert_eq!(crate::trace::current_span(), outer.id());
        }
        assert_eq!(crate::trace::current_span(), 0);
        let spans = crate::span::collect(&m.trace.snapshot());
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, spans[0].id, "inner nests under outer");
        assert_eq!(spans[1].correlation, Some(cid));
        assert!(spans.iter().all(|s| s.close_ns.is_some()));
        assert_eq!(m.stats.get(keys::TRACE_SPANS), 2);
    }

    #[test]
    fn sample_gauges_counts_sweeps() {
        let m = Machine::default_machine();
        m.sample_gauges();
        assert_eq!(m.stats.get(keys::GAUGE_SAMPLES), 0, "no sources yet");
        m.gauges.register("gauge.test", || 42);
        m.clock.charge(7);
        m.sample_gauges();
        assert_eq!(m.stats.get(keys::GAUGE_SAMPLES), 1);
        assert_eq!(m.gauges.latest(), vec![("gauge.test".to_string(), 42)]);
    }

    #[test]
    fn trace_events_stamp_host_and_sim_time() {
        let m = Machine::named(CostModel::default(), "nodeA");
        m.clock.charge(42);
        let cid = CorrelationId::allocate();
        m.trace_event_with("unit", EventKind::Fault, Some(cid));
        let snap = m.trace.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(&*snap[0].host, "nodeA");
        assert_eq!(snap[0].ts_ns, 42);
        assert_eq!(snap[0].correlation_id, Some(cid));
        // Clones share the trace ring.
        assert_eq!(m.clone().trace.len(), 1);
    }
}
