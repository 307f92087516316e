//! The duality benchmark: four closed-loop, output-checked workloads that
//! drive the repository's crates through their public functions.
//!
//! One run sets a workload up (several times, reporting the median set-up
//! time), runs its clients for a timed window of sub-windows, checks every
//! output against values derived from the seed alone, and reports either
//! the end-to-end metrics (untraced) or the per-layer metrics (traced:
//! sub-windows alternate untraced and traced, so the trace's own cost is
//! measured too). See `README.md` for the workloads and why each exists.

pub mod gen;
pub mod harness;
pub mod metrics;
pub mod spans;
pub mod workloads;

use harness::{percentile, Client, Sample, SubWindow, Window};
use machsim::lockdep::contention_snapshot;
use machsim::stats::keys;
use machsim::{Machine, StatsSnapshot};
use metrics::{Def, END_TO_END};
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// The workloads, by command-line name.
pub const WORKLOADS: &[&str] = &["build", "pager_storm", "ool_rpc", "netshm"];

/// Output checks made outside the timed window (set-up, final state).
#[derive(Clone, Copy, Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Counts one check.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// What the window measured, for a workload's own per-layer figures.
pub struct WindowFacts {
    /// Verified ops completed in the window.
    pub ops: u64,
    /// Window length in seconds.
    pub seconds: f64,
}

/// One set-up instance of a workload.
pub trait Workload {
    /// Every simulated host, so rings follow the tracing switch and
    /// counter deltas cover the whole system.
    fn machines(&self) -> Vec<Machine>;
    /// Parameters for the run record.
    fn params(&self) -> Vec<(&'static str, String)>;
    /// The closed-loop client threads (at most two).
    fn clients(&mut self) -> Vec<Client>;
    /// After the window: final-state checks and the workload's own
    /// per-layer values.
    fn finish(&mut self, facts: &WindowFacts) -> Vec<(&'static str, f64)>;
    /// Checks made outside the window (set-up, warm-up, `finish`).
    fn checks(&self) -> Checks;
    /// Lines explaining a hang: the kernels' watchdog reports.
    fn diagnose(&self) -> Vec<String>;
}

/// A fresh instance of workload `name`; `corrupt` perturbs one expected
/// value so the checkers can be shown to catch it.
pub fn setup(name: &str, seed: u64, corrupt: bool) -> Box<dyn Workload> {
    match name {
        "build" => Box::new(workloads::build::Build::setup(seed, corrupt)),
        "pager_storm" => Box::new(workloads::pager_storm::PagerStorm::setup(seed, corrupt)),
        "ool_rpc" => Box::new(workloads::ool_rpc::OolRpc::setup(seed, corrupt)),
        "netshm" => Box::new(workloads::netshm::Netshm::setup(seed, corrupt)),
        other => panic!("unknown workload {other}"),
    }
}

/// A machine whose trace ring starts off: untraced runs stay untraced
/// from boot on.
pub fn quiet_machine(host: &str) -> Machine {
    let m = Machine::named(machsim::CostModel::default(), host);
    m.trace.set_enabled(false);
    m
}

/// Set-ups per run; the median time is `setup_s`.
pub const SETUPS: usize = 15;

/// How to run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Timed window length.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Sub-windows are about this long. Traced runs alternate them; untraced
/// runs record each one's figures as the spread behind the window's.
const SUB_SECONDS: f64 = 1.0;

/// A reported metric.
#[derive(Clone, Debug)]
pub struct Value {
    /// Its description.
    pub def: Def,
    /// The reported figure.
    pub value: f64,
    /// The per-sub-window (or per-set-up) figures it summarizes.
    pub samples: Vec<f64>,
    /// Raw samples behind the figure (ops, spans or set-ups), else 0.
    pub n: usize,
}

/// Result of one run.
pub struct Outcome {
    /// Whether every op and check passed and nothing wedged.
    pub correct: bool,
    /// Ops and checks attempted.
    pub attempted: u64,
    /// Ops and checks that failed (errors, timeouts, mismatches).
    pub failed: u64,
    /// Metrics in print order.
    pub values: Vec<Value>,
    /// Workload parameters.
    pub params: Vec<(&'static str, String)>,
    /// Spans recorded in traced sub-windows.
    pub spans: Vec<spans::Span>,
    /// Why the run ended early, if it did.
    pub wedged: Option<String>,
}

struct Snap {
    stats: StatsSnapshot,
    sim_ns: u64,
    dropped: u64,
    locks: BTreeMap<&'static str, (u64, u64, u64)>,
}

fn snap(machines: &[Machine]) -> Snap {
    let merged = machsim::StatsRegistry::new();
    for m in machines {
        for (k, v) in m.stats.snapshot().iter() {
            merged.add(k, v);
        }
    }
    Snap {
        stats: merged.snapshot(),
        sim_ns: machines.iter().map(|m| m.clock.now_ns()).sum(),
        dropped: machines.iter().map(|m| m.trace.dropped()).sum(),
        locks: contention_snapshot()
            .into_iter()
            .map(|c| {
                (
                    c.class.name(),
                    (c.acquisitions, c.contended, c.wait_ns.sum_ns()),
                )
            })
            .collect(),
    }
}

fn set(lv: &mut BTreeMap<String, (f64, usize)>, k: &str, v: f64) {
    lv.insert(k.to_string(), (v, 0));
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn ok_in(samples: &[Sample], sub: &SubWindow) -> Vec<u64> {
    samples
        .iter()
        .filter(|s| s.ok && sub.holds(s))
        .map(|s| s.lat_ns)
        .collect()
}

/// Sorted wall durations (ns) of the spans named `name`.
fn span_durations(spans: &[spans::Span], name: &str) -> Vec<u64> {
    let mut v: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.wall.1.saturating_sub(s.wall.0))
        .collect();
    v.sort_unstable();
    v
}

/// Resident-set growth, bytes per op, from the end of sub-window `from`
/// to the end of the window.
fn rss_growth_per_op(subs: &[SubWindow], from: usize) -> f64 {
    let (Some(a), Some(b)) = (subs.get(from), subs.last()) else {
        return 0.0;
    };
    ratio(
        (b.rss_kib as f64 - a.rss_kib as f64) * 1024.0,
        b.ops.saturating_sub(a.ops) as f64,
    )
}

/// Runs one benchmark run.
pub fn run(opts: &Opts) -> Outcome {
    run_with(opts, SETUPS, false)
}

/// [`run`] with `setups` set-ups instead of [`SETUPS`], and with one
/// expected value perturbed when `corrupt` is set: the self-test's entry.
pub fn run_with(opts: &Opts, setups: usize, corrupt: bool) -> Outcome {
    spans::epoch();
    spans::set_enabled(false);
    if opts.trace {
        spans::reserve();
    }
    let mut setup_times = Vec::new();
    let mut w: Option<Box<dyn Workload>> = None;
    let mut setup_checks = Checks::default();
    for _ in 0..setups.max(1) {
        // The previous instance shuts down before the next one starts, so
        // set-ups do not overlap.
        if let Some(old) = w.take() {
            let c = old.checks();
            setup_checks.attempted += c.attempted;
            setup_checks.failed += c.failed;
            drop(old);
        }
        let t = Instant::now();
        w = Some(setup(&opts.workload, opts.seed, corrupt));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");
    let machines = w.machines();
    let set_tracing = |on: bool| {
        for m in &machines {
            m.trace.set_enabled(on);
        }
        spans::set_enabled(on);
    };
    let before = snap(&machines);
    let clients = w.clients();
    // A traced window alternates untraced and traced sub-windows, so it
    // needs an even count.
    let subs = ((opts.seconds / SUB_SECONDS).round() as usize).max(if opts.trace { 2 } else { 1 });
    let subs = if opts.trace { subs + subs % 2 } else { subs };
    let diagnose = || {
        let mut lines = w.diagnose();
        lines.extend(machines.iter().map(|m| {
            format!(
                "host {}: sim {} ns, watchdog stalls {}",
                m.host(),
                m.clock.now_ns(),
                m.stats.get(keys::WATCHDOG_STALLS)
            )
        }));
        lines
    };
    let window: Window = harness::run_window(
        clients,
        opts.seconds,
        subs,
        opts.trace,
        &set_tracing,
        &diagnose,
    );
    let after = snap(&machines);
    let mut spans = spans::take();

    let untraced: Vec<SubWindow> = window.subs.iter().copied().filter(|s| !s.traced).collect();
    let traced: Vec<SubWindow> = window.subs.iter().copied().filter(|s| s.traced).collect();
    let rate = |subs: &[SubWindow]| -> Vec<f64> {
        subs.iter()
            .map(|s| ok_in(&window.samples, s).len() as f64 / s.seconds())
            .collect()
    };
    let window_ops: u64 = window
        .subs
        .iter()
        .map(|s| ok_in(&window.samples, s).len() as u64)
        .sum();
    let window_s: f64 = window.subs.iter().map(SubWindow::seconds).sum();
    let extra = if window.wedged.is_none() {
        w.finish(&WindowFacts {
            ops: window_ops,
            seconds: window_s,
        })
    } else {
        Vec::new()
    };
    let checks = w.checks();
    let attempted = window.samples.len() as u64 + checks.attempted + setup_checks.attempted;
    let failed = window.samples.iter().filter(|s| !s.ok).count() as u64
        + checks.failed
        + setup_checks.failed;
    let correct = failed == 0 && window.wedged.is_none();

    let mut values = Vec::new();
    let mut put = |def: Def, value: f64, samples: Vec<f64>, n: usize| {
        values.push(Value {
            def,
            value: if value.is_finite() { value } else { 0.0 },
            samples,
            n,
        })
    };
    let e2e = |name: &str| *END_TO_END.iter().find(|d| d.name == name).expect("e2e def");
    if !opts.trace {
        // Percentiles are exact over every raw sample of the window; the
        // per-sub-window figures go to the record as the spread behind them.
        let mut lat: Vec<u64> = untraced
            .iter()
            .flat_map(|s| ok_in(&window.samples, s))
            .collect();
        lat.sort_unstable();
        if !harness::tail_supported(lat.len(), 0.99) {
            eprintln!(
                "dualbench: only {} ops: op_p99_us has fewer than ten samples beyond it",
                lat.len()
            );
        }
        let per_sub = |q: f64| -> Vec<f64> {
            untraced
                .iter()
                .map(|s| {
                    let mut v = ok_in(&window.samples, s);
                    v.sort_unstable();
                    percentile(&v, q) as f64 / 1e3
                })
                .collect()
        };
        let untraced_s: f64 = untraced.iter().map(SubWindow::seconds).sum();
        put(
            e2e("setup_s"),
            harness::median(&setup_times),
            setup_times.clone(),
            setup_times.len(),
        );
        put(
            e2e("ops_per_s"),
            lat.len() as f64 / untraced_s,
            rate(&untraced),
            lat.len(),
        );
        for (name, q) in [("op_p50_us", 0.50), ("op_p99_us", 0.99)] {
            put(
                e2e(name),
                percentile(&lat, q) as f64 / 1e3,
                per_sub(q),
                lat.len(),
            );
        }
        put(
            e2e("sim_us_per_op"),
            ratio(
                (after.sim_ns - before.sim_ns) as f64 / 1e3,
                window_ops as f64,
            ),
            Vec::new(),
            0,
        );
        // Read after set-up and a fixed number of ops, not at the end:
        // a process that grows per op would otherwise report throughput.
        let peak = window.mem.peak_kib as f64 / 1024.0;
        put(e2e("peak_rss_mib"), peak, vec![peak], 0);
    } else {
        let delta = before.stats.delta(&after.stats);
        let get = |k: &str| delta.get(k) as f64;
        let ops = window_ops as f64;
        // Span figures cover only ops whose root (`bench`) span was kept.
        // A root closes after its children, so such an op's tree is whole;
        // spans of ops cut off by the store's cap are dropped here.
        let kept: HashSet<u64> = spans
            .iter()
            .filter(|s| s.layer == "bench")
            .map(|s| s.op)
            .collect();
        spans.retain(|s| kept.contains(&s.op));
        let traced_ops = kept.len();
        let mut lv: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        set(
            &mut lv,
            "error_rate",
            ratio(failed as f64, attempted as f64),
        );
        set(&mut lv, "unix.bytes_copied", get(keys::BYTES_COPIED));
        set(&mut lv, "sched.dispatches", get(keys::SCHED_DISPATCHES));
        set(&mut lv, "sched.steals", get(keys::SCHED_STEALS));
        set(&mut lv, "sched.preemptions", get(keys::SCHED_PREEMPTIONS));
        set(
            &mut lv,
            "sched.affinity_hit_ratio",
            ratio(
                get(keys::SCHED_AFFINITY_HITS),
                get(keys::SCHED_AFFINITY_HITS) + get(keys::SCHED_AFFINITY_MISSES),
            ),
        );
        for (name, key) in [
            ("vm.faults", keys::VM_FAULTS),
            ("vm.pager_fills", keys::VM_PAGER_FILLS),
            ("vm.zero_fills", keys::VM_ZERO_FILLS),
            ("vm.pageouts", keys::VM_PAGEOUTS),
            ("vm.daemon_reclaims", keys::VM_DAEMON_RECLAIMS),
            ("vm.cow_copies", keys::VM_COW_COPIES),
            ("vm.shadow_collapses", keys::VM_SHADOW_COLLAPSES),
            ("vm.async.parks", keys::VM_ASYNC_PARKS),
            ("vm.async.backpressure", keys::VM_ASYNC_BACKPRESSURE),
            ("vm.pager_batches", keys::VM_PAGER_BATCHES),
            ("vm.pager_deferred_runs", keys::VM_PAGER_DEFERRED_RUNS),
            (
                "vm.default_pager_takeovers",
                keys::VM_DEFAULT_PAGER_TAKEOVERS,
            ),
            ("ipc.messages_sent", keys::MSG_SENT),
            ("watchdog.stalls", keys::WATCHDOG_STALLS),
            ("net.dropped", keys::NET_DROPPED),
            ("trace.spans", keys::TRACE_SPANS),
        ] {
            set(&mut lv, name, get(key));
        }
        set(
            &mut lv,
            "vm.cache_hit_ratio",
            ratio(get(keys::VM_CACHE_HITS), get(keys::VM_FAULTS)),
        );
        set(
            &mut lv,
            "ipc.handoff_ratio",
            ratio(get(keys::IPC_HANDOFFS), get(keys::MSG_SENT)),
        );
        set(
            &mut lv,
            "ipc.batches_per_op",
            ratio(get(keys::IPC_BATCHES), ops),
        );
        set(
            &mut lv,
            "net.messages_per_op",
            ratio(get(keys::NET_MESSAGES), ops),
        );
        set(
            &mut lv,
            "net.bytes_per_op",
            ratio(get(keys::NET_BYTES), ops),
        );
        set(
            &mut lv,
            "trace.dropped_events",
            after.dropped.saturating_sub(before.dropped) as f64,
        );
        let plain = harness::median(&rate(&untraced));
        let with_trace = harness::median(&rate(&traced));
        set(&mut lv, "trace.overhead_ratio", ratio(plain, with_trace));
        for &(class, _) in metrics::LOCK_CLASSES {
            let (a0, c0, w0) = before.locks.get(class).copied().unwrap_or_default();
            let (a1, c1, w1) = after.locks.get(class).copied().unwrap_or_default();
            lv.insert(
                format!("lock.{class}.contended_ratio"),
                (ratio((c1 - c0) as f64, (a1 - a0) as f64), 0),
            );
            lv.insert(format!("lock.{class}.wait_ms"), ((w1 - w0) as f64 / 1e6, 0));
        }
        for (metric, span, q) in [
            ("unix.read.p50_us", "unix.read", 0.50),
            ("unix.read.p99_us", "unix.read", 0.99),
            ("unix.write.p99_us", "unix.write", 0.99),
            ("unix.open.p99_us", "unix.open", 0.99),
            ("sched.queue_wait.p50_us", "sched.queue_wait", 0.50),
            ("sched.queue_wait.p99_us", "sched.queue_wait", 0.99),
            ("vm.access.read.p99_us", "vm.read_memory", 0.99),
            ("vm.access.write.p99_us", "vm.write_memory", 0.99),
            ("ipc.rpc.p50_us", "ipc.rpc", 0.50),
            ("ipc.rpc.p99_us", "ipc.rpc", 0.99),
            ("core.send_region.p50_us", "core.send_region", 0.50),
            (
                "core.map_received_region.p50_us",
                "core.map_received_region",
                0.50,
            ),
            ("pager.service.p50_us", "pager.data_request", 0.50),
            ("netshm.visibility.p50_us", "netshm.visibility", 0.50),
            ("netshm.visibility.p99_us", "netshm.visibility", 0.99),
        ] {
            let v = span_durations(&spans, span);
            lv.insert(
                metric.to_string(),
                (percentile(&v, q) as f64 / 1e3, v.len()),
            );
        }
        let reads = spans.iter().filter(|s| s.name == "unix.read").count();
        set(
            &mut lv,
            "unix.read.calls_per_op",
            ratio(reads as f64, traced_ops as f64),
        );
        // From the end of the first traced sub-window on, the span store
        // (reserved up front) and the host rings (full by then) no longer
        // grow, so what grows is the system under test and the per-op
        // samples (24 B each).
        set(
            &mut lv,
            "mem.rss_growth_per_op",
            rss_growth_per_op(&window.subs, 1),
        );
        let self_time = spans::self_time_by_layer(&spans);
        for &layer in metrics::SELF_TIME_LAYERS {
            let (wall, sim) = self_time.get(layer).copied().unwrap_or_default();
            lv.insert(
                format!("self.{layer}.wall_us_per_op"),
                (ratio(wall as f64 / 1e3, traced_ops as f64), 0),
            );
            lv.insert(
                format!("self.{layer}.sim_us_per_op"),
                (ratio(sim as f64 / 1e3, traced_ops as f64), 0),
            );
        }
        for (k, v) in extra {
            lv.insert(k.to_string(), (v, 0));
        }
        for def in metrics::per_layer() {
            let (v, n) = lv.get(def.name).copied().unwrap_or((0.0, 0));
            put(def, v, Vec::new(), n);
        }
    }
    Outcome {
        correct,
        attempted,
        failed,
        values,
        params: w.params(),
        spans,
        wedged: window.wedged,
    }
}
