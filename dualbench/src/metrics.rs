//! Every metric the benchmark reports: name, layer, clock and unit.
//!
//! End-to-end metrics come from untraced runs; per-layer metrics from the
//! traced run. `BENCHMARK.json` lists the same names (a test checks).

/// Which clock a metric is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// This implementation's real time.
    Wall,
    /// The 1987 cost model's simulated time.
    Sim,
    /// A count or ratio of counts.
    None,
}

impl Clock {
    /// As written in the run record.
    pub fn name(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Sim => "sim",
            Clock::None => "none",
        }
    }
}

/// A metric's fixed description.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The crate the metric measures (`e2e` for end-to-end ones).
    pub layer: &'static str,
    /// Clock it is read from.
    pub clock: Clock,
    /// Unit.
    pub unit: &'static str,
}

const fn d(name: &'static str, layer: &'static str, clock: Clock, unit: &'static str) -> Def {
    Def {
        name,
        layer,
        clock,
        unit,
    }
}

use Clock::{None as N, Sim as S, Wall as W};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[Def] = &[
    d("setup_s", "e2e", W, "s"),
    d("ops_per_s", "e2e", W, "op/s"),
    d("op_p50_us", "e2e", W, "us"),
    d("op_p99_us", "e2e", W, "us"),
    d("sim_us_per_op", "e2e", S, "us"),
    d("peak_rss_mib", "e2e", W, "MiB"),
];

/// Lock classes profiled per layer, as `machsim::lockdep` names them.
pub const LOCK_CLASSES: &[(&str, &str)] = &[
    ("run-queue", "machsched"),
    ("fault-table", "machvm"),
    ("shard", "machvm"),
    ("frame-meta", "machvm"),
    ("frame-data", "machvm"),
    ("queues", "machvm"),
    ("port-control", "machipc"),
    ("port-shard", "machipc"),
];

/// Per-layer metrics, printed by every traced run (0 where the workload
/// does not reach the layer). Lock metrics follow from [`LOCK_CLASSES`].
pub const PER_LAYER: &[Def] = &[
    d("error_rate", "bench", N, "fraction"),
    d("mem.rss_growth_per_op", "process", N, "B/op"),
    d("unix.read.calls_per_op", "machunix", N, "call/op"),
    d("unix.read.p50_us", "machunix", W, "us"),
    d("unix.read.p99_us", "machunix", W, "us"),
    d("unix.write.p99_us", "machunix", W, "us"),
    d("unix.open.p99_us", "machunix", W, "us"),
    d("unix.bytes_copied", "machunix", N, "bytes"),
    d("sched.queue_wait.p50_us", "machsched", W, "us"),
    d("sched.queue_wait.p99_us", "machsched", W, "us"),
    d("sched.dispatches", "machsched", N, "count"),
    d("sched.steals", "machsched", N, "count"),
    d("sched.preemptions", "machsched", N, "count"),
    d("sched.affinity_hit_ratio", "machsched", N, "ratio"),
    d("vm.access.read.p99_us", "machvm", W, "us"),
    d("vm.access.write.p99_us", "machvm", W, "us"),
    d("vm.faults", "machvm", N, "count"),
    d("vm.cache_hit_ratio", "machvm", N, "ratio"),
    d("vm.pager_fills", "machvm", N, "count"),
    d("vm.zero_fills", "machvm", N, "count"),
    d("vm.pageouts", "machvm", N, "count"),
    d("vm.daemon_reclaims", "machvm", N, "count"),
    d("vm.cow_copies", "machvm", N, "count"),
    d("vm.shadow_collapses", "machvm", N, "count"),
    d("vm.async.parks", "machvm", N, "count"),
    d("vm.async.backpressure", "machvm", N, "count"),
    d("vm.pager_batches", "machvm", N, "count"),
    d("vm.pager_deferred_runs", "machvm", N, "count"),
    d("vm.default_pager_takeovers", "machvm", N, "count"),
    d("ipc.messages_sent", "machipc", N, "count"),
    d("ipc.handoff_ratio", "machipc", N, "ratio"),
    d("ipc.batches_per_op", "machipc", N, "ratio"),
    d("ipc.rpc.p50_us", "machipc", W, "us"),
    d("ipc.rpc.p99_us", "machipc", W, "us"),
    d("ipc.server_busy_ratio", "machipc", W, "ratio"),
    d("core.send_region.p50_us", "machcore", W, "us"),
    d("core.map_received_region.p50_us", "machcore", W, "us"),
    d("pager.requests", "machcore", N, "count"),
    d("pager.pages_per_request", "machcore", N, "ratio"),
    d("pager.service.p50_us", "machcore", W, "us"),
    d("pager.data_writes", "machcore", N, "count"),
    d("pager.refetch_ratio", "machcore", N, "ratio"),
    d("watchdog.stalls", "machcore", N, "count"),
    d("disk.cold.reads", "machstorage", N, "count"),
    d("disk.cold.writes", "machstorage", N, "count"),
    d("disk.cold.bytes", "machstorage", N, "bytes"),
    d("disk.warm.reads", "machstorage", N, "count"),
    d("disk.warm.writes", "machstorage", N, "count"),
    d("disk.warm.bytes", "machstorage", N, "bytes"),
    d("disk.baseline.reads", "machstorage", N, "count"),
    d("disk.baseline.writes", "machstorage", N, "count"),
    d("disk.baseline.bytes", "machstorage", N, "bytes"),
    d("bcache.hit_ratio", "machstorage", N, "ratio"),
    d("p1_cached_speedup", "machstorage", S, "ratio"),
    d("p2_io_reduction", "machstorage", N, "ratio"),
    d("net.messages_per_op", "machnet", N, "msg/op"),
    d("net.bytes_per_op", "machnet", N, "B/op"),
    d("net.dropped", "machnet", N, "count"),
    d("netshm.invalidations_per_op", "machpagers", N, "ratio"),
    d("netshm.demotions_per_op", "machpagers", N, "ratio"),
    d("netshm.unlock_negotiations", "machpagers", N, "count"),
    d("netshm.visibility.p50_us", "machpagers", W, "us"),
    d("netshm.visibility.p99_us", "machpagers", W, "us"),
    d("trace.overhead_ratio", "machsim", W, "ratio"),
    d("trace.dropped_events", "machsim", N, "count"),
    d("trace.spans", "machsim", N, "count"),
];

/// Layers whose self time per op the traced run reports (the layers the
/// benchmark's call spans enter; `bench` is each op's own remainder).
pub const SELF_TIME_LAYERS: &[&str] = &[
    "bench",
    "machunix",
    "machsched",
    "machvm",
    "machipc",
    "machcore",
];

/// Every per-layer metric, in print order: [`PER_LAYER`], then two per
/// lock class, then wall and sim self time per layer.
pub fn per_layer() -> Vec<Def> {
    let mut v = PER_LAYER.to_vec();
    for &(class, layer) in LOCK_CLASSES {
        v.push(d(
            leak(format!("lock.{class}.contended_ratio")),
            layer,
            N,
            "ratio",
        ));
        v.push(d(leak(format!("lock.{class}.wait_ms")), layer, W, "ms"));
    }
    for &layer in SELF_TIME_LAYERS {
        v.push(d(
            leak(format!("self.{layer}.wall_us_per_op")),
            layer,
            W,
            "us",
        ));
        v.push(d(
            leak(format!("self.{layer}.sim_us_per_op")),
            layer,
            S,
            "us",
        ));
    }
    v
}

/// Per-layer names are built once per run; leaking them keeps [`Def`]
/// a plain `Copy` table row.
fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly these names and units.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let all: Vec<Def> = END_TO_END.iter().copied().chain(per_layer()).collect();
        for m in &all {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"unit\"").count(), all.len());
        assert!(all.len() <= 128 + END_TO_END.len());
    }
}
