//! The timed window: closed-loop client threads, raw per-op samples,
//! sub-windows, and the deadline that turns a hang into a failed op.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A blocking call that makes no progress for this long is a failed op,
/// and ends the run.
pub const OP_DEADLINE: Duration = Duration::from_secs(10);

/// The window's memory footprint is read when its clients have completed
/// this many ops: a fixed amount of work, so the reading does not follow
/// throughput.
pub const MEM_AT_OPS: u64 = 1000;

/// The process's memory, KiB, from `/proc/self/status`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mem {
    /// Peak resident set so far (`VmHWM`).
    pub peak_kib: u64,
    /// Resident set now (`VmRSS`).
    pub rss_kib: u64,
}

impl Mem {
    /// Reads the process's memory now.
    pub fn now() -> Self {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let field = |name: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(name))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
                .unwrap_or(0)
        };
        Self {
            peak_kib: field("VmHWM:"),
            rss_kib: field("VmRSS:"),
        }
    }
}

/// Ops completed by all clients of a window, and the memory reading taken
/// when they reach [`MEM_AT_OPS`].
#[derive(Default)]
struct Progress {
    ops: AtomicU64,
    mem_at_ops: Mutex<Option<Mem>>,
}

/// One finished op.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// When it ended, ns since the window start.
    pub end_ns: u64,
    /// Wall latency in ns.
    pub lat_ns: u64,
    /// Whether the call succeeded and its output checked out.
    pub ok: bool,
}

/// What a client thread is doing, read by the monitor.
#[derive(Default)]
struct Heartbeat {
    busy: AtomicBool,
    last_ns: AtomicU64,
    stage: Mutex<(u64, &'static str)>,
}

/// A client thread's record of its ops.
pub struct OpLog {
    t0: Instant,
    samples: Vec<Sample>,
    beat: Arc<Heartbeat>,
    progress: Option<Arc<Progress>>,
}

impl OpLog {
    /// A log not watched by any monitor (set-up and warm-up work).
    pub fn detached() -> Self {
        Self::new(Instant::now(), Arc::default(), None)
    }

    fn new(t0: Instant, beat: Arc<Heartbeat>, progress: Option<Arc<Progress>>) -> Self {
        Self {
            t0,
            samples: Vec::new(),
            beat,
            progress,
        }
    }

    fn ns_since_t0(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Notes what op `op` is about to block in, for a hang report.
    pub fn stage(&self, op: u64, what: &'static str) {
        *self.beat.stage.lock().expect("heartbeat poisoned") = (op, what);
    }

    /// Records an op that started at `start` and ends now.
    pub fn record(&mut self, start: Instant, ok: bool) {
        self.push(start, Instant::now(), ok);
    }

    /// Records an op with both ends given.
    pub fn push(&mut self, start: Instant, end: Instant, ok: bool) {
        let end_ns = self.ns_since_t0(end);
        self.samples.push(Sample {
            end_ns,
            lat_ns: end.saturating_duration_since(start).as_nanos() as u64,
            ok,
        });
        if let Some(p) = &self.progress {
            if p.ops.fetch_add(1, Ordering::Relaxed) + 1 == MEM_AT_OPS {
                *p.mem_at_ops.lock().expect("progress poisoned") = Some(Mem::now());
            }
        }
        self.progress();
    }

    /// Tells the monitor the client is still moving.
    pub fn progress(&self) {
        self.beat
            .last_ns
            .store(self.ns_since_t0(Instant::now()), Ordering::Relaxed);
    }

    /// Ops recorded so far.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }
}

/// One step of a closed-loop client: issue one op (or one batch, such as
/// a whole build), wait for it, check it, log it. `Err` means the system
/// is wedged and the run must end.
pub type Client = Box<dyn FnMut(&mut OpLog) -> Result<(), String> + Send>;

/// One sub-window of the timed window.
#[derive(Clone, Copy, Debug)]
pub struct SubWindow {
    /// Start, ns since window start.
    pub start_ns: u64,
    /// End, ns since window start.
    pub end_ns: u64,
    /// Whether rings and spans were on.
    pub traced: bool,
    /// Ops completed by all clients when it ended.
    pub ops: u64,
    /// Resident set when it ended, KiB.
    pub rss_kib: u64,
}

impl SubWindow {
    /// Length in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// Whether a sample ended inside this sub-window.
    pub fn holds(&self, s: &Sample) -> bool {
        s.end_ns >= self.start_ns && s.end_ns < self.end_ns
    }
}

/// What the window produced.
pub struct Window {
    /// Every sample of every client, in no particular order.
    pub samples: Vec<Sample>,
    /// The sub-windows, in order.
    pub subs: Vec<SubWindow>,
    /// Set when a client wedged or reported the system wedged.
    pub wedged: Option<String>,
    /// Memory once [`MEM_AT_OPS`] ops completed (or at the end, if fewer
    /// did).
    pub mem: Mem,
}

/// Runs `clients` for `seconds`, split into `subs` equal sub-windows.
/// With `alternate`, odd sub-windows run traced: `set_tracing(true)` at
/// their start and `false` at their end. `diagnose` is called once, on
/// the first hang, and its lines go to stderr with the clients' stages
/// and the open spans.
pub fn run_window(
    clients: Vec<Client>,
    seconds: f64,
    subs: usize,
    alternate: bool,
    set_tracing: &dyn Fn(bool),
    diagnose: &dyn Fn() -> Vec<String>,
) -> Window {
    let t0 = Instant::now();
    let stop = Arc::new(AtomicBool::new(false));
    let wedge: Arc<Mutex<Option<String>>> = Arc::default();
    let progress: Arc<Progress> = Arc::default();
    let mut beats = Vec::new();
    let mut threads: Vec<JoinHandle<Vec<Sample>>> = Vec::new();
    for (i, mut client) in clients.into_iter().enumerate() {
        let beat: Arc<Heartbeat> = Arc::default();
        beats.push(beat.clone());
        let (stop, wedge, progress) = (stop.clone(), wedge.clone(), progress.clone());
        let handle = std::thread::Builder::new()
            .name(format!("client-{i}"))
            .spawn(move || {
                let mut log = OpLog::new(t0, beat, Some(progress));
                while !stop.load(Ordering::Relaxed) {
                    log.progress();
                    log.beat.busy.store(true, Ordering::Relaxed);
                    let step = client(&mut log);
                    log.beat.busy.store(false, Ordering::Relaxed);
                    if let Err(e) = step {
                        wedge.lock().expect("wedge flag poisoned").get_or_insert(e);
                        stop.store(true, Ordering::Relaxed);
                    }
                }
                log.samples
            })
            .expect("spawn client thread");
        threads.push(handle);
    }

    let sub_ns = (seconds * 1e9 / subs as f64) as u64;
    let mut out = Vec::new();
    let sub = |start_ns: u64, end_ns: u64, traced: bool| SubWindow {
        start_ns,
        end_ns,
        traced,
        ops: progress.ops.load(Ordering::Relaxed),
        rss_kib: Mem::now().rss_kib,
    };
    let since = |t: Instant| t.saturating_duration_since(t0).as_nanos() as u64;
    let mut hang: Option<String> = None;
    let mut check_hang = |now_ns: u64| -> bool {
        for (i, b) in beats.iter().enumerate() {
            let last = b.last_ns.load(Ordering::Relaxed);
            if b.busy.load(Ordering::Relaxed)
                && now_ns.saturating_sub(last) > OP_DEADLINE.as_nanos() as u64
            {
                let (op, stage) = *b.stage.lock().expect("heartbeat poisoned");
                hang = Some(format!(
                    "client-{i} made no progress for {} s in op {op} ({stage})",
                    OP_DEADLINE.as_secs()
                ));
                return true;
            }
        }
        stop.load(Ordering::Relaxed)
    };
    'subs: for i in 0..subs {
        let traced = alternate && i % 2 == 1;
        set_tracing(traced);
        let start_ns = i as u64 * sub_ns;
        let end_ns = start_ns + sub_ns;
        loop {
            let now_ns = since(Instant::now());
            if now_ns >= end_ns {
                break;
            }
            if check_hang(now_ns) {
                out.push(sub(start_ns, now_ns.max(start_ns + 1), traced));
                break 'subs;
            }
            std::thread::sleep(Duration::from_nanos((end_ns - now_ns).min(20_000_000)));
        }
        out.push(sub(start_ns, end_ns, traced));
    }
    set_tracing(false);
    stop.store(true, Ordering::Relaxed);

    // Let every client finish its current step; one that cannot within the
    // deadline is wedged and is left behind (the process exits around it).
    let mut samples = Vec::new();
    let mut stuck = Vec::new();
    for (i, t) in threads.into_iter().enumerate() {
        let deadline = Instant::now() + OP_DEADLINE;
        while !t.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        if t.is_finished() {
            samples.extend(t.join().expect("client thread panicked"));
        } else {
            stuck.push(i);
        }
    }
    if hang.is_none() && !stuck.is_empty() {
        hang = Some(format!("clients {stuck:?} did not return after the window"));
    }
    let reported = wedge.lock().expect("wedge flag poisoned").take();
    let wedged = hang.or(reported);
    if let Some(why) = &wedged {
        // A wedged op never completes: it is one failed op, never retried.
        samples.push(Sample {
            end_ns: since(Instant::now()),
            lat_ns: OP_DEADLINE.as_nanos() as u64,
            ok: false,
        });
        eprintln!("dualbench: {why}");
        for (i, b) in beats.iter().enumerate() {
            let (op, stage) = *b.stage.lock().expect("heartbeat poisoned");
            eprintln!("  client-{i}: last stage op {op} {stage}");
        }
        for line in diagnose() {
            eprintln!("  {line}");
        }
        for line in crate::spans::open_report() {
            eprintln!("  {line}");
        }
    }
    let mem = progress
        .mem_at_ops
        .lock()
        .expect("progress poisoned")
        .unwrap_or_else(|| {
            eprintln!("dualbench: fewer than {MEM_AT_OPS} ops: memory read at the window's end");
            Mem::now()
        });
    Window {
        samples,
        subs: out,
        wedged,
        mem,
    }
}

/// Nearest-rank percentile of sorted `v` (`q` in `(0, 1]`), exact.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether a percentile `q` of `n` samples has at least ten samples
/// beyond it.
pub fn tail_supported(n: usize, q: f64) -> bool {
    (n as f64 * (1.0 - q)).floor() >= 10.0
}

/// Median of `v` (mean of the middle two for even lengths).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), 500);
        assert_eq!(percentile(&v, 0.99), 990);
        assert_eq!(percentile(&v, 1.0), 1000);
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn a_wedged_client_is_a_failed_op_not_a_hang() {
        let client: Client = Box::new(|_log: &mut OpLog| Err("wedged".to_string()));
        let w = run_window(vec![client], 0.2, 2, false, &|_| {}, &Vec::new);
        assert_eq!(w.wedged.as_deref(), Some("wedged"));
        assert_eq!(w.samples.iter().filter(|s| !s.ok).count(), 1);
    }
}
