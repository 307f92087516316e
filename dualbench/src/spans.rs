//! The benchmark's own spans around each call it makes into a layer.
//!
//! A span has a name, the layer (crate) it enters, start and end in both
//! clocks (wall ns since the process epoch, sim ns of the calling host),
//! a parent span and the id of the op it belongs to. Spans are recorded
//! only while tracing is on; they stay in memory until the run ends.
//! Self time per layer is a span's duration minus the part of it its
//! children cover.

use machsim::SimClock;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Causing span, 0 for an op's root.
    pub parent: u64,
    /// The op every span of one request shares.
    pub op: u64,
    /// Call name, e.g. `unix.read`.
    pub name: &'static str,
    /// Crate the call enters (`bench` for an op's root).
    pub layer: &'static str,
    /// Wall start and end, ns since [`epoch`].
    pub wall: (u64, u64),
    /// Sim start and end on the calling host's clock.
    pub sim: (u64, u64),
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Spans kept in memory per run (about 90 MiB); later ones are counted
/// in [`dropped`] and not kept, so a fast workload's traced run stays
/// small.
const MAX_SPANS: usize = 1_000_000;

fn closed() -> &'static Mutex<Vec<Span>> {
    static CLOSED: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    CLOSED.get_or_init(|| Mutex::new(Vec::new()))
}

/// Open spans by id: (op, name, wall start).
type OpenTable = Mutex<HashMap<u64, (u64, &'static str, u64)>>;

fn open_spans() -> &'static OpenTable {
    static OPEN: OnceLock<OpenTable> = OnceLock::new();
    OPEN.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The process epoch wall timestamps count from.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Wall ns since [`epoch`].
pub fn wall_ns() -> u64 {
    wall_ns_of(Instant::now())
}

/// Wall ns since [`epoch`] of `t`.
pub fn wall_ns_of(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Turns span recording on or off.
pub fn set_enabled(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// A fresh span id, for a span recorded later with [`record`].
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Records a span whose interval the caller measured itself.
pub fn record(span: Span) {
    // Called from `Guard::drop`, so it must not panic; every push leaves
    // the store valid, so a poisoned lock's data is still good.
    let mut c = closed().lock().unwrap_or_else(PoisonError::into_inner);
    if c.len() < MAX_SPANS {
        c.push(span);
    } else {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Makes the whole span store resident now, so recording spans later does
/// not grow the process while its memory growth is measured.
pub fn reserve() {
    let mut c = closed().lock().unwrap_or_else(PoisonError::into_inner);
    let blank = Span {
        id: 0,
        parent: 0,
        op: 0,
        name: "",
        layer: "",
        wall: (0, 0),
        sim: (0, 0),
    };
    c.clear();
    c.resize(MAX_SPANS, blank);
    c.clear();
}

/// Spans closed after the store was full.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// An open span; closes on drop.
pub struct Guard<'a> {
    open: Option<(Span, &'a SimClock)>,
}

impl Guard<'_> {
    /// The span's id, or 0 when tracing is off.
    pub fn id(&self) -> u64 {
        self.open.as_ref().map_or(0, |(s, _)| s.id)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some((mut span, clock)) = self.open.take() {
            span.wall.1 = wall_ns();
            span.sim.1 = clock.now_ns();
            if let Ok(mut open) = open_spans().lock() {
                open.remove(&span.id);
            }
            record(span);
        }
    }
}

/// Opens span `name` into `layer` for op `op` under `parent`, timed on
/// the wall clock and `clock`. A no-op when tracing is off.
pub fn enter<'a>(
    name: &'static str,
    layer: &'static str,
    op: u64,
    parent: u64,
    clock: &'a SimClock,
) -> Guard<'a> {
    if !enabled() {
        return Guard { open: None };
    }
    let span = Span {
        id: next_id(),
        parent,
        op,
        name,
        layer,
        wall: (wall_ns(), 0),
        sim: (clock.now_ns(), 0),
    };
    open_spans()
        .lock()
        .expect("open-span table poisoned")
        .insert(span.id, (op, name, span.wall.0));
    Guard {
        open: Some((span, clock)),
    }
}

/// Takes every closed span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *closed().lock().expect("span store poisoned"))
}

/// One line per span still open: what a stuck op is inside.
pub fn open_report() -> Vec<String> {
    let now = wall_ns();
    let open = open_spans().lock().expect("open-span table poisoned");
    let mut lines: Vec<String> = open
        .iter()
        .map(|(id, (op, name, start))| {
            format!(
                "open span #{id} {name} op={op} for {} ms",
                now.saturating_sub(*start) / 1_000_000
            )
        })
        .collect();
    lines.sort();
    lines
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time per layer, `(wall ns, sim ns)`: each span's duration minus
/// the part its children cover, summed by layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(i);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let mut wall: Vec<(u64, u64)> = kids.iter().map(|&k| spans[k].wall).collect();
        let mut sim: Vec<(u64, u64)> = kids.iter().map(|&k| spans[k].sim).collect();
        let wall_dur = s.wall.1.saturating_sub(s.wall.0);
        let sim_dur = s.sim.1.saturating_sub(s.sim.0);
        let e = out.entry(s.layer).or_default();
        e.0 += wall_dur - covered(s.wall.0, s.wall.1, &mut wall).min(wall_dur);
        e.1 += sim_dur - covered(s.sim.0, s.sim.1, &mut sim).min(sim_dur);
    }
    out
}

/// One JSON line per span.
pub fn to_json_line(s: &Span) -> String {
    format!(
        "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"layer\":\"{}\",\"wall_ns\":[{},{}],\"sim_ns\":[{},{}]}}",
        s.id, s.parent, s.op, s.name, s.layer, s.wall.0, s.wall.1, s.sim.0, s.sim.1
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, wall: (u64, u64)) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "t",
            layer,
            wall,
            sim: wall,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "bench", (0, 100)),
            span(2, 1, "machipc", (10, 50)),
            span(3, 1, "machvm", (40, 70)),
            span(4, 2, "machcore", (20, 30)),
        ];
        let t = self_time_by_layer(&spans);
        assert_eq!(t["bench"].0, 100 - 60);
        assert_eq!(t["machipc"].0, 40 - 10);
        assert_eq!(t["machvm"].0, 30);
        assert_eq!(t["machcore"].0, 10);
    }
}
