//! `pager_storm`: VM on IPC.
//!
//! A task maps a memory object served by the benchmark's own data manager
//! (`spawn_manager` + `vm_allocate_with_pager`). The object is four times
//! physical memory; a seeded hot subset fits. Two client threads access
//! pages with `read_memory`/`write_memory`, 70% reads and 30% writes.
//! Each write stamps the page with its id and a new version; each read is
//! checked against the stamp the thread knows must be there (or the
//! manager's seeded initial fill). Every page belongs to one thread, so
//! each thread's expectations are exact. The manager keeps written-back
//! pages and charges only simulated disk latency, never a wall sleep.

use super::PAGE;
use crate::gen;
use crate::harness::{Client, OpLog};
use crate::spans;
use crate::{quiet_machine, Checks, WindowFacts, Workload};
use machcore::{spawn_manager, DataManager, Kernel, KernelConfig, KernelConn, ManagerHandle, Task};
use machipc::OolBuffer;
use machsim::Machine;
use machvm::VmProt;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Physical memory (the kernel default).
const MEMORY: usize = 4 << 20;
/// Object size in pages: four times physical memory.
const OBJECT_PAGES: u64 = 4 * (MEMORY as u64 / PAGE);
/// Seeded hot pages (1.5 MiB: fits in memory beside the kernel's own).
const HOT_PAGES: usize = 384;
/// Percent of accesses that go to the hot subset.
const HOT_PERCENT: u64 = 90;
/// Percent of accesses that write.
const WRITE_PERCENT: u64 = 30;
/// Client threads; thread `t` owns the pages with `page % THREADS == t`.
const THREADS: u64 = 2;

const HOT_STREAM: u64 = 5 << 32;
const PAGE_STREAM: u64 = 6 << 32;
const OP_STREAM: u64 = 7 << 32;

/// Word `i` of page `page`'s initial fill. Words 0 and 1 are the stamp
/// (page id, version 0); the rest is seeded content.
fn initial_word(seed: u64, page: u64, i: u64) -> u64 {
    match i {
        0 => page,
        1 => 0,
        _ => gen::word(seed, PAGE_STREAM + page, i),
    }
}

/// Which 8-byte word past the stamp a read of `page` probes.
fn probe_word(seed: u64, page: u64) -> u64 {
    2 + gen::word(seed, PAGE_STREAM ^ page, 1) % (PAGE / 8 - 2)
}

/// Pager counters, shared with the workload.
#[derive(Default)]
struct PagerCounts {
    requests: AtomicU64,
    pages_requested: AtomicU64,
    pages_written: AtomicU64,
    refetches: AtomicU64,
}

impl PagerCounts {
    /// (requests, pages requested, pages written back, pages refetched).
    fn read(&self) -> [u64; 4] {
        [
            self.requests.load(Ordering::Relaxed),
            self.pages_requested.load(Ordering::Relaxed),
            self.pages_written.load(Ordering::Relaxed),
            self.refetches.load(Ordering::Relaxed),
        ]
    }
}

/// For spans: the op and access span currently faulting each page, so
/// the manager's callbacks can name their cause.
struct Causes(Vec<AtomicU64>, Vec<AtomicU64>);

/// The benchmark's data manager.
struct StormPager {
    seed: u64,
    machine: Machine,
    written: HashMap<u64, Vec<u8>>,
    counts: Arc<PagerCounts>,
    causes: Arc<Causes>,
}

impl StormPager {
    fn cause(&self, page: u64) -> (u64, u64) {
        let i = page as usize % self.causes.0.len();
        (
            self.causes.0[i].load(Ordering::Relaxed),
            self.causes.1[i].load(Ordering::Relaxed),
        )
    }
}

impl DataManager for StormPager {
    fn data_request(
        &mut self,
        kernel: &KernelConn,
        object: u64,
        offset: u64,
        length: u64,
        _: VmProt,
    ) {
        let first = offset / PAGE;
        let (op, parent) = self.cause(first);
        let _s = spans::enter(
            "pager.data_request",
            "machcore",
            op,
            parent,
            &self.machine.clock,
        );
        let pages = length.div_ceil(PAGE);
        self.counts.requests.fetch_add(1, Ordering::Relaxed);
        self.counts
            .pages_requested
            .fetch_add(pages, Ordering::Relaxed);
        let mut data = Vec::with_capacity((pages * PAGE) as usize);
        for page in first..first + pages {
            match self.written.get(&page) {
                Some(p) => {
                    self.counts.refetches.fetch_add(1, Ordering::Relaxed);
                    data.extend_from_slice(p);
                }
                None => {
                    for i in 0..PAGE / 8 {
                        data.extend_from_slice(&initial_word(self.seed, page, i).to_le_bytes());
                    }
                }
            }
        }
        self.machine
            .clock
            .charge(self.machine.cost.disk_op_ns(pages * PAGE));
        kernel.data_provided(object, offset, OolBuffer::from_vec(data), VmProt::NONE);
    }

    fn data_write(&mut self, kernel: &KernelConn, object: u64, offset: u64, data: OolBuffer) {
        let (op, parent) = self.cause(offset / PAGE);
        let _s = spans::enter(
            "pager.data_write",
            "machcore",
            op,
            parent,
            &self.machine.clock,
        );
        let bytes = data.as_slice();
        for (i, page) in bytes.chunks(PAGE as usize).enumerate() {
            self.written.insert(offset / PAGE + i as u64, page.to_vec());
        }
        self.counts.pages_written.fetch_add(
            bytes.len().div_ceil(PAGE as usize) as u64,
            Ordering::Relaxed,
        );
        self.machine
            .clock
            .charge(self.machine.cost.disk_op_ns(bytes.len() as u64));
        kernel.release_laundry(object, bytes.len() as u64);
    }
}

/// One client thread's pages and what it knows must be in them.
struct Client1 {
    thread: u64,
    seed: u64,
    task: Arc<Task>,
    base: u64,
    hot: Vec<u64>,
    versions: HashMap<u64, u64>,
    causes: Arc<Causes>,
    corrupt_page: Option<u64>,
    ops: u64,
}

impl Client1 {
    /// The stamp words thread's model says `page` holds.
    fn expected_stamp(&self, page: u64) -> [u64; 2] {
        let v = self.versions.get(&page).copied().unwrap_or(0);
        let v = if self.corrupt_page == Some(page) {
            v ^ 1
        } else {
            v
        };
        [page, v]
    }

    /// Reads and checks `page`; returns whether it matched.
    fn read_check(&self, page: u64, op: u64, parent: u64) -> bool {
        let addr = self.base + page * PAGE;
        let clock = &self.task.machine().clock;
        let mut stamp = [0u8; 16];
        let mut probe = [0u8; 8];
        let w = probe_word(self.seed, page);
        let read = {
            let _s = spans::enter("vm.read_memory", "machvm", op, parent, clock);
            self.task
                .read_memory(addr, &mut stamp)
                .and_then(|()| self.task.read_memory(addr + w * 8, &mut probe))
        };
        let [p, v] = self.expected_stamp(page);
        let want_probe = initial_word(self.seed, page, w);
        let ok = read.is_ok()
            && stamp[..8] == p.to_le_bytes()
            && stamp[8..] == v.to_le_bytes()
            && probe == want_probe.to_le_bytes();
        if !ok {
            let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
            eprintln!(
                "dualbench: op {op} page {page}: read {:?} stamp ({}, {}) probe {:#x}; expected ({p}, {v}) probe {want_probe:#x}",
                read.err(),
                word(&stamp[..8]),
                word(&stamp[8..]),
                word(&probe)
            );
        }
        ok
    }

    fn step(&mut self, log: &mut OpLog) {
        let op = (self.thread << 48) | self.ops;
        self.ops += 1;
        let mut r = gen::rng(self.seed, OP_STREAM + op);
        let page = if r.chance(HOT_PERCENT, 100) {
            self.hot[r.next_below(self.hot.len() as u64) as usize]
        } else {
            self.thread + THREADS * r.next_below(OBJECT_PAGES / THREADS)
        };
        let write = r.chance(WRITE_PERCENT, 100);
        let root = spans::enter("op.access", "bench", op, 0, &self.task.machine().clock);
        let slot = page as usize % self.causes.0.len();
        if root.id() != 0 {
            self.causes.0[slot].store(op, Ordering::Relaxed);
            self.causes.1[slot].store(root.id(), Ordering::Relaxed);
        }
        let start = Instant::now();
        let ok = if write {
            log.stage(op, "write_memory");
            let v = self.versions.get(&page).copied().unwrap_or(0) + 1;
            let mut stamp = [0u8; 16];
            stamp[..8].copy_from_slice(&page.to_le_bytes());
            stamp[8..].copy_from_slice(&v.to_le_bytes());
            let _s = spans::enter(
                "vm.write_memory",
                "machvm",
                op,
                root.id(),
                &self.task.machine().clock,
            );
            match self.task.write_memory(self.base + page * PAGE, &stamp) {
                Ok(()) => {
                    self.versions.insert(page, v);
                    true
                }
                Err(e) => {
                    eprintln!("dualbench: op {op} page {page}: write failed: {e}");
                    false
                }
            }
        } else {
            log.stage(op, "read_memory");
            self.read_check(page, op, root.id())
        };
        log.record(start, ok);
    }
}

/// The `pager_storm` workload.
pub struct PagerStorm {
    kernel: Arc<Kernel>,
    _manager: ManagerHandle,
    counts: Arc<PagerCounts>,
    counts_at_start: [u64; 4],
    clients: Vec<Client1>,
    checks: Checks,
    seed: u64,
}

impl PagerStorm {
    /// Boots the kernel, starts the manager, maps the object and reads
    /// every hot page once (checked).
    pub fn setup(seed: u64, corrupt: bool) -> Self {
        let kernel = Kernel::boot_on(
            quiet_machine("storm"),
            KernelConfig {
                memory_bytes: MEMORY,
                sched_cpus: 2,
                ..KernelConfig::default()
            },
        );
        let counts: Arc<PagerCounts> = Arc::default();
        let causes = Arc::new(Causes(
            (0..1024).map(|_| AtomicU64::new(0)).collect(),
            (0..1024).map(|_| AtomicU64::new(0)).collect(),
        ));
        let manager = spawn_manager(
            kernel.machine(),
            "storm",
            StormPager {
                seed,
                machine: kernel.machine().clone(),
                written: HashMap::new(),
                counts: counts.clone(),
                causes: causes.clone(),
            },
        );
        let task = Task::create(&kernel, "storm");
        let mut checks = Checks::default();
        let base = task
            .vm_allocate_with_pager(None, OBJECT_PAGES * PAGE, manager.port(), 0)
            .expect("map the storm object");
        let mut hot: Vec<u64> = (0..OBJECT_PAGES).collect();
        gen::rng(seed, HOT_STREAM).shuffle(&mut hot);
        hot.truncate(HOT_PAGES);
        let clients: Vec<Client1> = (0..THREADS)
            .map(|t| {
                let mine: Vec<u64> = hot.iter().copied().filter(|p| p % THREADS == t).collect();
                Client1 {
                    thread: t,
                    seed,
                    task: task.clone(),
                    base,
                    corrupt_page: (corrupt && t == 0).then(|| mine[0]),
                    hot: mine,
                    versions: HashMap::new(),
                    causes: causes.clone(),
                    ops: 0,
                }
            })
            .collect();
        for c in &clients {
            for &page in &c.hot {
                checks.check(c.read_check(page, 0, 0));
            }
        }
        Self {
            kernel,
            _manager: manager,
            counts,
            counts_at_start: [0; 4],
            clients,
            checks,
            seed,
        }
    }
}

impl Workload for PagerStorm {
    fn machines(&self) -> Vec<Machine> {
        vec![self.kernel.machine().clone()]
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("memory_bytes", MEMORY.to_string()),
            ("sched_cpus", "2".into()),
            ("object_pages", OBJECT_PAGES.to_string()),
            ("hot_pages", HOT_PAGES.to_string()),
            ("hot_percent", HOT_PERCENT.to_string()),
            ("write_percent", WRITE_PERCENT.to_string()),
            ("threads", THREADS.to_string()),
            ("seed", self.seed.to_string()),
        ]
    }

    fn clients(&mut self) -> Vec<Client> {
        self.counts_at_start = self.counts.read();
        std::mem::take(&mut self.clients)
            .into_iter()
            .map(|mut c| -> Client {
                Box::new(move |log: &mut OpLog| {
                    c.step(log);
                    Ok(())
                })
            })
            .collect()
    }

    fn finish(&mut self, _facts: &WindowFacts) -> Vec<(&'static str, f64)> {
        let now = self.counts.read();
        let [requests, pages, written, refetched] =
            std::array::from_fn(|i| (now[i] - self.counts_at_start[i]) as f64);
        vec![
            ("pager.requests", requests),
            ("pager.pages_per_request", pages / requests.max(1.0)),
            ("pager.data_writes", written),
            ("pager.refetch_ratio", refetched / pages.max(1.0)),
        ]
    }

    fn checks(&self) -> Checks {
        self.checks
    }

    fn diagnose(&self) -> Vec<String> {
        self.kernel.watchdog_reports()
    }
}
