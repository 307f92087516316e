//! `ool_rpc`: IPC on VM, on one host.
//!
//! A client thread calls `SendRight::rpc` on a server thread; each
//! request carries a region of seeded size (1 to 64 pages) built with
//! `msg::region_item` (the item `msg::send_region` sends). The server maps
//! it with `msg::map_received_region`, checksums it, writes a seeded
//! fraction of its pages (forcing copy-on-write copies), deallocates it
//! and replies with the checksum. The client checks the checksum against
//! its own model of the region, and checks that the pages the server
//! wrote are unchanged in its own copy.

use super::{CALL_DEADLINE, PAGE};
use crate::gen::{self, Fold};
use crate::harness::{Client, OpLog};
use crate::spans;
use crate::{quiet_machine, Checks, WindowFacts, Workload};
use machcore::{msg, Kernel, KernelConfig, Task};
use machipc::{IpcError, Message, MsgItem, ReceiveRight, SendRight};
use machsim::Machine;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest region, in pages.
const MAX_PAGES: u64 = 64;
/// Largest percent of a region's pages the server writes.
const MAX_WRITE_PERCENT: u64 = 50;

const REQUEST: u32 = 0x0D01;
const REPLY: u32 = 0x0D02;

const CONTENT_STREAM: u64 = 8 << 32;
const OP_STREAM: u64 = 9 << 32;

/// The seeded shape of op `op`: region pages, and which of them the
/// server writes.
fn op_shape(seed: u64, op: u64) -> (u64, Vec<u64>) {
    let mut r = gen::rng(seed, OP_STREAM + op);
    let pages = 1 + r.next_below(MAX_PAGES);
    let percent = r.next_below(MAX_WRITE_PERCENT + 1);
    let written = (0..pages).filter(|_| r.chance(percent, 100)).collect();
    (pages, written)
}

/// The word the server writes at offset 8 of a page it dirties.
fn server_word(op: u64, page: u64) -> u64 {
    gen::mix(op ^ (page << 40) ^ 0x5EC0)
}

/// Combines per-page folds into a region checksum.
fn combine(page_folds: &[u64]) -> u64 {
    let mut f = Fold::default();
    for &h in page_folds {
        f.word(h);
    }
    f.value()
}

fn u64s(m: &Message) -> Vec<u64> {
    m.body.iter().find_map(MsgItem::as_u64s).unwrap_or_default()
}

/// The server thread's loop: one request at a time until `stop`.
fn serve(
    seed: u64,
    task: Arc<Task>,
    rx: ReceiveRight,
    stop: Arc<AtomicBool>,
    busy_ns: Arc<AtomicU64>,
) {
    let clock = task.machine().clock.clone();
    let mut buf = vec![0u8; (MAX_PAGES * PAGE) as usize];
    while !stop.load(Ordering::Relaxed) {
        let called = Instant::now();
        let mut m = match rx.receive(Some(Duration::from_millis(50))) {
            Ok(m) => m,
            Err(IpcError::Timeout) => continue,
            Err(_) => return,
        };
        let got = Instant::now();
        let ids = u64s(&m);
        let [op, pages, parent, sent_wall] = ids[..] else {
            continue;
        };
        if parent != 0 {
            spans::record(spans::Span {
                id: spans::next_id(),
                parent,
                op,
                name: "ipc.receive",
                layer: "machipc",
                wall: (
                    sent_wall.max(spans::wall_ns_of(called)),
                    spans::wall_ns_of(got),
                ),
                sim: (clock.now_ns(), clock.now_ns()),
            });
        }
        let len = pages * PAGE;
        let reply = (|| -> Option<Message> {
            let addr = {
                let _s = spans::enter("core.map_received_region", "machcore", op, parent, &clock);
                msg::map_received_region(&task, &mut m).ok()?
            };
            {
                let _s = spans::enter("vm.read_memory", "machvm", op, parent, &clock);
                task.read_memory(addr, &mut buf[..len as usize]).ok()?;
            }
            let folds: Vec<u64> = buf[..len as usize]
                .chunks(PAGE as usize)
                .map(Fold::of)
                .collect();
            let (_, written) = op_shape(seed, op);
            {
                let _s = spans::enter("vm.write_memory", "machvm", op, parent, &clock);
                for &p in &written {
                    task.write_memory(addr + p * PAGE + 8, &server_word(op, p).to_le_bytes())
                        .ok()?;
                }
            }
            {
                let _s = spans::enter("vm.deallocate", "machvm", op, parent, &clock);
                task.vm_deallocate(addr, len).ok()?;
            }
            Some(Message::new(REPLY).with(MsgItem::u64s(&[combine(&folds), written.len() as u64])))
        })();
        if let Some(r) = m.reply.take() {
            // The client counts a missing reply as a failed op.
            let _ = r.send(
                reply.unwrap_or_else(|| Message::new(0)),
                Some(CALL_DEADLINE),
            );
        }
        busy_ns.fetch_add(got.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// The client: its region and its model of the region's bytes.
struct Caller {
    seed: u64,
    task: Arc<Task>,
    server: SendRight,
    base: u64,
    model: Vec<u8>,
    page_folds: Vec<u64>,
    ops: u64,
    corrupt: bool,
}

impl Caller {
    /// One RPC; returns whether its output checked out.
    fn call(&mut self, log: &mut OpLog) -> bool {
        let op = self.ops;
        self.ops += 1;
        let (pages, written) = op_shape(self.seed, op);
        let clock = self.task.machine().clock.clone();
        let root = spans::enter("op.rpc", "bench", op, 0, &clock);
        // Stamp page 0 so every request's region differs: the client's
        // own write to a region it sent copy-on-write.
        let stamp = gen::mix(self.seed ^ op).to_le_bytes();
        log.stage(op, "stamp write_memory");
        {
            let _s = spans::enter("vm.write_memory", "machvm", op, root.id(), &clock);
            if self.task.write_memory(self.base, &stamp).is_err() {
                return false;
            }
        }
        self.model[..8].copy_from_slice(&stamp);
        self.page_folds[0] = Fold::of(&self.model[..PAGE as usize]);
        let mut expected = combine(&self.page_folds[..pages as usize]);
        if self.corrupt && op == 0 {
            expected ^= 1;
        }

        log.stage(op, "send_region");
        let item = {
            let _s = spans::enter("core.send_region", "machcore", op, root.id(), &clock);
            msg::region_item(&self.task, self.base, pages * PAGE)
        };
        let Ok(item) = item else { return false };
        log.stage(op, "rpc");
        let reply = {
            let s = spans::enter("ipc.rpc", "machipc", op, root.id(), &clock);
            let request = Message::new(REQUEST).with(item).with(MsgItem::u64s(&[
                op,
                pages,
                s.id(),
                spans::wall_ns(),
            ]));
            self.server
                .rpc(request, Some(CALL_DEADLINE), Some(CALL_DEADLINE))
        };
        let Ok(reply) = reply else { return false };
        let ids = u64s(&reply);
        if reply.id != REPLY
            || ids.first() != Some(&expected)
            || ids.get(1) != Some(&(written.len() as u64))
        {
            return false;
        }
        // Copy-on-write isolation: the server's writes must not show here.
        log.stage(op, "isolation read_memory");
        let _s = spans::enter("vm.read_memory", "machvm", op, root.id(), &clock);
        written.iter().all(|&p| {
            let at = (p * PAGE) as usize;
            let mut got = [0u8; 16];
            self.task
                .read_memory(self.base + p * PAGE, &mut got)
                .is_ok()
                && got[..] == self.model[at..at + 16]
        })
    }
}

/// The `ool_rpc` workload.
pub struct OolRpc {
    kernel: Arc<Kernel>,
    caller: Option<Caller>,
    server: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    busy_ns: Arc<AtomicU64>,
    busy_at_start: u64,
    checks: Checks,
}

impl OolRpc {
    /// Boots the kernel, starts the server thread, fills the client's
    /// region and makes a few checked warm-up calls.
    pub fn setup(seed: u64, corrupt: bool) -> Self {
        let kernel = Kernel::boot_on(
            quiet_machine("rpc"),
            KernelConfig {
                sched_cpus: 2,
                ..KernelConfig::default()
            },
        );
        let (rx, tx) = machipc::allocate_port_pair(kernel.machine());
        let stop = Arc::new(AtomicBool::new(false));
        let busy_ns: Arc<AtomicU64> = Arc::default();
        let server_task = Task::create(&kernel, "server");
        let server = {
            let (stop, busy_ns) = (stop.clone(), busy_ns.clone());
            std::thread::Builder::new()
                .name("ool-server".into())
                .spawn(move || serve(seed, server_task, rx, stop, busy_ns))
                .expect("spawn server thread")
        };
        let task = Task::create(&kernel, "client");
        let base = task.vm_allocate(MAX_PAGES * PAGE).expect("client region");
        let model = gen::bytes_nonzero(seed, CONTENT_STREAM, (MAX_PAGES * PAGE) as usize);
        let mut checks = Checks::default();
        checks.check(task.write_memory(base, &model).is_ok());
        let page_folds = model.chunks(PAGE as usize).map(Fold::of).collect();
        let mut caller = Caller {
            seed,
            task,
            server: tx,
            base,
            model,
            page_folds,
            ops: 0,
            corrupt,
        };
        let mut log = OpLog::detached();
        for _ in 0..16 {
            let ok = caller.call(&mut log);
            checks.check(ok);
        }
        Self {
            kernel,
            caller: Some(caller),
            server: Some(server),
            stop,
            busy_at_start: 0,
            busy_ns,
            checks,
        }
    }
}

impl Workload for OolRpc {
    fn machines(&self) -> Vec<Machine> {
        vec![self.kernel.machine().clone()]
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "memory_bytes",
                KernelConfig::default().memory_bytes.to_string(),
            ),
            ("sched_cpus", "2".into()),
            ("max_region_pages", MAX_PAGES.to_string()),
            ("max_server_write_percent", MAX_WRITE_PERCENT.to_string()),
            ("client_threads", "1".into()),
        ]
    }

    fn clients(&mut self) -> Vec<Client> {
        self.busy_at_start = self.busy_ns.load(Ordering::Relaxed);
        let mut caller = self.caller.take().expect("clients taken once");
        vec![Box::new(move |log: &mut OpLog| {
            let start = Instant::now();
            let ok = caller.call(log);
            log.record(start, ok);
            Ok(())
        })]
    }

    fn finish(&mut self, facts: &WindowFacts) -> Vec<(&'static str, f64)> {
        let busy = self.busy_ns.load(Ordering::Relaxed) - self.busy_at_start;
        vec![(
            "ipc.server_busy_ratio",
            busy as f64 / 1e9 / facts.seconds.max(1e-9),
        )]
    }

    fn checks(&self) -> Checks {
        self.checks
    }

    fn diagnose(&self) -> Vec<String> {
        self.kernel.watchdog_reports()
    }
}

impl Drop for OolRpc {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.server.take() {
            let _ = t.join();
        }
    }
}
