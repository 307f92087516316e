//! `netshm`: cross-host coherence (§4.2) over `machnet`.
//!
//! A fabric joins three hosts: the `SharedMemoryServer` and two client
//! kernels, one client thread each. A round writes the client's next
//! sequence number into its own slot of one page (a shared page in a
//! fixed share of rounds, else the client's private page), then reads
//! the peer's slot on a seeded shared page. A value read must never go
//! backwards, must have been issued by the peer, and a value the peer
//! finished writing must be visible within a wall deadline. At the end
//! both clients must see each other's last values.

use super::PAGE;
use crate::gen;
use crate::harness::{Client, OpLog};
use crate::spans;
use crate::{Checks, WindowFacts, Workload};
use machcore::{Kernel, KernelConfig, Task};
use machnet::{Fabric, Host};
use machpagers::SharedMemoryServer;
use machsim::Machine;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Pages both clients use.
const SHARED_PAGES: u64 = 2;
/// Region: the shared pages, then one private page per client.
const REGION_PAGES: u64 = SHARED_PAGES + 2;
/// Percent of rounds whose write lands on a shared page.
const SHARED_WRITE_PERCENT: u64 = 30;
/// A value the writer has finished writing must be visible to the peer
/// within this long.
const VISIBILITY_DEADLINE: Duration = Duration::from_secs(1);

const ROUND_STREAM: u64 = 10 << 32;

/// The last value a client finished writing to a shared page, and when.
#[derive(Clone, Copy, Default)]
struct Published {
    seq: u64,
    wall: u64,
    sim: u64,
    op: u64,
}

/// What the two clients tell each other out of band, per (writer,
/// shared page).
#[derive(Default)]
struct Board {
    /// Highest sequence number a writer has started writing.
    issued: [[AtomicU64; SHARED_PAGES as usize]; 2],
    /// The writer's last completed write.
    published: [[Mutex<Published>; SHARED_PAGES as usize]; 2],
    /// Highest published value whose visibility has been recorded.
    seen: [[AtomicU64; SHARED_PAGES as usize]; 2],
}

/// One client host's thread.
struct Side {
    me: usize,
    seed: u64,
    task: Arc<Task>,
    base: u64,
    board: Arc<Board>,
    seq: u64,
    rounds: u64,
    last_seen: [u64; SHARED_PAGES as usize],
    corrupt: bool,
}

impl Side {
    fn slot(&self, page: u64, writer: usize) -> u64 {
        self.base + page * PAGE + writer as u64 * 8
    }

    /// Reads the peer's slot on shared page `page` and checks it.
    fn read_peer(&mut self, page: u64, op: u64, parent: u64) -> bool {
        let peer = 1 - self.me;
        let clock = &self.task.machine().clock;
        let mut b = [0u8; 8];
        let read = {
            let _s = spans::enter("vm.read_memory", "machvm", op, parent, clock);
            self.task.read_memory(self.slot(page, peer), &mut b)
        };
        if read.is_err() {
            return false;
        }
        let val = u64::from_le_bytes(b);
        let p = page as usize;
        let issued = self.board.issued[peer][p].load(Ordering::SeqCst);
        let mut last = self.last_seen[p];
        if self.corrupt && self.rounds == 1 {
            last = u64::MAX;
        }
        // Never backwards, never a value the peer did not write.
        let mut ok = val >= last && val <= issued;
        self.last_seen[p] = self.last_seen[p].max(val);
        let published = *self.board.published[peer][p]
            .lock()
            .expect("board poisoned");
        let now = spans::wall_ns();
        if val >= published.seq && published.seq > 0 {
            let seen = &self.board.seen[peer][p];
            if seen.fetch_max(published.seq, Ordering::SeqCst) < published.seq && spans::enabled() {
                spans::record(spans::Span {
                    id: spans::next_id(),
                    parent: 0,
                    op: published.op,
                    name: "netshm.visibility",
                    layer: "machpagers",
                    wall: (published.wall, now),
                    sim: (published.sim, published.sim),
                });
            }
        } else if now.saturating_sub(published.wall) > VISIBILITY_DEADLINE.as_nanos() as u64 {
            eprintln!(
                "dualbench: host {} still reads {val} on page {page}, {} ms after the peer wrote {}",
                self.me,
                (now - published.wall) / 1_000_000,
                published.seq
            );
            ok = false;
        }
        ok
    }

    fn round(&mut self, log: &mut OpLog) {
        let op = ((self.me as u64) << 48) | self.rounds;
        self.rounds += 1;
        let mut r = gen::rng(self.seed, ROUND_STREAM + op);
        let shared = r.chance(SHARED_WRITE_PERCENT, 100);
        let page = if shared {
            r.next_below(SHARED_PAGES)
        } else {
            SHARED_PAGES + self.me as u64
        };
        let read_page = r.next_below(SHARED_PAGES);
        let clock = self.task.machine().clock.clone();
        let start = Instant::now();
        let root = spans::enter("op.round", "bench", op, 0, &clock);
        self.seq += 1;
        if shared {
            self.board.issued[self.me][page as usize].store(self.seq, Ordering::SeqCst);
        }
        log.stage(op, "write_memory");
        let wrote = {
            let _s = spans::enter("vm.write_memory", "machvm", op, root.id(), &clock);
            self.task
                .write_memory(self.slot(page, self.me), &self.seq.to_le_bytes())
                .is_ok()
        };
        if wrote && shared {
            *self.board.published[self.me][page as usize]
                .lock()
                .expect("board poisoned") = Published {
                seq: self.seq,
                wall: spans::wall_ns(),
                sim: clock.now_ns(),
                op,
            };
        }
        log.stage(op, "read_memory");
        let read_ok = self.read_peer(read_page, op, root.id());
        drop(root);
        log.record(start, wrote && read_ok);
    }
}

/// The `netshm` workload.
pub struct Netshm {
    _fabric: Arc<Fabric>,
    hosts: Vec<Arc<Host>>,
    kernels: Vec<Arc<Kernel>>,
    server: Arc<SharedMemoryServer>,
    sides: Vec<Side>,
    /// Each client's task and mapping, for the final visibility check.
    readers: Vec<(Arc<Task>, u64)>,
    board: Arc<Board>,
    counters_at_start: (u64, u64, u64),
    checks: Checks,
}

impl Netshm {
    /// Builds the fabric, boots both client kernels, attaches both
    /// clients and runs a few checked rounds each.
    pub fn setup(seed: u64, corrupt: bool) -> Self {
        let fabric = Fabric::new();
        let hosts: Vec<Arc<Host>> = ["server", "alpha", "beta"]
            .iter()
            .map(|n| fabric.add_host(n))
            .collect();
        for h in &hosts {
            h.machine().trace.set_enabled(false);
        }
        let server = SharedMemoryServer::start(&fabric, &hosts[0], REGION_PAGES * PAGE);
        let board: Arc<Board> = Arc::default();
        let mut kernels = Vec::new();
        let mut sides = Vec::new();
        let mut checks = Checks::default();
        for (me, host) in hosts[1..].iter().enumerate() {
            let k = Kernel::boot_on(
                host.machine().clone(),
                KernelConfig {
                    sched_cpus: 2,
                    ..KernelConfig::default()
                },
            );
            let task = Task::create(&k, host.name());
            let base = server.attach(&task, host);
            checks.check(base.is_ok());
            sides.push(Side {
                me,
                seed,
                task,
                base: base.unwrap_or(0),
                board: board.clone(),
                seq: 0,
                rounds: 0,
                last_seen: [0; SHARED_PAGES as usize],
                corrupt,
            });
            kernels.push(k);
        }
        let mut log = OpLog::detached();
        for _ in 0..8 {
            for s in sides.iter_mut() {
                s.round(&mut log);
            }
        }
        for s in log.samples() {
            checks.check(s.ok);
        }
        Self {
            _fabric: fabric,
            hosts,
            kernels,
            server,
            readers: sides.iter().map(|s| (s.task.clone(), s.base)).collect(),
            sides,
            board,
            counters_at_start: (0, 0, 0),
            checks,
        }
    }

    fn coherence(&self) -> (u64, u64, u64) {
        let (inv, dem) = self.server.coherence_counters();
        (inv, dem, self.server.unlock_negotiations())
    }
}

impl Workload for Netshm {
    fn machines(&self) -> Vec<Machine> {
        self.hosts.iter().map(|h| h.machine().clone()).collect()
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("hosts", "server,alpha,beta".into()),
            ("sched_cpus", "2".into()),
            ("shared_pages", SHARED_PAGES.to_string()),
            ("shared_write_percent", SHARED_WRITE_PERCENT.to_string()),
            (
                "visibility_deadline_ms",
                VISIBILITY_DEADLINE.as_millis().to_string(),
            ),
            ("client_threads", "2".into()),
        ]
    }

    fn clients(&mut self) -> Vec<Client> {
        self.counters_at_start = self.coherence();
        std::mem::take(&mut self.sides)
            .into_iter()
            .map(|mut side| -> Client {
                Box::new(move |log: &mut OpLog| {
                    side.round(log);
                    Ok(())
                })
            })
            .collect()
    }

    fn finish(&mut self, facts: &WindowFacts) -> Vec<(&'static str, f64)> {
        // Every value a client finished writing to a shared page must be
        // what the peer reads now, within the deadline.
        for (me, (task, base)) in self.readers.iter().enumerate() {
            for page in 0..SHARED_PAGES {
                let peer = 1 - me;
                let want = self.board.issued[peer][page as usize].load(Ordering::SeqCst);
                let deadline = Instant::now() + VISIBILITY_DEADLINE;
                let ok = loop {
                    let mut v = [0u8; 8];
                    let got = task
                        .read_memory(base + page * PAGE + peer as u64 * 8, &mut v)
                        .map(|()| u64::from_le_bytes(v));
                    if got == Ok(want) {
                        break true;
                    }
                    if got.is_err() || Instant::now() > deadline {
                        break false;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                };
                self.checks.check(ok);
            }
        }
        let (i0, d0, u0) = self.counters_at_start;
        let (i1, d1, u1) = self.coherence();
        let ops = facts.ops.max(1) as f64;
        vec![
            ("netshm.invalidations_per_op", (i1 - i0) as f64 / ops),
            ("netshm.demotions_per_op", (d1 - d0) as f64 / ops),
            ("netshm.unlock_negotiations", (u1 - u0) as f64),
        ]
    }

    fn checks(&self) -> Checks {
        self.checks
    }

    fn diagnose(&self) -> Vec<String> {
        self.kernels
            .iter()
            .flat_map(|k| k.watchdog_reports())
            .collect()
    }
}
