//! `build`: the paper's §9 P1/P2 run, as a make-style parallel compile.
//!
//! Jobs run on the kernel's 2-CPU scheduler and do their I/O through the
//! mapped-file UNIX emulation (`MachUnix` → `FsClient`/`FileServer` →
//! `FlatFs` → `BlockDevice`). Set-up writes the seeded project, runs one
//! cold build, and builds the same project twice on `BaselineUnix` (a 10%
//! buffer cache) as the reference system. The timed loop is repeated warm
//! rebuilds. Every job folds the bytes it reads into its object file;
//! after each build every object is read back and compared with the
//! object computed from the seed alone.

use super::CALL_DEADLINE;
use crate::gen::{self, Fold};
use crate::harness::{median, Client, OpLog};
use crate::spans;
use crate::{quiet_machine, Checks, WindowFacts, Workload};
use machcore::{Kernel, KernelConfig, Task};
use machpagers::{FileServer, FsClient};
use machsched::{Run, TaskTag};
use machsim::stats::keys;
use machsim::Machine;
use machstorage::{BlockDevice, FlatFs};
use machunix::{BaselineUnix, MachUnix, UnixIo};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Physical memory of both systems: the working set (1 MiB) exceeds the
/// baseline's 10% buffer cache and fits well inside half of memory.
const MEMORY: usize = 8 << 20;
/// Compilation units.
const SOURCES: usize = 24;
/// Shared headers.
const HEADERS: usize = 8;
/// Headers each unit includes (a seeded choice; the count is fixed so
/// every seed does the same amount of work).
const INCLUDES: usize = 6;
/// Bytes per source and per header.
const FILE_BYTES: usize = 32 * 1024;
/// Bytes per object file.
const OBJ_BYTES: usize = 4 * 1024;
/// The read(2)/write(2) buffer.
const CHUNK: usize = 8 * 1024;
/// Simulated instructions per byte compiled (the I/O-bound balance the
/// paper's ~2x implies).
const INSTRUCTIONS_PER_BYTE: u64 = 1;
/// Jobs make keeps in flight (`make -j2` on two CPUs).
const JOBS_IN_FLIGHT: usize = 2;

const HDR_STREAM: u64 = 1 << 32;
const SRC_STREAM: u64 = 2 << 32;
const OBJ_STREAM: u64 = 3 << 32;
const INCLUDE_STREAM: u64 = 4 << 32;

fn hdr_name(h: usize) -> String {
    format!("hdr{h}.h")
}

fn src_name(u: usize) -> String {
    format!("src{u}.c")
}

fn obj_name(u: usize) -> String {
    format!("src{u}.o")
}

/// Creates a file holding the given bytes.
type CreateFile<'a> = dyn Fn(&str, &[u8]) -> Result<(), String> + 'a;

/// The project's content and every expectation about it, from the seed.
pub struct Project {
    seed: u64,
    includes: Vec<Vec<usize>>,
    expected_fold: Vec<u64>,
}

impl Project {
    fn new(seed: u64, corrupt: bool) -> Self {
        let includes: Vec<Vec<usize>> = (0..SOURCES)
            .map(|u| {
                let mut hs: Vec<usize> = (0..HEADERS).collect();
                gen::rng(seed, INCLUDE_STREAM + u as u64).shuffle(&mut hs);
                hs.truncate(INCLUDES);
                hs
            })
            .collect();
        let headers: Vec<Vec<u8>> = (0..HEADERS).map(|h| Self::header(seed, h)).collect();
        let mut expected_fold: Vec<u64> = (0..SOURCES)
            .map(|u| {
                let mut f = Fold::default();
                for &h in &includes[u] {
                    f.bytes(&headers[h]);
                }
                let src = Self::source(seed, u);
                f.bytes(&src);
                f.bytes(&src);
                f.value()
            })
            .collect();
        if corrupt {
            expected_fold[0] ^= 1;
        }
        Self {
            seed,
            includes,
            expected_fold,
        }
    }

    fn header(seed: u64, h: usize) -> Vec<u8> {
        gen::bytes_nonzero(seed, HDR_STREAM + h as u64, FILE_BYTES)
    }

    fn source(seed: u64, u: usize) -> Vec<u8> {
        gen::bytes_nonzero(seed, SRC_STREAM + u as u64, FILE_BYTES)
    }

    /// The object a compile of `unit` in build `generation` emits, given
    /// the fold of everything it read.
    fn object(unit: usize, generation: u64, fold: u64) -> Vec<u8> {
        gen::bytes_nonzero(
            fold ^ gen::mix(generation),
            OBJ_STREAM + unit as u64,
            OBJ_BYTES,
        )
    }

    fn expected_object(&self, unit: usize, generation: u64) -> Vec<u8> {
        Self::object(unit, generation, self.expected_fold[unit])
    }

    /// Writes the seeded sources and headers and creates empty objects
    /// through `create(name, bytes)`.
    fn populate(&self, create: &CreateFile) -> Result<(), String> {
        for h in 0..HEADERS {
            create(&hdr_name(h), &Self::header(self.seed, h))?;
        }
        for u in 0..SOURCES {
            create(&src_name(u), &Self::source(self.seed, u))?;
            create(&obj_name(u), &[0u8; OBJ_BYTES])?;
        }
        Ok(())
    }
}

/// Span context of one job's calls.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    op: u64,
    root: u64,
    clock: &'a machsim::SimClock,
}

fn read_file(io: &dyn UnixIo, name: &str, fold: &mut Fold, cx: Ctx) -> Result<usize, String> {
    let err = |e: machunix::UnixError| format!("{name}: {e}");
    let fd = {
        let _s = spans::enter("unix.open", "machunix", cx.op, cx.root, cx.clock);
        io.open(name).map_err(err)?
    };
    let mut buf = vec![0u8; CHUNK];
    let mut pos = 0;
    while pos < FILE_BYTES {
        let n = CHUNK.min(FILE_BYTES - pos);
        {
            let _s = spans::enter("unix.read", "machunix", cx.op, cx.root, cx.clock);
            io.read(fd, pos, &mut buf[..n]).map_err(err)?;
        }
        fold.bytes(&buf[..n]);
        pos += n;
    }
    let _s = spans::enter("unix.close", "machunix", cx.op, cx.root, cx.clock);
    io.close(fd).map_err(err)?;
    Ok(FILE_BYTES)
}

fn write_object(io: &dyn UnixIo, unit: usize, data: &[u8], cx: Ctx) -> Result<(), String> {
    let name = obj_name(unit);
    let err = |e: machunix::UnixError| format!("{name}: {e}");
    let fd = {
        let _s = spans::enter("unix.open", "machunix", cx.op, cx.root, cx.clock);
        io.open(&name).map_err(err)?
    };
    for (i, chunk) in data.chunks(CHUNK).enumerate() {
        let _s = spans::enter("unix.write", "machunix", cx.op, cx.root, cx.clock);
        io.write(fd, i * CHUNK, chunk).map_err(err)?;
    }
    let _s = spans::enter("unix.close", "machunix", cx.op, cx.root, cx.clock);
    io.close(fd).map_err(err)
}

/// One compile job as a phase machine: each header, two source passes,
/// then codegen and the object emit. Each phase is one scheduler step.
struct Job {
    unit: usize,
    generation: u64,
    op: u64,
    root: u64,
    phase: usize,
    fold: Fold,
    bytes: usize,
    err: Option<String>,
}

impl Job {
    fn new(unit: usize, generation: u64, op: u64) -> Self {
        Self {
            unit,
            generation,
            op,
            root: if spans::enabled() {
                spans::next_id()
            } else {
                0
            },
            phase: 0,
            fold: Fold::default(),
            bytes: 0,
            err: None,
        }
    }

    /// Runs the next phase; returns whether the job is finished.
    fn step(&mut self, io: &dyn UnixIo, p: &Project, m: &Machine) -> bool {
        let cx = Ctx {
            op: self.op,
            root: self.root,
            clock: &m.clock,
        };
        let includes = &p.includes[self.unit];
        let result = if self.phase < includes.len() {
            read_file(io, &hdr_name(includes[self.phase]), &mut self.fold, cx)
        } else if self.phase < includes.len() + 2 {
            read_file(io, &src_name(self.unit), &mut self.fold, cx)
        } else {
            m.clock
                .charge(self.bytes as u64 * INSTRUCTIONS_PER_BYTE * m.cost.instruction_ns);
            let obj = Project::object(self.unit, self.generation, self.fold.value());
            write_object(io, self.unit, &obj, cx).map(|()| 0)
        };
        self.phase += 1;
        match result {
            Ok(n) => {
                self.bytes += n;
                self.phase > includes.len() + 2
            }
            Err(e) => {
                self.err = Some(e);
                true
            }
        }
    }
}

/// What one build cost, in sim time and metered I/O.
#[derive(Clone, Copy, Debug, Default)]
struct BuildCost {
    sim_ns: u64,
    disk_reads: u64,
    disk_writes: u64,
    disk_bytes: u64,
    bcache_hits: u64,
    bcache_misses: u64,
}

impl BuildCost {
    fn measure(m: &Machine, sim0: u64, s0: &machsim::StatsSnapshot) -> Self {
        let d = s0.delta(&m.stats.snapshot());
        Self {
            sim_ns: m.clock.now_ns() - sim0,
            disk_reads: d.get(keys::DISK_READS),
            disk_writes: d.get(keys::DISK_WRITES),
            disk_bytes: d.get(keys::DISK_BYTES),
            bcache_hits: d.get(keys::BCACHE_HITS),
            bcache_misses: d.get(keys::BCACHE_MISSES),
        }
    }

    fn disk_ops(&self) -> u64 {
        self.disk_reads + self.disk_writes
    }
}

/// Reads every object back and compares it with the seed's object for
/// `generation`; returns which units matched.
fn verify_objects(io: &dyn UnixIo, p: &Project, generation: u64) -> Vec<bool> {
    (0..SOURCES)
        .map(|u| {
            let name = obj_name(u);
            let mut got = vec![0u8; OBJ_BYTES];
            let read = io.open(&name).and_then(|fd| {
                io.read(fd, 0, &mut got)?;
                io.close(fd)
            });
            read.is_ok() && got == p.expected_object(u, generation)
        })
        .collect()
}

/// The Mach side: kernel, file server and the emulation library.
struct Mach {
    kernel: Arc<Kernel>,
    unix: Arc<MachUnix>,
    project: Arc<Project>,
    next_op: AtomicU64,
}

/// A finished job, as the make loop sees it.
struct Done {
    unit: usize,
    op: u64,
    root: u64,
    submitted: Instant,
    sim_submitted: u64,
    ended: Instant,
    sim_ended: u64,
    err: Option<String>,
}

impl Mach {
    /// One full build, `make -j2` style; logs one op per job, each
    /// verified against the seed after the build.
    fn build(&self, generation: u64, log: &mut OpLog) -> Result<BuildCost, String> {
        let m = self.kernel.machine().clone();
        let sched = Arc::clone(self.kernel.scheduler());
        let (sim0, s0) = (m.clock.now_ns(), m.stats.snapshot());
        let (tx, rx) = mpsc::channel::<Done>();
        let mut done = Vec::with_capacity(SOURCES);
        let (mut next, mut inflight) = (0, 0);
        while next < SOURCES || inflight > 0 {
            while inflight < JOBS_IN_FLIGHT && next < SOURCES {
                let op = self.next_op.fetch_add(1, Ordering::Relaxed);
                let mut job = Job::new(next, generation, op);
                let (unix, project, m2, tx) = (
                    Arc::clone(&self.unix),
                    Arc::clone(&self.project),
                    m.clone(),
                    tx.clone(),
                );
                let (submitted, sim_submitted) = (Instant::now(), m.clock.now_ns());
                let mut started = false;
                sched.submit(TaskTag::new(0), move || {
                    if !started {
                        started = true;
                        if job.root != 0 {
                            spans::record(spans::Span {
                                id: spans::next_id(),
                                parent: job.root,
                                op: job.op,
                                name: "sched.queue_wait",
                                layer: "machsched",
                                wall: (spans::wall_ns_of(submitted), spans::wall_ns()),
                                sim: (sim_submitted, m2.clock.now_ns()),
                            });
                        }
                    }
                    if !job.step(unix.as_ref(), &project, &m2) {
                        return Run::Yield;
                    }
                    // The make loop may have given up on this build; a
                    // late completion has no one to tell.
                    let _ = tx.send(Done {
                        unit: job.unit,
                        op: job.op,
                        root: job.root,
                        submitted,
                        sim_submitted,
                        ended: Instant::now(),
                        sim_ended: m2.clock.now_ns(),
                        err: job.err.take(),
                    });
                    Run::Done
                });
                next += 1;
                inflight += 1;
            }
            log.stage(generation, "waiting for a compile job");
            let d = rx.recv_timeout(CALL_DEADLINE).map_err(|_| {
                format!("a compile job of build {generation} missed the {CALL_DEADLINE:?} deadline")
            })?;
            inflight -= 1;
            log.progress();
            done.push(d);
        }
        log.stage(generation, "sync_all");
        let synced = self.unix.sync_all().is_ok();
        let cost = BuildCost::measure(&m, sim0, &s0);
        log.stage(generation, "verifying objects");
        let ok = verify_objects(self.unix.as_ref(), &self.project, generation);
        for d in done {
            if d.root != 0 {
                spans::record(spans::Span {
                    id: d.root,
                    parent: 0,
                    op: d.op,
                    name: "op.compile",
                    layer: "bench",
                    wall: (spans::wall_ns_of(d.submitted), spans::wall_ns_of(d.ended)),
                    sim: (d.sim_submitted, d.sim_ended),
                });
            }
            if let Some(e) = &d.err {
                eprintln!("dualbench: build {generation} unit {}: {e}", d.unit);
            }
            log.push(
                d.submitted,
                d.ended,
                synced && d.err.is_none() && ok[d.unit],
            );
        }
        Ok(cost)
    }
}

/// A serial build on the baseline system (set-up only).
fn baseline_build(
    unix: &BaselineUnix,
    m: &Machine,
    p: &Project,
    generation: u64,
    checks: &mut Checks,
) -> BuildCost {
    let (sim0, s0) = (m.clock.now_ns(), m.stats.snapshot());
    for unit in 0..SOURCES {
        let mut job = Job::new(unit, generation, 0);
        while !job.step(unix, p, m) {}
        checks.check(job.err.is_none());
    }
    checks.check(unix.sync_all().is_ok());
    let cost = BuildCost::measure(m, sim0, &s0);
    for ok in verify_objects(unix, p, generation) {
        checks.check(ok);
    }
    cost
}

/// The `build` workload.
pub struct Build {
    mach: Arc<Mach>,
    _server: Arc<FileServer>,
    baseline_machine: Machine,
    cold: BuildCost,
    baseline_warm: BuildCost,
    warm: Arc<Mutex<Vec<BuildCost>>>,
    checks: Checks,
}

impl Build {
    /// Writes the project, runs the baseline builds and the cold build.
    pub fn setup(seed: u64, corrupt: bool) -> Self {
        let project = Arc::new(Project::new(seed, corrupt));
        let mut checks = Checks::default();

        let bm = quiet_machine("baseline");
        let bfs = Arc::new(FlatFs::format(Arc::new(BlockDevice::new(&bm, 4096)), 0));
        let baseline = BaselineUnix::new(&bm, bfs.clone(), MEMORY, 10);
        let populated = project.populate(&|name, data| {
            bfs.create(name).map_err(|e| e.to_string())?;
            bfs.write(name, 0, data).map_err(|e| e.to_string())
        });
        checks.check(populated.is_ok());
        baseline_build(&baseline, &bm, &project, 0, &mut checks);
        let baseline_warm = baseline_build(&baseline, &bm, &project, 1, &mut checks);

        let kernel = Kernel::boot_on(
            quiet_machine("mach"),
            KernelConfig {
                memory_bytes: MEMORY,
                sched_cpus: 2,
                ..KernelConfig::default()
            },
        );
        let fs = Arc::new(FlatFs::format(
            Arc::new(BlockDevice::new(kernel.machine(), 4096)),
            0,
        ));
        let server = FileServer::start(kernel.machine(), fs);
        let client = FsClient::new(server.port().clone());
        let populated = project.populate(&|name, data| {
            client.create(name).map_err(|e| e.to_string())?;
            client.write_file(name, data).map_err(|e| e.to_string())
        });
        checks.check(populated.is_ok());
        let task = Task::create(&kernel, "make");
        let unix = Arc::new(MachUnix::new(&task, FsClient::new(server.port().clone())));
        let mach = Arc::new(Mach {
            kernel,
            unix,
            project,
            next_op: AtomicU64::new(1),
        });
        let mut log = OpLog::detached();
        let cold = mach.build(0, &mut log).unwrap_or_else(|e| {
            eprintln!("dualbench: cold build: {e}");
            checks.check(false);
            BuildCost::default()
        });
        for s in log.samples() {
            checks.check(s.ok);
        }
        Self {
            mach,
            _server: server,
            baseline_machine: bm,
            cold,
            baseline_warm,
            warm: Arc::default(),
            checks,
        }
    }
}

impl Workload for Build {
    fn machines(&self) -> Vec<Machine> {
        vec![
            self.mach.kernel.machine().clone(),
            self.baseline_machine.clone(),
        ]
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("memory_bytes", MEMORY.to_string()),
            ("sched_cpus", "2".into()),
            ("sources", SOURCES.to_string()),
            ("headers", HEADERS.to_string()),
            ("includes_per_unit", INCLUDES.to_string()),
            ("file_bytes", FILE_BYTES.to_string()),
            ("object_bytes", OBJ_BYTES.to_string()),
            ("jobs_in_flight", JOBS_IN_FLIGHT.to_string()),
            ("baseline_cache_percent", "10".into()),
        ]
    }

    fn clients(&mut self) -> Vec<Client> {
        let (mach, warm) = (Arc::clone(&self.mach), Arc::clone(&self.warm));
        let mut generation = 0;
        vec![Box::new(move |log: &mut OpLog| {
            generation += 1;
            let cost = mach.build(generation, log)?;
            warm.lock().expect("build costs poisoned").push(cost);
            Ok(())
        })]
    }

    fn finish(&mut self, _facts: &WindowFacts) -> Vec<(&'static str, f64)> {
        let warm = self.warm.lock().expect("build costs poisoned");
        let med = |f: fn(&BuildCost) -> u64| {
            median(&warm.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
        };
        let b = self.baseline_warm;
        vec![
            ("disk.cold.reads", self.cold.disk_reads as f64),
            ("disk.cold.writes", self.cold.disk_writes as f64),
            ("disk.cold.bytes", self.cold.disk_bytes as f64),
            ("disk.warm.reads", med(|c| c.disk_reads)),
            ("disk.warm.writes", med(|c| c.disk_writes)),
            ("disk.warm.bytes", med(|c| c.disk_bytes)),
            ("disk.baseline.reads", b.disk_reads as f64),
            ("disk.baseline.writes", b.disk_writes as f64),
            ("disk.baseline.bytes", b.disk_bytes as f64),
            (
                "bcache.hit_ratio",
                b.bcache_hits as f64 / (b.bcache_hits + b.bcache_misses).max(1) as f64,
            ),
            (
                "p1_cached_speedup",
                b.sim_ns as f64 / med(|c| c.sim_ns).max(1.0),
            ),
            (
                "p2_io_reduction",
                b.disk_ops() as f64 / med(BuildCost::disk_ops).max(1.0),
            ),
        ]
    }

    fn checks(&self) -> Checks {
        self.checks
    }

    fn diagnose(&self) -> Vec<String> {
        self.mach.kernel.watchdog_reports()
    }
}
