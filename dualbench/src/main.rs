//! `dualbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric with its unit, clock and layer, appends the run to
//! `out/runs.jsonl` (and, when traced, its spans to `out/spans-*.jsonl`)
//! under this package, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits 1 if any op or check failed or the run wedged, 2 on bad usage.

use dualbench::{run, spans, Opts, Outcome, SETUPS, WORKLOADS};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Spans written per traced run; the rest are counted, not written.
const SPANS_WRITTEN: usize = 200_000;

fn usage(msg: &str) -> ! {
    eprintln!("dualbench: {msg}");
    eprintln!(
        "usage: dualbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value(),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                opts.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
                    usage("--seconds must be in (0, 120]");
                }
            }
            "--trace" => {
                opts.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        usage("--workload is required");
    }
    opts
}

/// The checkout's commit, read from `.git` without running git.
fn commit(repo: &Path) -> String {
    let git = repo.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(c) = std::fs::read_to_string(git.join(r)) {
        return c.trim().into();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|c| c.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The ROADMAP-item-2 record: commit, host, seed, parameters, and each
/// metric's layer, clock, unit and samples.
fn record(opts: &Opts, out: &Outcome, commit: &str) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = format!(
        "{{\"bench\":\"dualbench\",\"commit\":\"{}\",\"host\":{{\"cores\":{cores}}},\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"params\":{{",
        escape(commit),
        opts.workload,
        opts.seed,
        num(opts.seconds),
        opts.trace,
        out.correct,
        out.attempted,
        out.failed
    );
    let params: Vec<String> = out
        .params
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{}\"", escape(v)))
        .collect();
    s.push_str(&params.join(","));
    s.push_str("},\"metrics\":[");
    let ms: Vec<String> = out
        .values
        .iter()
        .map(|v| {
            let samples: Vec<String> = v.samples.iter().map(|x| num(*x)).collect();
            format!(
                "{{\"name\":\"{}\",\"layer\":\"{}\",\"clock\":\"{}\",\"unit\":\"{}\",\"value\":{},\"n\":{},\"samples\":[{}]}}",
                v.def.name,
                v.def.layer,
                v.def.clock.name(),
                v.def.unit,
                num(v.value),
                v.n,
                samples.join(",")
            )
        })
        .collect();
    s.push_str(&ms.join(","));
    s.push_str("]}");
    s
}

fn append(path: &Path, text: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(text.as_bytes())?;
    f.flush()
}

fn write_spans(path: &Path, spans: &[spans::Span]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter().take(SPANS_WRITTEN) {
        writeln!(f, "{}", spans::to_json_line(s))?;
    }
    f.flush()
}

fn main() {
    let opts = parse_args();
    let pkg = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let out_dir = pkg.join("out");
    let commit = commit(pkg.parent().unwrap_or(&pkg));
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# dualbench workload={} seed={} seconds={} trace={} setups={} commit={} cores={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        SETUPS,
        commit,
        cores
    );
    let out = run(&opts);
    for (k, v) in &out.params {
        println!("# param {k}={v}");
    }
    for v in &out.values {
        let mut line = format!(
            "{:<34} {:>14.4} {:<8} clock={:<4} layer={}",
            v.def.name,
            v.value,
            v.def.unit,
            v.def.clock.name(),
            v.def.layer
        );
        if v.n > 0 {
            let _ = write!(line, " n={}", v.n);
        }
        println!("{line}");
    }
    if opts.trace {
        println!(
            "# spans kept={} dropped={} written={}",
            out.spans.len(),
            spans::dropped(),
            out.spans.len().min(SPANS_WRITTEN)
        );
    }
    if let Some(why) = &out.wedged {
        println!("# wedged: {why}");
    }
    println!(
        "# attempted={} failed={} correct={}",
        out.attempted, out.failed, out.correct
    );

    let saved = std::fs::create_dir_all(&out_dir)
        .and_then(|()| {
            append(
                &out_dir.join("runs.jsonl"),
                &(record(&opts, &out, &commit) + "\n"),
            )
        })
        .and_then(|()| {
            if opts.trace {
                let name = format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed);
                write_spans(&out_dir.join(name), &out.spans)
            } else {
                Ok(())
            }
        });
    if let Err(e) = saved {
        eprintln!("dualbench: could not write the run record: {e}");
    }

    let metrics: Vec<String> = out
        .values
        .iter()
        .map(|v| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                v.def.name,
                num(v.value),
                v.def.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    let _ = std::io::stdout().flush();
    // Exit without tearing the system down: a wedged kernel must not turn
    // a reported failure into a hang.
    std::process::exit(if out.correct { 0 } else { 1 });
}
