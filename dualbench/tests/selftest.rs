//! The checkers can fail: a corrupted expectation is caught on every
//! workload, and clean runs of the benchmark's workloads check out.
//!
//! Run with `cargo test --release --manifest-path dualbench/Cargo.toml`.

use dualbench::{run_with, setup, Opts};

/// Set-up already checks outputs (cold build, warm-up calls, hot-page
/// reads, warm-up rounds), and each workload's corruption lands on a
/// value set-up reads, so a corrupted expectation fails deterministically.
#[test]
fn a_corrupted_expectation_is_caught_on_every_workload() {
    for name in dualbench::WORKLOADS {
        let w = setup(name, 7, true);
        let c = w.checks();
        assert!(
            c.failed >= 1,
            "{name}: corrupted expectation not caught ({c:?})"
        );
        std::mem::forget(w);
    }
}

#[test]
fn clean_setups_check_out() {
    for name in ["build", "ool_rpc", "pager_storm"] {
        let w = setup(name, 7, false);
        let c = w.checks();
        assert!(c.attempted > 0 && c.failed == 0, "{name}: {c:?}");
        std::mem::forget(w);
    }
}

#[test]
fn short_clean_runs_of_the_benchmark_workloads_are_correct() {
    for name in ["build", "ool_rpc"] {
        let out = run_with(
            &Opts {
                workload: name.to_string(),
                seed: 11,
                seconds: 1.0,
                trace: false,
            },
            1,
            false,
        );
        assert!(
            out.correct,
            "{name}: {} of {} failed",
            out.failed, out.attempted
        );
        assert!(
            out.values.iter().all(|v| v.value > 0.0),
            "{name}: a zero end-to-end metric"
        );
    }
}

#[test]
fn a_corrupted_run_fails() {
    let out = run_with(
        &Opts {
            workload: "ool_rpc".to_string(),
            seed: 11,
            seconds: 1.0,
            trace: true,
        },
        1,
        true,
    );
    assert!(!out.correct && out.failed >= 1);
}
