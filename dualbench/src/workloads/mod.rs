//! The four workloads. Each module sets its system up from the seed,
//! hands the harness its closed-loop clients, and checks every output
//! against expectations derived from the seed alone.

pub mod build;
pub mod netshm;
pub mod ool_rpc;
pub mod pager_storm;

use std::time::Duration;

/// Wall deadline on every blocking call a client makes itself (sends,
/// receives, job completions). A call that misses it is a failed op.
pub const CALL_DEADLINE: Duration = Duration::from_secs(5);

/// Page size of every kernel the benchmark boots.
pub const PAGE: u64 = 4096;
