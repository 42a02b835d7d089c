// Library code must degrade gracefully instead of panicking; unwrap and
// expect are allowed only under cfg(test).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! The stride-profiling service: a long-running daemon that accepts
//! modules over a framed TCP protocol, runs the paper's profiling and
//! prefetching pipeline on them, and accumulates profiles across runs in
//! an on-disk [`stride_profdb::ProfileDb`].
//!
//! The design is deliberately std-only (no async runtime, no
//! serialization framework). One [`transport`] owns the connection
//! lifecycle for both daemons: a `TcpListener`, a bounded connection
//! queue for backpressure, AIMD admission control ([`limiter`]), and a
//! pool of worker threads that reuse the reproduction's panic-isolating
//! execution engine ([`stride_core::parallel_map_isolated`]) so a
//! panicking request degrades to a typed wire error while sibling
//! requests complete. Behind it sits a [`transport::Handler`]: the profile
//! [`Service`] in `strided` ([`Server`]), the shard [`Router`] in
//! `strided-router` ([`RouterServer`]). Requests are plain text inside
//! length-prefixed frames, auditable with a hexdump.
//!
//! Determinism contract: a `profile` response carries exactly the bytes
//! that [`stride_core::run_profiling`] + [`stride_profdb::ProfileEntry`]
//! produce for the same module/variant/args, at any worker count and
//! client concurrency — the loopback integration test holds the daemon to
//! byte identity with direct pipeline calls.

pub mod client;
pub mod detector;
pub mod limiter;
pub mod proto;
pub mod queue;
pub mod router;
pub mod server;
pub mod service;
pub mod transport;

pub use client::{backoff_schedule, backoff_schedule_for, Client, IdStream, RetryPolicy};
pub use detector::{FailureDetector, HealthState, ProbeOutcome};
pub use limiter::{cost_of, AimdLimiter, Completion};
pub use proto::{
    decode_request, encode_frame, encode_request, read_frame, write_frame, ErrorKind, Request,
    RequestMeta, Response, MAX_FRAME, PROTO_VERSION,
};
pub use queue::BoundedQueue;
pub use router::{split_sections, Origin, Router, RouterConfig, RouterServer, Section};
pub use server::{Server, ServerConfig};
pub use service::{render_classification, render_speedup, Service, ServiceConfig};

/// Prints one daemon status line (`listening on …`, `shut down cleanly`)
/// to stdout. A closed or broken stdout is ignored: the lines are for
/// whoever watches the daemon, and a watcher that went away must not turn
/// a clean shutdown into a panic.
pub fn status_line(line: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    let _ = writeln!(std::io::stdout(), "{line}");
}
