//! `mebl-coord` — a multi-process coordinator for sharded panel routing.
//!
//! `mebl-shard` splits a circuit at its stitch boundaries into panel
//! jobs that route independently; this crate scales that fan-out past
//! one process. A [`Coordinator`] owns a fixed ring of `mebl serve`
//! worker addresses and hash-routes each panel job onto it (FNV-1a over
//! a stable panel key, so placement survives coordinator restarts and
//! keeps every worker's cache and shared `--store` directory warm).
//! Fragments travel over the worker wire schema — `POST /route/outcome`
//! returns the canonical `meblout` text. The coordinator runs the same
//! driver a worker does (`mebl_shard::route_sharded_with`: pre-flight,
//! split, fan-out, merge), passing its dispatch as the panel routine, so
//! a coordinator-assembled `/route` body — or its typed pre-flight
//! error — is byte-identical to one worker's in-process sharded run.
//!
//! Failure semantics are typed and bounded: a worker that fails a dial
//! or an I/O deadline is marked dead and the panel re-dispatches to the
//! next live worker on the ring; `429` backpressure retries in place
//! with capped exponential backoff; `/healthz` probe sweeps revive
//! recovered workers; and only when the whole ring is down does a
//! request fail, with [`CoordError::NoWorkers`]. Every wait is bounded
//! by the request's `RunBudget`, so a sick fleet yields an error, never
//! a hang (`tests/shard.rs` drives the full fault battery).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod dispatch;
mod server;

pub use client::{exchange, WorkerReply};
pub use dispatch::{CoordConfig, CoordError, CoordMetrics, Coordinator};
pub use server::{CoordHandle, CoordServer};
