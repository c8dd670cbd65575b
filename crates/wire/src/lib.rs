//! # sapphire-wire
//!
//! A real process boundary for the Sapphire cluster's edge↔shard hop.
//!
//! PRs 3–7 built a multi-tier federation whose tiers compose *in process*:
//! `ClusterRouter` → replica was a function call, so serialization,
//! framing, partial failure, and connection management were never paid or
//! tested. This crate is that boundary made real:
//!
//! * [`frame`] — length-prefixed frames with a magic byte and a hard size
//!   cap, and the typed [`WireError`] taxonomy every layer above maps from;
//! * [`codec`] — a hand-rolled, dependency-free binary encoding (the repo
//!   takes no serde) of the edge↔shard request/reply types, tier and
//!   remaining-deadline included, with a *total* decoder: corrupt bytes
//!   return [`WireError::Corrupt`], never a panic, a hang, or a huge
//!   allocation;
//! * [`WireServer`] — hosts any [`ShardService`] behind a TCP listener
//!   (bounded accept/worker model, graceful drain, and a `kill` switch for
//!   fault drills);
//! * [`WireClient`] — implements [`ShardService`] over one reconnecting
//!   pipelined connection with per-call deadlines, typed mapping of every IO
//!   failure onto [`ServerError::Unreachable`] (so the router's existing
//!   backoff/hedging/degradation machinery fires unchanged), and piggybacked
//!   load headers that keep the router's load probes round-trip-free;
//! * [`FaultProxy`] — injectable latency, connection drops, mid-stream
//!   kills, and one-way partitions between any client and server.
//!
//! The contract that makes all of this safe: every request on this wire is
//! **stateless and idempotent** (the cluster scatter shapes carry the
//! tenant and full query; sessions never cross shards), so "the link died,
//! fail over to a sibling replica" is always correct.
//!
//! [`ShardService`]: sapphire_server::ShardService
//! [`ServerError::Unreachable`]: sapphire_server::ServerError::Unreachable

#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod fault;
pub mod frame;
pub mod server;

pub use client::{WireClient, WireClientConfig};
pub use codec::{LoadHeader, WireReply, WireRequest};
pub use fault::{FaultPlan, FaultProxy};
pub use frame::{WireError, MAX_FRAME, WIRE_VERSION};
pub use server::{WireServer, WireServerConfig, WireServerStats};
