//! # sapphire-cluster
//!
//! The scale-out tier of the Sapphire reproduction: a data-partitioned,
//! multi-tier serving topology over the single-box
//! [`SapphireServer`](sapphire_server::SapphireServer).
//!
//! The paper's Sapphire serves one dataset from one process; the ROADMAP's
//! north star is millions of users, which means the dataset — and the
//! Predictive User Model built over it — must be partitioned across
//! machines. This crate adds exactly that, in three layers:
//!
//! * **Partitioning** ([`sapphire_rdf::partition`]) — the dataset is split
//!   hash-by-subject (each entity's star is co-located) with a
//!   schema-replicated slice, so every shard can answer structural probes
//!   locally.
//! * **Topology** ([`topology::Cluster`]) — `shards × replicas` servers;
//!   each shard's replicas share one shard-local PUM (built by the standard
//!   §5 initialization over the shard slice) but own their admission gates,
//!   caches, and coalescers.
//! * **Routing + merge** ([`router::ClusterRouter`], [`merge`]) — the edge
//!   tier scatters QCM/QSM/raw requests over one replica per shard
//!   (load-aware, hedged, typed bounded retry on
//!   [`Overloaded`](sapphire_server::ServerError::Overloaded)) and merges
//!   the ranked per-shard lists with deterministic **score-then-key top-k
//!   merges**, so cluster answers are reproducible and byte-comparable
//!   against a single-server oracle on the same data.
//!
//! Two cluster answers are exact by construction: QCM completions (the
//! per-shard caches partition the literal corpus) and subject-star query
//! answers (co-located by the partitioner; patterns spanning shards fall
//! back to a federated bound join over the shard endpoints). One is
//! best-effort: structure relaxation runs shard-locally, so Steiner trees
//! crossing shard boundaries are found only via the schema slice or not at
//! all — cross-shard relaxation is future work and documented as such.
//!
//! ```no_run
//! use std::sync::Arc;
//! use sapphire_cluster::{Cluster, ClusterConfig, ClusterRouter};
//! use sapphire_core::SapphireConfig;
//! use sapphire_server::ServerConfig;
//! use sapphire_text::Lexicon;
//!
//! let graph = sapphire_datagen::generate(sapphire_datagen::DatasetConfig::tiny(42));
//! let cluster = Cluster::build(
//!     "edge", &graph, 4, 2,
//!     &Lexicon::dbpedia_default(), &SapphireConfig::default(), &ServerConfig::default(),
//! ).unwrap();
//! let router = ClusterRouter::new(cluster, ClusterConfig::default());
//! let completions = router.complete("alice", "Kenn").unwrap();
//! # let _ = completions;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod merge;
pub mod router;
pub mod topology;

pub use router::{
    ClusterCompletion, ClusterConfig, ClusterError, ClusterMetrics, ClusterRouter, ClusterRun,
    ClusterRunPayload, DegradePolicy,
};
pub use topology::Cluster;

// The router is shared across request threads behind an `Arc` and scatters
// with scoped threads; everything it hands around must stay thread-safe.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ClusterRouter>();
    assert_send_sync::<ClusterError>();
    assert_send_sync::<Cluster>();
};
