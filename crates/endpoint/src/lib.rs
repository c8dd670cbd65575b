//! # sapphire-endpoint
//!
//! Endpoint simulation substrate for the Sapphire reproduction
//! (*Sapphire: Querying RDF Data Made Simple*, El-Roby et al., VLDB 2016).
//!
//! The paper's Sapphire server sits between the user and remote SPARQL
//! endpoints, reached through the FedX federated query processor. Two
//! behaviours of real endpoints shape Sapphire's design and are reproduced
//! deterministically here:
//!
//! 1. **Timeouts** — endpoints kill long-running queries; Sapphire's
//!    initialization descends the class hierarchy and paginates to stay under
//!    them (§5.1). [`LocalEndpoint`] enforces a per-query *work budget*
//!    instead of a wall clock so the init experiment is reproducible.
//! 2. **Admission control** — endpoints "reject queries from the start if
//!    their estimated execution time is above a threshold"; reproduced with a
//!    cardinality-based cost estimate.
//!
//! [`FederatedProcessor`] substitutes for FedX with one plan: ASK-probe
//! source selection, whole-query routing to the only source of every
//! pattern, and otherwise a nested-loop bound join across the sources.
//! The same plan federates over a serving tier — the cluster edge presents
//! each shard as an [`Endpoint`] — and the serving tier's typed rejections
//! arrive as [`EndpointError::Overloaded`] / [`EndpointError::Unreachable`],
//! which [`Backoff`] retries.
//!
//! ```
//! use std::sync::Arc;
//! use sapphire_endpoint::{Endpoint, EndpointLimits, FederatedProcessor, LocalEndpoint};
//!
//! let g = sapphire_sparql::turtle::parse(r#"res:Ada a dbo:Scientist ."#).unwrap();
//! let ep = Arc::new(LocalEndpoint::new("dbpedia", g, EndpointLimits::public_endpoint(100_000)));
//! let fed = FederatedProcessor::single(ep);
//! let rows = fed.select("SELECT ?s WHERE { ?s a dbo:Scientist }").unwrap();
//! assert_eq!(rows.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod endpoint;
pub mod federation;

pub use backoff::Backoff;
pub use endpoint::{Endpoint, EndpointError, EndpointLimits, EndpointStats, LocalEndpoint};
pub use federation::{FederatedProcessor, FederationError};
