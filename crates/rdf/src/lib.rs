//! # sapphire-rdf
//!
//! RDF data-model substrate for the Sapphire reproduction
//! (*Sapphire: Querying RDF Data Made Simple*, El-Roby et al., VLDB 2016).
//!
//! Sapphire helps users write SPARQL queries over RDF datasets they do not
//! know. Everything in the paper ultimately stands on an RDF substrate: the
//! queried endpoints hold RDF graphs, initialization walks the RDFS class
//! hierarchy, and the QSM's structure relaxation explores the RDF graph
//! through SPARQL queries. This crate provides that substrate:
//!
//! * [`term`] — IRIs, literals (plain / language-tagged / datatyped), blank
//!   nodes, and N-Triples-style escaping.
//! * [`interner`] — dense `u32` term ids so triples are 12 bytes and joins are
//!   integer comparisons.
//! * [`graph`] — an immutable in-memory [`Graph`] with sorted columnar
//!   SPO/POS/OSP indexes answered by binary-search range scans, and the
//!   [`GraphBuilder`] every graph is made by (intern, collect rows, sort each
//!   column once).
//! * [`snapshot`] — a versioned, checksummed on-disk format whose layout is
//!   exactly the in-memory columns + interner table, so shards load a
//!   partition with one sequential read instead of regenerating it.
//! * [`ntriples`] / [`turtle`] — parsers and serializers for the text fixture
//!   formats.
//! * [`schema`] — `rdfs:subClassOf` hierarchy utilities that drive the
//!   paper's timeout-aware literal retrieval (§5.1).
//! * [`vocab`] — well-known IRIs (RDF/RDFS/OWL/XSD and the synthetic
//!   DBpedia-like namespaces).
//!
//! ## Example
//!
//! ```
//! use sapphire_rdf::{GraphBuilder, Term};
//!
//! let mut builder = GraphBuilder::new();
//! builder.insert(
//!     Term::iri("http://dbpedia.org/resource/New_York"),
//!     Term::iri("http://dbpedia.org/ontology/population"),
//!     Term::literal("8400000"),
//! );
//! let g = builder.build();
//! let p = g.term_id(&Term::iri("http://dbpedia.org/ontology/population")).unwrap();
//! assert_eq!(g.triples_matching(None, Some(p), None).len(), 1);
//! ```

#![warn(missing_docs)]

pub mod graph;
pub mod interner;
pub mod ntriples;
pub mod partition;
pub mod schema;
pub mod snapshot;
pub mod term;
pub mod turtle;
pub mod vocab;

pub use graph::{Graph, GraphBuilder, IdTriple, Matches};
pub use interner::{FnvMap, Interner, TermId};
pub use partition::{shard_of, Partition, Partitioner};
pub use schema::ClassHierarchy;
pub use snapshot::SnapshotError;
pub use term::{Literal, Term};
