//! Subject-hash dataset partitioning for scale-out deployments.
//!
//! A single in-memory [`Graph`] stops scaling long before "millions of
//! users"; production RDF stores split the dataset across machines. This
//! module provides the deterministic split the cluster tier builds on:
//!
//! * **Hash-by-subject** — every data triple lands on the shard of its
//!   subject, so the *subject star* of an entity (all of its outgoing
//!   triples, including its `rdf:type` and its literals) is co-located.
//!   Subject-rooted queries — the shape interactive Sapphire sessions
//!   produce — therefore evaluate exactly on one shard each, and a
//!   cross-shard union of shard-local answers equals the single-box answer
//!   set.
//! * **Schema replication** — triples *about classes* (`rdfs:subClassOf`
//!   edges, class declarations, class labels) are copied to every shard, so
//!   each shard can answer the structural probes initialization and the QCM
//!   depend on (class-hierarchy descent, type-frequency statistics) without
//!   a cross-shard hop.
//!
//! The split is a pure function of the graph and the shard count: the same
//! dataset partitions the same way on every run and every machine, which is
//! what makes cluster answers reproducible against a single-box oracle.

use crate::{vocab, Graph, GraphBuilder, Term};

/// Deterministic shard assignment for a subject term.
///
/// FNV-1a over a variant tag plus the term's lexical form — stable across
/// runs, processes, and machines (unlike `std`'s `DefaultHasher`, which is
/// seeded per process and must never decide data placement).
pub fn shard_of(subject: &Term, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let tag: u8 = match subject {
        Term::Iri(_) => 1,
        Term::Literal(_) => 2,
        Term::Blank(_) => 3,
    };
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    h ^= tag as u64;
    h = h.wrapping_mul(0x100_0000_01b3);
    for b in subject.lexical().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// The result of splitting one graph into shard-local graphs.
#[derive(Debug)]
pub struct Partition {
    /// One graph per shard. Each holds its hash-assigned data triples plus a
    /// full copy of the schema slice.
    pub shards: Vec<Graph>,
    /// Triples replicated to every shard (the schema slice).
    pub schema_triples: usize,
    /// Hash-assigned (non-replicated) triples per shard.
    pub data_triples: Vec<usize>,
}

impl Partition {
    /// Total triples across shards, counting replicas (storage cost).
    pub fn stored_triples(&self) -> usize {
        self.shards.iter().map(Graph::len).sum()
    }
}

/// Splits a dataset into `shards` subject-hashed graphs with a replicated
/// schema slice.
#[derive(Debug, Clone, Copy)]
pub struct Partitioner {
    shards: usize,
}

impl Partitioner {
    /// A partitioner producing `shards` shards (floored at 1).
    pub fn new(shards: usize) -> Self {
        Partitioner {
            shards: shards.max(1),
        }
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Split `graph`: schema triples are replicated to every shard, data
    /// triples are hash-assigned by subject.
    ///
    /// A triple is *schema* when its subject is a class — an object of some
    /// `rdf:type` statement or either side of an `rdfs:subClassOf` edge.
    /// This covers class declarations (`dbo:Person a owl:Class`), hierarchy
    /// edges, and class labels, i.e. exactly what every shard needs locally
    /// to answer structural initialization probes. Instance `rdf:type`
    /// triples are data: their subject is the entity, so they travel with
    /// its subject star.
    pub fn split(&self, graph: &Graph) -> Partition {
        let type_id = graph.term_id(&Term::iri(vocab::rdf::TYPE));
        let sub_class_id = graph.term_id(&Term::iri(vocab::rdfs::SUB_CLASS_OF));

        // Class terms: objects of rdf:type, both sides of rdfs:subClassOf.
        let mut classes = std::collections::HashSet::new();
        if let Some(t) = type_id {
            graph.for_each_matching(None, Some(t), None, |triple| {
                classes.insert(triple[2]);
                true
            });
        }
        if let Some(sc) = sub_class_id {
            graph.for_each_matching(None, Some(sc), None, |triple| {
                classes.insert(triple[0]);
                classes.insert(triple[2]);
                true
            });
        }

        // Route each triple of the SPO column to its shard's builder: a
        // shard's terms intern in the order its triples are visited here, so
        // shard-local ids are a function of the source graph alone.
        let mut builders: Vec<GraphBuilder> =
            (0..self.shards).map(|_| GraphBuilder::new()).collect();
        let mut data_triples = vec![0usize; self.shards];
        let mut schema_triples = 0usize;
        for t in graph.triples_matching(None, None, None) {
            let [s, p, o] = t.map(|id| graph.term(id));
            if classes.contains(&t[0]) {
                schema_triples += 1;
                for builder in &mut builders {
                    builder.insert(s.clone(), p.clone(), o.clone());
                }
            } else {
                let idx = shard_of(s, self.shards);
                data_triples[idx] += 1;
                builders[idx].insert(s.clone(), p.clone(), o.clone());
            }
        }
        Partition {
            shards: builders.into_iter().map(GraphBuilder::build).collect(),
            schema_triples,
            data_triples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A class with its schema triples and four people of that class.
    fn data() -> Graph {
        let person = Term::iri("http://dbpedia.org/ontology/Person");
        let a = Term::iri(vocab::rdf::TYPE);
        let mut triples = vec![
            (person.clone(), a.clone(), Term::iri(vocab::owl::CLASS)),
            (
                person.clone(),
                Term::iri(vocab::rdfs::SUB_CLASS_OF),
                Term::iri(vocab::owl::THING),
            ),
            (
                person.clone(),
                Term::iri(vocab::rdfs::LABEL),
                Term::en("person"),
            ),
        ];
        let surname = Term::iri("http://dbpedia.org/ontology/surname");
        for (who, name) in [
            ("JFK", "Kennedy"),
            ("RFK", "Kennedy"),
            ("Ada", "Lovelace"),
            ("Alan", "Turing"),
        ] {
            let s = Term::iri(format!("http://dbpedia.org/resource/{who}"));
            triples.push((s.clone(), a.clone(), person.clone()));
            triples.push((s, surname.clone(), Term::en(name)));
        }
        Graph::from_term_triples(triples)
    }

    #[test]
    fn split_is_deterministic_and_lossless() {
        let g = data();
        let p1 = Partitioner::new(3).split(&g);
        let p2 = Partitioner::new(3).split(&g);
        assert_eq!(p1.data_triples, p2.data_triples);
        // Every original triple is present in some shard; data triples in
        // exactly one.
        for (s, p, o) in g.iter_terms() {
            let copies = p1
                .shards
                .iter()
                .filter(|shard| shard.contains(s, p, o))
                .count();
            assert!(copies >= 1, "triple lost: {s:?} {p:?} {o:?}");
        }
        let data_total: usize = p1.data_triples.iter().sum();
        assert_eq!(data_total + p1.schema_triples, g.len());
        assert_eq!(
            p1.stored_triples(),
            data_total + 3 * p1.schema_triples,
            "schema slice replicated to all 3 shards"
        );
    }

    #[test]
    fn schema_slice_replicated_everywhere() {
        let g = data();
        let p = Partitioner::new(4).split(&g);
        let person = Term::iri("http://dbpedia.org/ontology/Person");
        let thing = Term::iri("http://www.w3.org/2002/07/owl#Thing");
        let sub = Term::iri(vocab::rdfs::SUB_CLASS_OF);
        for shard in &p.shards {
            assert!(
                shard.contains(&person, &sub, &thing),
                "every shard answers structural probes"
            );
        }
    }

    #[test]
    fn subject_stars_are_co_located() {
        let g = data();
        let p = Partitioner::new(4).split(&g);
        for entity in ["JFK", "RFK", "Ada", "Alan"] {
            let s = Term::iri(format!("http://dbpedia.org/resource/{entity}"));
            let expected = shard_of(&s, 4);
            for (i, shard) in p.shards.iter().enumerate() {
                let id = shard.term_id(&s);
                let out = id.map(|id| shard.out_degree(id)).unwrap_or(0);
                if i == expected {
                    assert_eq!(out, 2, "full star on the home shard");
                } else {
                    assert_eq!(out, 0, "no stray triples on other shards");
                }
            }
        }
    }

    #[test]
    fn shards_equal_the_bulk_build() {
        // Each shard is exactly what a bulk build of the triples routed to
        // it yields — same term table, same columns, same snapshot bytes.
        let g = data();
        let p = Partitioner::new(3).split(&g);
        // The only class that is a subject in the data.
        let person = Term::iri("http://dbpedia.org/ontology/Person");
        for (i, shard) in p.shards.iter().enumerate() {
            let routed = g
                .iter_terms()
                .filter(|(s, _, _)| **s == person || shard_of(s, 3) == i)
                .map(|(s, p, o)| (s.clone(), p.clone(), o.clone()));
            assert_eq!(
                crate::snapshot::encode(shard).unwrap(),
                crate::snapshot::encode(&Graph::from_term_triples(routed)).unwrap(),
                "shard {i}"
            );
        }
    }

    #[test]
    fn one_shard_is_the_identity() {
        let g = data();
        let p = Partitioner::new(1).split(&g);
        assert_eq!(p.shards.len(), 1);
        assert_eq!(p.shards[0].len(), g.len());
        // Partitioner::new(0) floors to 1.
        assert_eq!(Partitioner::new(0).shards(), 1);
    }

    #[test]
    fn shard_of_is_stable() {
        let t = Term::iri("http://dbpedia.org/resource/JFK");
        assert_eq!(shard_of(&t, 4), shard_of(&t, 4));
        assert_eq!(shard_of(&t, 1), 0);
        // Literal and IRI with the same lexical form must not collide onto
        // the same hash input.
        let lit = Term::en("http://dbpedia.org/resource/JFK");
        let spread = (2..64).any(|n| shard_of(&t, n) != shard_of(&lit, n));
        assert!(spread, "variant tag participates in the hash");
    }
}
