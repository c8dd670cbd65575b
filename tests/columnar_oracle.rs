//! Byte-identity oracle for the columnar `Graph` and its `GraphBuilder`.
//!
//! The seed implementation stored triples in three `BTreeSet<(u32, u32, u32)>`
//! rotations and answered patterns with B-tree range scans. This test keeps
//! that implementation alive as [`SeedStore`] — a reference, not a storage
//! backend — and demands the columnar store answer every pattern shape — and
//! the full Appendix B workload — **byte for byte** identically, across every
//! construction path a graph can take: the bulk build, one-at-a-time builder
//! inserts in reversed and in shuffled order with duplicates, two parsed
//! documents into one builder, and a snapshot encode/decode round-trip.

use std::collections::{BTreeSet, HashMap};
use std::ops::Bound;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sapphire_datagen::workload::{appendix_b, gold_answers};
use sapphire_datagen::{generate, DatasetConfig};
use sapphire_endpoint::{EndpointLimits, LocalEndpoint};
use sapphire_rdf::{snapshot, Graph, GraphBuilder, Term, TermId};
use sapphire_sparql::turtle;

/// The seed's storage layout, verbatim: three rotated B-tree sets, range
/// scans with inclusive `(prefix, 0)..=(prefix, u32::MAX)` bounds. Every
/// result is returned in (s, p, o) order, exactly as the seed yielded it.
#[derive(Default)]
struct SeedStore {
    spo: BTreeSet<(u32, u32, u32)>,
    pos: BTreeSet<(u32, u32, u32)>,
    osp: BTreeSet<(u32, u32, u32)>,
}

impl SeedStore {
    fn insert(&mut self, s: u32, p: u32, o: u32) {
        self.spo.insert((s, p, o));
        self.pos.insert((p, o, s));
        self.osp.insert((o, s, p));
    }

    fn matching(&self, s: Option<u32>, p: Option<u32>, o: Option<u32>) -> Vec<[u32; 3]> {
        let full =
            |lo: (u32, u32, u32), hi: (u32, u32, u32)| (Bound::Included(lo), Bound::Included(hi));
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => self
                .spo
                .contains(&(s, p, o))
                .then_some([s, p, o])
                .into_iter()
                .collect(),
            (Some(s), Some(p), None) => self
                .spo
                .range(full((s, p, 0), (s, p, u32::MAX)))
                .map(|&(a, b, c)| [a, b, c])
                .collect(),
            (Some(s), None, None) => self
                .spo
                .range(full((s, 0, 0), (s, u32::MAX, u32::MAX)))
                .map(|&(a, b, c)| [a, b, c])
                .collect(),
            (None, Some(p), Some(o)) => self
                .pos
                .range(full((p, o, 0), (p, o, u32::MAX)))
                .map(|&(b, c, a)| [a, b, c])
                .collect(),
            (None, Some(p), None) => self
                .pos
                .range(full((p, 0, 0), (p, u32::MAX, u32::MAX)))
                .map(|&(b, c, a)| [a, b, c])
                .collect(),
            (None, None, Some(o)) => self
                .osp
                .range(full((o, 0, 0), (o, u32::MAX, u32::MAX)))
                .map(|&(c, a, b)| [a, b, c])
                .collect(),
            (Some(s), None, Some(o)) => self
                .osp
                .range(full((o, s, 0), (o, s, u32::MAX)))
                .map(|&(c, a, b)| [a, b, c])
                .collect(),
            (None, None, None) => self.spo.iter().map(|&(a, b, c)| [a, b, c]).collect(),
        }
    }
}

type TermTriple = (Term, Term, Term);

/// What the seed would hold after inserting a sequence of term triples: the
/// term table in first-occurrence order over the `(s, p, o)` stream, and the
/// B-tree store over those ids.
fn seed_reference(sequence: &[TermTriple]) -> (Vec<Term>, SeedStore) {
    let mut terms: Vec<Term> = Vec::new();
    let mut ids: HashMap<&Term, u32> = HashMap::new();
    let mut store = SeedStore::default();
    for (s, p, o) in sequence {
        let [s, p, o] = [s, p, o].map(|t| {
            *ids.entry(t).or_insert_with(|| {
                terms.push(t.clone());
                terms.len() as u32 - 1
            })
        });
        store.insert(s, p, o);
    }
    (terms, store)
}

/// A graph's triples in `iter_terms` order, as owned terms.
fn owned(graph: &Graph) -> Vec<TermTriple> {
    graph
        .iter_terms()
        .map(|(s, p, o)| (s.clone(), p.clone(), o.clone()))
        .collect()
}

fn with_every_tenth_twice(triples: impl Iterator<Item = TermTriple>) -> Vec<TermTriple> {
    let mut out = Vec::new();
    for (i, t) in triples.enumerate() {
        if i % 10 == 0 {
            out.push(t.clone());
        }
        out.push(t);
    }
    out
}

fn inserted_one_by_one(sequence: &[TermTriple]) -> Graph {
    let mut builder = GraphBuilder::new();
    for (s, p, o) in sequence {
        builder.insert(s.clone(), p.clone(), o.clone());
    }
    builder.build()
}

/// Every construction path a graph can take: a label, the sequence of term
/// triples the path was fed, and the graph it produced. The sequence decides
/// the term ids (first occurrence), so each path is held to the seed store
/// and to the bulk build *of its own sequence*.
fn storage_paths(generated: &Graph) -> Vec<(&'static str, Vec<TermTriple>, Graph)> {
    let triples: Vec<TermTriple> = owned(generated);
    let bulk = Graph::from_term_triples(triples.iter().cloned());

    let reversed = with_every_tenth_twice(triples.iter().rev().cloned());

    let mut shuffled = with_every_tenth_twice(triples.iter().cloned());
    let mut rng = StdRng::seed_from_u64(0x5A99);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.gen_range(0..=i));
    }

    // Two overlapping documents, one `{s} {p} {o} .` line per triple, read
    // by the Turtle reader into one builder: the second
    // document repeats a third of the first's triples and terms.
    let cut = triples.len() / 3;
    let halves = [&triples[..2 * cut], &triples[cut..]]
        .map(|half| Graph::from_term_triples(half.iter().cloned()));
    let mut builder = GraphBuilder::new();
    let mut documents: Vec<TermTriple> = Vec::new();
    for half in &halves {
        let document: String = half
            .iter_terms()
            .map(|(s, p, o)| format!("{s} {p} {o} .\n"))
            .collect();
        turtle::parse_into(&document, &mut builder).expect("own rendering parses");
        // A document lists its graph in `iter_terms` order.
        documents.extend(owned(half));
    }

    let roundtrip = snapshot::decode(&snapshot::encode(&bulk).expect("a graph encodes"))
        .expect("own snapshot decodes");

    let reversed_graph = inserted_one_by_one(&reversed);
    let shuffled_graph = inserted_one_by_one(&shuffled);
    vec![
        ("reversed+duplicates", reversed, reversed_graph),
        ("shuffled+duplicates", shuffled, shuffled_graph),
        ("two-documents", documents, builder.build()),
        ("snapshot-roundtrip", triples.clone(), roundtrip),
        ("bulk", triples, bulk),
    ]
}

fn raw(rows: impl Iterator<Item = [TermId; 3]>) -> Vec<[u32; 3]> {
    rows.map(|t| t.map(|id| id.0)).collect()
}

#[test]
fn every_pattern_shape_is_byte_identical_to_the_seed_btreeset_store() {
    let generated = generate(DatasetConfig::tiny(42));
    for (label, sequence, graph) in storage_paths(&generated) {
        let (terms, seed) = seed_reference(&sequence);
        let bulk = Graph::from_term_triples(sequence);

        // The term table: first-occurrence order, byte for byte.
        let table: Vec<&Term> = graph.interner().iter().map(|(_, t)| t).collect();
        assert_eq!(
            table,
            terms.iter().collect::<Vec<_>>(),
            "{label}: term table"
        );
        let bulk_table: Vec<&Term> = bulk.interner().iter().map(|(_, t)| t).collect();
        assert_eq!(table, bulk_table, "{label}: term table vs the bulk build");

        assert_eq!(graph.len(), generated.len(), "{label}: duplicates dropped");
        assert_eq!(graph.len(), seed.spo.len(), "{label}: len");
        let resolved: Vec<(&Term, &Term, &Term)> = seed
            .spo
            .iter()
            .map(|&(s, p, o)| (&terms[s as usize], &terms[p as usize], &terms[o as usize]))
            .collect();
        assert_eq!(
            graph.iter_terms().collect::<Vec<_>>(),
            resolved,
            "{label}: iter_terms"
        );
        assert!(
            graph.iter_terms().eq(bulk.iter_terms()),
            "{label}: iter_terms vs the bulk build"
        );

        // Probe anchors: the ids of every stored triple (so every shape hits
        // populated ranges) plus one id past the interner (every shape must
        // come back empty, not panic).
        let absent = terms.len() as u32;
        let mut probes: BTreeSet<(Option<u32>, Option<u32>, Option<u32>)> =
            BTreeSet::from([(None, None, None)]);
        for &(s, p, o) in &seed.spo {
            probes.extend([
                (Some(s), Some(p), Some(o)),
                (Some(s), Some(p), None),
                (Some(s), None, None),
                (None, Some(p), Some(o)),
                (None, Some(p), None),
                (None, None, Some(o)),
                (Some(s), None, Some(o)),
            ]);
        }
        probes.extend([
            (Some(absent), None, None),
            (None, Some(absent), None),
            (None, None, Some(absent)),
            (Some(absent), Some(absent), Some(absent)),
        ]);

        for &(s, p, o) in &probes {
            let (ts, tp, to) = (s.map(TermId), p.map(TermId), o.map(TermId));
            let got = raw(graph.triples_matching(ts, tp, to));
            let want = seed.matching(s, p, o);
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{label}: triples_matching({s:?}, {p:?}, {o:?}) diverged from the seed store"
            );
            assert_eq!(
                graph.triples_matching(ts, tp, to).len(),
                want.len(),
                "{label}: triples_matching({s:?}, {p:?}, {o:?}).len() diverged from the seed store"
            );
            assert_eq!(
                got,
                raw(bulk.triples_matching(ts, tp, to)),
                "{label}: triples_matching({s:?}, {p:?}, {o:?}) diverged from the bulk build"
            );
        }
    }
}

#[test]
fn degrees_match_a_naive_tally_over_the_seed_rows() {
    let generated = generate(DatasetConfig::tiny(7));
    for (label, _, graph) in storage_paths(&generated) {
        let rows = raw(graph.triples_matching(None, None, None));
        let ids: BTreeSet<u32> = rows.iter().flatten().copied().collect();
        for &id in &ids {
            let out = rows.iter().filter(|r| r[0] == id).count();
            let inn = rows.iter().filter(|r| r[2] == id).count();
            assert_eq!(
                graph.out_degree(TermId(id)),
                out,
                "{label}: out_degree({id})"
            );
            assert_eq!(graph.in_degree(TermId(id)), inn, "{label}: in_degree({id})");
        }
    }
}

#[test]
fn appendix_b_gold_answers_are_byte_identical_across_all_storage_paths() {
    let generated = generate(DatasetConfig::tiny(42));
    let questions = appendix_b();
    // Generation is deterministic per seed, so a second generate is an
    // independent copy of the same graph for the reference endpoint.
    let reference = LocalEndpoint::new("oracle-ref", generate(DatasetConfig::tiny(42)), limits());
    let gold: Vec<Vec<String>> = questions
        .iter()
        .map(|q| gold_answers(q, &reference))
        .collect();
    assert!(
        gold.iter().any(|g| !g.is_empty()),
        "workload produced no answers at all — the oracle would be vacuous"
    );

    for (label, _, graph) in storage_paths(&generated) {
        let endpoint = LocalEndpoint::new("oracle", graph, limits());
        for (q, want) in questions.iter().zip(&gold) {
            let got = gold_answers(q, &endpoint);
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{label}: workload answers for {} diverged from the generated graph",
                q.id
            );
        }
    }
}

fn limits() -> EndpointLimits {
    EndpointLimits::warehouse()
}
