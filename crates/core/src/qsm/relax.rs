//! Query structure relaxation (Algorithm 3, §6.2.2).
//!
//! When the query's *structure* doesn't match the data (Figure 6: the user
//! connects "Jack Kerouac" and "Viking Press" directly to `?book`, but the
//! data routes them through author/publisher entities), the QSM connects the
//! query's literals through actual paths in the remote graph. Each literal
//! plus its JW-alternatives forms a *seed group*; groups are connected with a
//! budgeted, memoized, bidirectional-Dijkstra Steiner-tree approximation
//! whose edge weights favour predicates from the query (w_q < w_default).
//! Once the searches meet, the terminals are joined by Kou, Markowsky &
//! Berman's distance network over the explored graph (shortest paths
//! between terminals, their MST, the union of its paths); the resulting
//! tree — induced subgraph → MST → prune degree-1 non-terminals — becomes a
//! suggested SPARQL query. Approximation ratio over the explored graph:
//! 2 − 2/s for s terminals \[16\].
//!
//! Everything the algorithm learns about the graph arrives through SPARQL
//! queries against the federated processor, never direct graph access: the
//! paper's endpoints are remote, and the 100-query budget exists precisely
//! because each expansion costs a round trip.
//!
//! Those round trips amortize across requests: a relaxer built
//! [`with_cache`](StructureRelaxer::with_cache) consults the shared
//! [`NeighborhoodCache`] before issuing expansion
//! queries, charging the budget identically either way so warm results stay
//! byte-identical to a cold run (see that module's docs), and a relaxer
//! built [`at_tier`](StructureRelaxer::at_tier) runs with a reduced budget
//! from the [`SteinerConfig`] ladder — the serving tier's degraded mode.
//!
//! The explorer keeps one copy of the graph it explores. It numbers each
//! vertex once, when the vertex is first seen, in a per-request
//! [`Interner`] that holds the vertex's term once, and keeps each expanded
//! vertex's neighbour list beside that number, with every neighbour's
//! number. Those lists *are* the union graph: the group searches walk them,
//! and all four steps of Kou, Markowsky & Berman run over them on the same
//! numbering. A group search records, whenever a vertex's distance
//! improves, the seed that vertex's best path starts from, so a meeting
//! vertex names its terminals without a walk back.
//!
//! Numbers only index; every tie breaks by `Term` order, so neither hash
//! order nor discovery order can move a relaxation. The group searches pop
//! `(distance, term)`. Step 1's Dijkstra pops `(distance, term)`, so of two
//! equal paths the one through the earlier-popped vertex wins, and a
//! parallel edge loses to the smaller `(subject, predicate, object)`; its
//! Kruskal sorts `(distance, terminal, terminal)`. Step 3's Kruskal sorts
//! `(weight, subject, predicate, object)`, which is the `tree`'s order.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

use sapphire_endpoint::FederatedProcessor;
use sapphire_rdf::{Interner, Term};
use sapphire_sparql::{GraphPattern, Query, QueryResult, SelectQuery, TermPattern, TriplePattern};

use super::neighborhood::{Neighbor, NeighborhoodCache};
use crate::config::SteinerConfig;

/// A directed RDF edge discovered during expansion.
pub type Edge = (Term, Term, Term);

/// An edge of the explored graph with its endpoints by number:
/// `(weight, subject, predicate, object)`.
type NumberedEdge<'g> = (u64, usize, &'g Term, usize);

/// The outcome of a relaxation attempt.
#[derive(Debug, Clone)]
pub struct RelaxedQuery {
    /// The suggested query: the Steiner tree with non-terminal vertices
    /// generalized to variables.
    pub query: SelectQuery,
    /// The tree's edges as directed triples.
    pub tree: Vec<Edge>,
    /// Terminal literals that the tree connects (one per connected group).
    pub terminals: Vec<Term>,
    /// Expansion budget consumed — the SPARQL queries a *cold* run issues.
    /// A warm [`NeighborhoodCache`] serves some expansions without their
    /// round trips but still charges them here, so this number (and the
    /// whole relaxation) is identical warm or cold; the actual savings are
    /// visible in
    /// [`NeighborhoodStats::queries_saved`](super::NeighborhoodStats::queries_saved).
    pub queries_used: usize,
    /// True if every seed group was connected; false if the budget ran out
    /// after connecting only a subset.
    pub complete: bool,
}

/// Runs Algorithm 3.
pub struct StructureRelaxer<'a> {
    fed: &'a FederatedProcessor,
    config: SteinerConfig,
    /// Predicates from the user's query (and their QSM alternatives), whose
    /// edges get the favourable weight `w_q`.
    preferred_predicates: HashSet<String>,
    /// Shared cross-request expansion cache, if the caller has one.
    cache: Option<Arc<NeighborhoodCache>>,
    /// Budget-ladder tier this relaxer runs at (0 = full budget).
    tier: usize,
}

struct Explorer<'a> {
    fed: &'a FederatedProcessor,
    budget_left: usize,
    queries_used: usize,
    /// Every vertex seen so far, numbered once, in the order it was seen.
    vertices: Interner,
    /// The union graph: by vertex number, the vertex's neighbour list once
    /// it is expanded.
    lists: Vec<Option<Expansion>>,
    shared: Option<&'a NeighborhoodCache>,
}

/// An expanded vertex's neighbour list, `Arc`'d as the shared cache holds
/// it, and each neighbour's number, index for index.
struct Expansion {
    neighbors: Arc<Vec<Neighbor>>,
    ids: Vec<usize>,
}

impl<'a> Explorer<'a> {
    /// True for schema-level predicates whose edges are excluded from the
    /// expansion: class vertices are super-hubs (every Person connects to
    /// every other Person through `rdf:type dbo:Person`), so paths through
    /// them are semantically vacuous and — on real DBpedia — expanding them
    /// would exhaust the query budget instantly.
    fn is_schema_edge(p: &Term) -> bool {
        matches!(
            p.as_iri(),
            Some(sapphire_rdf::vocab::rdf::TYPE) | Some(sapphire_rdf::vocab::rdfs::SUB_CLASS_OF)
        )
    }

    /// The number of `t`, numbering it if it is new.
    fn id(&mut self, t: &Term) -> usize {
        if let Some(id) = self.vertices.get(t) {
            return id.index();
        }
        self.lists.push(None);
        self.vertices.intern(t.clone()).index()
    }

    /// Expand vertex `v`, which no search has expanded: only the group that
    /// first pops a vertex expands it.
    fn expand(&mut self, v: usize) -> Option<&Expansion> {
        let term = self.vertices.terms()[v].clone();
        let needed = if term.is_literal() { 1 } else { 2 };
        if self.budget_left < needed {
            return None;
        }
        // What a cold expansion of `v` actually charges: the incoming-edge
        // query always runs, the outgoing-edge query only for IRIs. A cache
        // hit is charged exactly the same — the search frontier must be
        // byte-identical warm or cold — but skips the SPARQL round trips.
        let charge = 1 + usize::from(term.is_iri());
        self.budget_left -= charge;
        self.queries_used += charge;
        let neighbors = match self.shared.map(|cache| (cache, cache.get(&term))) {
            Some((cache, Some(neighbors))) => {
                cache.note_saved(charge as u64);
                neighbors
            }
            _ => self.fetch(&term, charge),
        };
        let ids = neighbors.iter().map(|(n, _, _)| self.id(n)).collect();
        self.lists[v] = Some(Expansion { neighbors, ids });
        self.lists[v].as_ref()
    }

    /// Run `v`'s `charge` expansion queries: incoming edges `?s ?p v` for
    /// every vertex, outgoing edges `v ?p ?o` for IRIs only (literals are
    /// never subjects).
    fn fetch(&self, v: &Term, charge: usize) -> Arc<Vec<Neighbor>> {
        let mut neighbors: Vec<Neighbor> = Vec::new();
        // True only if every expansion query actually answered — a failed
        // round trip (endpoint timeout, shed federation hop) yields a
        // *partial* neighbor list that must never be published to the
        // shared cache, where it would poison every later relaxation; this
        // relaxation's own graph keeps it.
        let mut complete = true;
        for outgoing in [false, true].into_iter().take(charge) {
            let (var, s, o) = if outgoing {
                ("o", TermPattern::Term(v.clone()), TermPattern::var("o"))
            } else {
                ("s", TermPattern::var("s"), TermPattern::Term(v.clone()))
            };
            let query = Query::Select(SelectQuery::star(GraphPattern {
                triples: vec![TriplePattern::new(s, TermPattern::var("p"), o)],
                ..GraphPattern::default()
            }));
            let Ok(QueryResult::Solutions(sols)) = self.fed.execute_parsed(&query) else {
                complete = false;
                continue;
            };
            for r in 0..sols.len() {
                if let (Some(n), Some(p)) = (sols.get(r, var), sols.get(r, "p")) {
                    if !Self::is_schema_edge(p) {
                        neighbors.push((n.clone(), p.clone(), outgoing));
                    }
                }
            }
        }
        let neighbors = Arc::new(neighbors);
        if let Some(cache) = self.shared {
            cache.note_executed(charge as u64);
            if complete {
                cache.fill(v.clone(), Arc::clone(&neighbors));
            }
        }
        neighbors
    }
}

/// Per-group Dijkstra state, vertices by the explorer's numbers.
struct GroupSearch {
    /// Reached vertex → (distance, the seed its best path starts from).
    reached: HashMap<usize, (u64, usize)>,
    /// `(distance, vertex, its number, its siblings' fan-out)`.
    heap: BinaryHeap<Reverse<(u64, Term, usize, usize)>>,
}

impl GroupSearch {
    fn new(seeds: &[Term], explorer: &mut Explorer) -> Self {
        let mut g = GroupSearch {
            reached: HashMap::new(),
            heap: BinaryHeap::new(),
        };
        for s in seeds {
            let id = explorer.id(s);
            g.reached.insert(id, (0, id));
            g.heap.push(Reverse((0, s.clone(), id, 0)));
        }
        g
    }
}

/// Simple union-find over group indices.
struct UnionFind(Vec<usize>);

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind((0..n).collect())
    }

    fn find(&mut self, x: usize) -> usize {
        if self.0[x] != x {
            let root = self.find(self.0[x]);
            self.0[x] = root;
        }
        self.0[x]
    }

    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.0[ra] = rb;
        true
    }

    fn all_connected(&mut self, n: usize) -> bool {
        if n == 0 {
            return true;
        }
        let r = self.find(0);
        (1..n).all(|i| self.find(i) == r)
    }
}

impl<'a> StructureRelaxer<'a> {
    /// Build a relaxer. `preferred_predicates` are the IRIs of the query's
    /// predicates plus their Algorithm-2 alternatives.
    pub fn new(
        fed: &'a FederatedProcessor,
        config: SteinerConfig,
        preferred_predicates: HashSet<String>,
    ) -> Self {
        StructureRelaxer {
            fed,
            config,
            preferred_predicates,
            cache: None,
            tier: 0,
        }
    }

    /// Consult (and feed) a shared cross-request [`NeighborhoodCache`].
    /// Results stay byte-identical to an uncached run — see the cache docs.
    pub fn with_cache(mut self, cache: Arc<NeighborhoodCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Relax at a budget-ladder tier (0 = the full
    /// [`query_budget`](SteinerConfig::query_budget); higher tiers use the
    /// reduced [`SHED_BUDGETS`](SteinerConfig::SHED_BUDGETS)).
    pub fn at_tier(mut self, tier: usize) -> Self {
        self.tier = tier;
        self
    }

    fn weight(&self, predicate: &Term) -> u64 {
        let preferred = predicate
            .as_iri()
            .is_some_and(|iri| self.preferred_predicates.contains(iri));
        let w = if preferred {
            SteinerConfig::WEIGHT_QUERY_PREDICATE
        } else {
            SteinerConfig::WEIGHT_DEFAULT
        };
        (w * 1000.0).round() as u64
    }

    /// Run Algorithm 3 over the given seed groups (each group: a query
    /// literal plus its top alternatives, as ground terms).
    pub fn relax(&self, groups: &[Vec<Term>]) -> Option<RelaxedQuery> {
        let groups: Vec<&Vec<Term>> = groups.iter().filter(|g| !g.is_empty()).collect();
        if groups.len() < 2 {
            return None;
        }
        let mut explorer = Explorer {
            fed: self.fed,
            budget_left: self.config.budget_for(self.tier),
            queries_used: 0,
            vertices: Interner::new(),
            lists: Vec::new(),
            shared: self.cache.as_deref(),
        };
        let mut searches: Vec<GroupSearch> = groups
            .iter()
            .map(|g| GroupSearch::new(g, &mut explorer))
            .collect();
        // settled vertex → owning group.
        let mut owner: HashMap<usize, usize> = HashMap::new();
        let mut uf = UnionFind::new(groups.len());
        // Connection records: (group a, group b, meeting vertex).
        let mut connections: Vec<(usize, usize, usize)> = Vec::new();

        // Groups "take turns in expansion" — round-robin over live heaps.
        let mut active = true;
        while active && !uf.all_connected(groups.len()) {
            active = false;
            for (gi, search) in searches.iter_mut().enumerate() {
                let Some(Reverse((d, _, v, siblings))) = search.heap.pop() else {
                    continue;
                };
                active = true;
                match owner.get(&v) {
                    Some(&other) if other == gi => continue, // already settled by us
                    Some(&other) => {
                        // Meeting point: a path between two groups' seeds.
                        if uf.union(gi, other) {
                            connections.push((gi, other, v));
                        }
                        continue;
                    }
                    None => {}
                }
                owner.insert(v, gi);
                // Budget heuristic: skip expanding vertices whose sibling
                // fan-out exceeds the remaining budget — hope another group
                // reaches this region instead.
                if siblings > explorer.budget_left {
                    continue;
                }
                let Some(list) = explorer.expand(v) else {
                    continue;
                };
                let fanout = list.neighbors.len();
                let seed = search.reached[&v].1;
                for ((other, pred, _), &id) in list.neighbors.iter().zip(&list.ids) {
                    let nd = d + self.weight(pred);
                    if search.reached.get(&id).is_none_or(|&(old, _)| nd < old) {
                        search.reached.insert(id, (nd, seed));
                        search.heap.push(Reverse((nd, other.clone(), id, fanout)));
                    }
                }
            }
        }

        if connections.is_empty() {
            return None;
        }
        let complete = uf.all_connected(groups.len());

        // The terminals: the seeds the connecting paths start from.
        let mut terminals: Vec<usize> = Vec::new();
        for &(ga, gb, v) in &connections {
            for gi in [ga, gb] {
                let seed = searches[gi].reached[&v].1;
                if !terminals.contains(&seed) {
                    terminals.push(seed);
                }
            }
        }
        let vertices = explorer.vertices.terms();
        let tree: Vec<Edge> = self
            .steiner_tree(&explorer, &terminals)
            .into_iter()
            .map(|(s, p, o)| (vertices[s].clone(), p.clone(), vertices[o].clone()))
            .collect();
        if tree.is_empty() {
            return None;
        }
        let terminals: Vec<Term> = terminals.iter().map(|&t| vertices[t].clone()).collect();
        let query = tree_to_query(&tree, &terminals);
        Some(RelaxedQuery {
            query,
            tree,
            terminals,
            queries_used: explorer.queries_used,
            complete,
        })
    }

    /// Kou, Markowsky & Berman over the explorer's union graph (undirected,
    /// each edge weighing its predicate's [`weight`](Self::weight)), on its
    /// numbering: (1) the vertices of the distance network's MST paths,
    /// (2) the subgraph they and the terminals induce, (3) its MST, and (4)
    /// that tree with non-terminal leaves deleted until none is left
    /// (Algorithm 3 lines 17–19). It sends no query.
    fn steiner_tree<'g>(
        &self,
        explorer: &'g Explorer,
        terminals: &[usize],
    ) -> Vec<(usize, &'g Term, usize)> {
        let vertices = explorer.vertices.terms();
        // An edge held by both its endpoints' lists is listed twice; the
        // copies tie in every comparison, so the second never changes a
        // step's choice.
        let mut edges: Vec<NumberedEdge> = Vec::new();
        for (v, list) in explorer.lists.iter().enumerate() {
            let Some(list) = list else { continue };
            for ((_, p, outgoing), &n) in list.neighbors.iter().zip(&list.ids) {
                let (s, o) = if *outgoing { (v, n) } else { (n, v) };
                edges.push((self.weight(p), s, p, o));
            }
        }
        // (1) g: the terminals and the vertices of the MST's paths.
        let mut in_g = vec![false; vertices.len()];
        for &t in terminals {
            in_g[t] = true;
        }
        for e in distance_network_paths(vertices, &edges, terminals) {
            in_g[edges[e].1] = true;
            in_g[edges[e].3] = true;
        }
        // (2) and (3): the subgraph g induces, and its MST by Kruskal.
        let mut induced: Vec<&NumberedEdge> =
            edges.iter().filter(|e| in_g[e.1] && in_g[e.3]).collect();
        induced.sort_unstable_by_key(|&&(w, s, p, o)| (w, &vertices[s], p, &vertices[o]));
        let mut uf = UnionFind::new(vertices.len());
        let mut tree: Vec<(usize, &Term, usize)> = induced
            .into_iter()
            .filter(|e| uf.union(e.1, e.3))
            .map(|&(_, s, p, o)| (s, p, o))
            .collect();
        // (4) Prune non-terminal leaves until none is left.
        loop {
            let mut degree = vec![0usize; vertices.len()];
            for &(s, _, o) in &tree {
                degree[s] += 1;
                degree[o] += 1;
            }
            let leaf = |v: usize| degree[v] == 1 && !terminals.contains(&v);
            let before = tree.len();
            tree.retain(|&(s, _, o)| !leaf(s) && !leaf(o));
            if tree.len() == before {
                return tree;
            }
        }
    }
}

/// Step 1 of Kou, Markowsky & Berman: the shortest paths between the
/// terminals, the MST of that distance network, and the indices into
/// `edges` of the MST's paths.
fn distance_network_paths(
    vertices: &[Term],
    edges: &[NumberedEdge],
    terminals: &[usize],
) -> Vec<usize> {
    let mut adjacent: Vec<Vec<usize>> = vec![Vec::new(); vertices.len()];
    for (e, &(_, s, _, o)) in edges.iter().enumerate() {
        adjacent[s].push(e);
        adjacent[o].push(e);
    }
    let across = |e: usize, v: usize| {
        let (_, s, _, o) = edges[e];
        if s == v {
            o
        } else {
            s
        }
    };
    let terms = |e: usize| {
        let (_, s, p, o) = edges[e];
        (&vertices[s], p, &vertices[o])
    };
    // A Dijkstra from each terminal but the last, until every later
    // terminal is settled: each vertex's distance and the edge that
    // reached it.
    let searches: Vec<Vec<(u64, Option<usize>)>> = (1..terminals.len())
        .map(|later| {
            let mut reached = vec![(u64::MAX, None); vertices.len()];
            let start = terminals[later - 1];
            reached[start].0 = 0;
            let mut unsettled = terminals.len() - later;
            let mut heap = BinaryHeap::from([Reverse((0, &vertices[start], start))]);
            while let Some(Reverse((d, _, v))) = heap.pop() {
                if d > reached[v].0 {
                    continue;
                }
                if terminals[later..].contains(&v) {
                    unsettled -= 1;
                    if unsettled == 0 {
                        break;
                    }
                }
                for &e in &adjacent[v] {
                    let (other, w) = (across(e, v), edges[e].0);
                    match reached[other] {
                        (best, _) if d + w < best => {
                            reached[other] = (d + w, Some(e));
                            heap.push(Reverse((d + w, &vertices[other], other)));
                        }
                        (best, Some(by))
                            if d + w == best && across(by, other) == v && terms(e) < terms(by) =>
                        {
                            reached[other].1 = Some(e);
                        }
                        _ => {}
                    }
                }
            }
            reached
        })
        .collect();
    let mut pairs = Vec::new();
    for (i, &a) in terminals.iter().enumerate() {
        for (j, &b) in terminals.iter().enumerate().skip(i + 1) {
            let d = searches[i][b].0;
            if d < u64::MAX {
                let (a, b) = (&vertices[a], &vertices[b]);
                pairs.push((d, a.min(b), a.max(b), i, j));
            }
        }
    }
    pairs.sort_unstable();
    let mut uf = UnionFind::new(terminals.len());
    let mut paths = Vec::new();
    for (_, _, _, i, j) in pairs {
        if !uf.union(i, j) {
            continue;
        }
        let mut v = terminals[j];
        while let (_, Some(e)) = searches[i][v] {
            paths.push(e);
            v = across(e, v);
        }
    }
    paths
}

/// Convert the tree into a SPARQL query: terminals stay ground, every other
/// vertex is generalized to a fresh variable, predicates stay ground.
fn tree_to_query(tree: &[Edge], terminals: &[Term]) -> SelectQuery {
    let mut var_names: HashMap<Term, String> = HashMap::new();
    let mut next = 0usize;
    let mut pattern_of = |t: &Term| -> TermPattern {
        if terminals.contains(t) {
            return TermPattern::Term(t.clone());
        }
        let name = var_names.entry(t.clone()).or_insert_with(|| {
            let n = format!("x{next}");
            next += 1;
            n
        });
        TermPattern::Var(name.clone())
    };
    let mut gp = GraphPattern::default();
    // Deterministic order for reproducibility.
    let mut edges: Vec<&Edge> = tree.iter().collect();
    edges.sort();
    for (s, p, o) in edges {
        gp.triples.push(TriplePattern::new(
            pattern_of(s),
            TermPattern::Term(p.clone()),
            pattern_of(o),
        ));
    }
    let mut q = SelectQuery::star(gp);
    q.distinct = true;
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapphire_endpoint::{Endpoint, EndpointLimits, LocalEndpoint};
    use sapphire_sparql::evaluate_select;
    use sapphire_sparql::turtle;
    use std::sync::Arc;

    /// The Figure 6 dataset: books connect to "Jack Kerouac" and
    /// "Viking Press" through author/publisher entities, not directly.
    const KEROUAC: &str = r#"
res:Kerouac a dbo:Writer ; dbo:name "Jack Kerouac"@en .
res:VikingPress a dbo:Publisher ; rdfs:label "Viking Press"@en .
res:GrovePress a dbo:Publisher ; rdfs:label "Grove Press"@en .
res:OnTheRoad a dbo:Book ; dbo:name "On The Road"@en ; dbo:author res:Kerouac ; dbo:publisher res:VikingPress .
res:DoorWideOpen a dbo:Book ; dbo:name "Door Wide Open"@en ; dbo:author res:Kerouac ; dbo:publisher res:VikingPress .
res:DoctorSax a dbo:Book ; dbo:name "Doctor Sax"@en ; dbo:author res:Kerouac ; dbo:publisher res:GrovePress .
res:BigSur a dbo:Film ; dbo:name "Big Sur"@en ; dbo:writer res:Kerouac .
"#;

    fn setup() -> (FederatedProcessor, Arc<LocalEndpoint>) {
        let graph = turtle::parse(KEROUAC).unwrap();
        let ep = Arc::new(LocalEndpoint::new(
            "books",
            graph,
            EndpointLimits::warehouse(),
        ));
        (
            FederatedProcessor::single(ep.clone() as Arc<dyn Endpoint>),
            ep,
        )
    }

    fn preferred() -> HashSet<String> {
        [
            "http://dbpedia.org/ontology/writer",
            "http://dbpedia.org/ontology/publisher",
            "http://dbpedia.org/ontology/author",
        ]
        .into_iter()
        .map(String::from)
        .collect()
    }

    #[test]
    fn kerouac_viking_press_connects_through_entities() {
        let (fed, ep) = setup();
        let relaxer = StructureRelaxer::new(&fed, SteinerConfig::default(), preferred());
        let groups = vec![
            vec![Term::en("Jack Kerouac")],
            vec![Term::en("Viking Press")],
        ];
        let relaxed = relaxer.relax(&groups).expect("groups must connect");
        assert!(relaxed.complete);
        assert_eq!(relaxed.terminals.len(), 2);
        // The suggested query must find the two Viking Press books.
        let sols = evaluate_select(
            ep.graph(),
            &relaxed.query,
            &mut sapphire_sparql::WorkBudget::unlimited(),
        )
        .unwrap();
        assert!(!sols.is_empty(), "suggested query must have answers");
        // Some variable binds to the two books.
        let book_col = sols
            .vars
            .iter()
            .position(|v| sols.values(v).any(|t| t.lexical().ends_with("OnTheRoad")));
        assert!(
            book_col.is_some(),
            "tree should route through the book entity: {}",
            sols.to_table()
        );
        assert!(relaxed.queries_used <= 100);
    }

    #[test]
    fn single_group_returns_none() {
        let (fed, _) = setup();
        let relaxer = StructureRelaxer::new(&fed, SteinerConfig::default(), HashSet::new());
        assert!(relaxer.relax(&[vec![Term::en("Jack Kerouac")]]).is_none());
        assert!(relaxer.relax(&[]).is_none());
    }

    #[test]
    fn disconnected_literals_return_none() {
        let graph =
            turtle::parse(r#"res:A dbo:name "Alpha"@en . res:B dbo:name "Beta"@en ."#).unwrap();
        let ep: Arc<dyn Endpoint> = Arc::new(LocalEndpoint::new(
            "iso",
            graph,
            EndpointLimits::warehouse(),
        ));
        let fed = FederatedProcessor::single(ep);
        let relaxer = StructureRelaxer::new(&fed, SteinerConfig::default(), HashSet::new());
        let out = relaxer.relax(&[vec![Term::en("Alpha")], vec![Term::en("Beta")]]);
        assert!(out.is_none());
    }

    #[test]
    fn budget_is_respected() {
        let (fed, _) = setup();
        let config = SteinerConfig { query_budget: 3 };
        let relaxer = StructureRelaxer::new(&fed, config, preferred());
        let groups = vec![
            vec![Term::en("Jack Kerouac")],
            vec![Term::en("Viking Press")],
        ];
        if let Some(r) = relaxer.relax(&groups) {
            assert!(r.queries_used <= 3);
        }
    }

    #[test]
    fn preferred_predicates_guide_the_tree() {
        let (fed, _) = setup();
        let relaxer = StructureRelaxer::new(&fed, SteinerConfig::default(), preferred());
        let groups = vec![
            vec![Term::en("Jack Kerouac")],
            vec![Term::en("Viking Press")],
        ];
        let relaxed = relaxer.relax(&groups).unwrap();
        // Every tree edge should use a preferred predicate or a name/label
        // edge adjacent to a terminal.
        let uses_author_or_publisher = relaxed.tree.iter().any(|(_, p, _)| {
            matches!(p.as_iri(), Some(iri) if iri.ends_with("author") || iri.ends_with("publisher") || iri.ends_with("writer"))
        });
        assert!(uses_author_or_publisher, "tree: {:?}", relaxed.tree);
    }

    #[test]
    fn warm_cache_run_is_byte_identical_to_cold_and_skips_round_trips() {
        let (fed, _) = setup();
        let groups = vec![
            vec![Term::en("Jack Kerouac")],
            vec![Term::en("Viking Press")],
        ];
        let cold = StructureRelaxer::new(&fed, SteinerConfig::default(), preferred())
            .relax(&groups)
            .expect("cold run connects");

        let cache = Arc::new(super::super::NeighborhoodCache::new(4, 256));
        let first = StructureRelaxer::new(&fed, SteinerConfig::default(), preferred())
            .with_cache(cache.clone())
            .relax(&groups)
            .expect("cache-filling run connects");
        let warm = StructureRelaxer::new(&fed, SteinerConfig::default(), preferred())
            .with_cache(cache.clone())
            .relax(&groups)
            .expect("warm run connects");

        for relaxed in [&first, &warm] {
            assert_eq!(relaxed.tree, cold.tree);
            assert_eq!(relaxed.terminals, cold.terminals);
            assert_eq!(relaxed.complete, cold.complete);
            assert_eq!(
                relaxed.queries_used, cold.queries_used,
                "budget charged identically warm or cold"
            );
            assert_eq!(format!("{:?}", relaxed.query), format!("{:?}", cold.query));
        }
        let stats = cache.stats();
        assert!(stats.fills > 0, "first run published neighbor lists");
        assert!(stats.hits > 0, "warm run was served from the cache");
        assert_eq!(
            stats.queries_saved, warm.queries_used as u64,
            "every budget unit of the warm run was a skipped round trip"
        );
    }

    #[test]
    fn degraded_tiers_use_the_ladder_budget() {
        let (fed, _) = setup();
        let config = SteinerConfig::default();
        let groups = vec![
            vec![Term::en("Jack Kerouac")],
            vec![Term::en("Viking Press")],
        ];
        let at = |tier| {
            StructureRelaxer::new(&fed, config, preferred())
                .at_tier(tier)
                .relax(&groups)
        };
        // Tier 0 is the untouched full budget; the tree costs 14 queries.
        let full = at(0).expect("full tier connects");
        assert!(full.complete);
        assert!(full.queries_used > config.budget_for(2));
        // Tier 1's 25 queries still cover it: the same tree.
        let tier1 = at(1).expect("the first rung covers the tree");
        assert!(tier1.queries_used <= config.budget_for(1));
        assert_eq!((tier1.tree, tier1.complete), (full.tree, true));
        // Tier 2's 5 queries cannot connect anything.
        assert!(at(2).is_none());
    }

    /// The exact Steiner optimum: over every set of IRIs a tree may pass
    /// through, the MST of the subgraph induced by that set and the
    /// terminals; `None` if no set connects the terminals. Vertices
    /// `0..iris` are IRIs, the rest terminals.
    fn steiner_optimum(iris: usize, vertices: usize, edges: &[(usize, usize, u64)]) -> Option<u64> {
        let mut sorted = edges.to_vec();
        sorted.sort_by_key(|&(_, _, w)| w);
        (0..1u32 << iris)
            .filter_map(|chosen| {
                let kept = |v: usize| v >= iris || chosen & (1 << v) != 0;
                let mut uf = UnionFind::new(vertices);
                let mut weight = 0;
                for &(a, b, w) in &sorted {
                    if kept(a) && kept(b) && uf.union(a, b) {
                        weight += w;
                    }
                }
                let mut members = (0..vertices).filter(|&v| kept(v));
                let root = members.next().map(|v| uf.find(v));
                members.all(|v| Some(uf.find(v)) == root).then_some(weight)
            })
            .min()
    }

    /// With an unlimited budget, Algorithm 3's tree weighs at most
    /// 2 − 2/s times the exact optimum over s terminals, the bound of
    /// Kou, Markowsky & Berman's distance network. Seeded graphs of 3–9
    /// IRIs and 2–4 literal terminals, three predicates of which a random
    /// subset is preferred.
    #[test]
    fn the_tree_keeps_the_two_minus_two_over_s_ratio() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(19);
        let mut connected = 0;
        for case in 0..1500 {
            let iris = rng.gen_range(3..=9usize);
            let literals = rng.gen_range(2..=4usize);
            let vertex = |v: usize| {
                if v < iris {
                    Term::iri(format!("http://x/e{v}"))
                } else {
                    Term::en(format!("L{}", v - iris))
                }
            };
            let predicate = |p: usize| format!("http://x/p{p}");
            let preferred: HashSet<String> = (0..3)
                .filter(|_| rng.gen_bool(0.5))
                .map(predicate)
                .collect();
            let mut triples = Vec::new();
            for a in 0..iris {
                for b in 0..iris {
                    if a != b && rng.gen_bool(0.25) {
                        triples.push((a, rng.gen_range(0..3usize), b));
                    }
                }
            }
            for l in iris..iris + literals {
                for _ in 0..rng.gen_range(1..=2) {
                    triples.push((rng.gen_range(0..iris), rng.gen_range(0..3usize), l));
                }
            }
            let graph = sapphire_rdf::Graph::from_term_triples(
                triples
                    .iter()
                    .map(|&(s, p, o)| (vertex(s), Term::iri(predicate(p)), vertex(o))),
            );
            let ep: Arc<dyn Endpoint> = Arc::new(LocalEndpoint::new(
                "random",
                graph,
                EndpointLimits::warehouse(),
            ));
            let fed = FederatedProcessor::single(ep);
            let config = SteinerConfig {
                query_budget: usize::MAX,
            };
            let relaxer = StructureRelaxer::new(&fed, config, preferred);
            let edges: Vec<(usize, usize, u64)> = triples
                .iter()
                .map(|&(s, p, o)| (s, o, relaxer.weight(&Term::iri(predicate(p)))))
                .collect();
            let Some(optimum) = steiner_optimum(iris, iris + literals, &edges) else {
                continue;
            };
            connected += 1;
            let groups: Vec<Vec<Term>> = (iris..iris + literals).map(|l| vec![vertex(l)]).collect();
            let relaxed = relaxer.relax(&groups).expect("connected terminals relax");
            assert!(relaxed.complete, "case {case}");
            let weight: u64 = relaxed.tree.iter().map(|(_, p, _)| relaxer.weight(p)).sum();
            let s = literals as u64;
            assert!(
                weight * s <= (2 * s - 2) * optimum,
                "case {case}: tree {weight} against optimum {optimum} over {s} terminals: {:?}",
                relaxed.tree
            );
        }
        assert!(connected > 500, "{connected} connected cases");
    }

    #[test]
    fn seed_groups_with_alternatives_connect_via_any_member() {
        let (fed, _) = setup();
        let relaxer = StructureRelaxer::new(&fed, SteinerConfig::default(), preferred());
        // Group contains a bogus seed plus the real one.
        let groups = vec![
            vec![Term::en("No Such Person"), Term::en("Jack Kerouac")],
            vec![Term::en("The Viking"), Term::en("Viking Press")],
        ];
        let relaxed = relaxer
            .relax(&groups)
            .expect("must connect via real members");
        assert!(relaxed.terminals.contains(&Term::en("Jack Kerouac")));
        assert!(relaxed.terminals.contains(&Term::en("Viking Press")));
    }

    /// Hash order cannot move a relaxation: each of the ratio property's
    /// random graphs (the same seed, drawn the same way), relaxed twice by
    /// fresh relaxers whose maps hash differently, relaxes the same, tree
    /// order included.
    #[test]
    fn a_relaxation_does_not_depend_on_hash_order() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(19);
        for case in 0..1500 {
            let iris = rng.gen_range(3..=9usize);
            let literals = rng.gen_range(2..=4usize);
            let vertex = |v: usize| {
                if v < iris {
                    Term::iri(format!("http://x/e{v}"))
                } else {
                    Term::en(format!("L{}", v - iris))
                }
            };
            let predicate = |p: usize| format!("http://x/p{p}");
            let preferred: HashSet<String> = (0..3)
                .filter(|_| rng.gen_bool(0.5))
                .map(predicate)
                .collect();
            let mut triples = Vec::new();
            for a in 0..iris {
                for b in 0..iris {
                    if a != b && rng.gen_bool(0.25) {
                        triples.push((
                            vertex(a),
                            Term::iri(predicate(rng.gen_range(0..3))),
                            vertex(b),
                        ));
                    }
                }
            }
            for l in iris..iris + literals {
                for _ in 0..rng.gen_range(1..=2) {
                    let s = vertex(rng.gen_range(0..iris));
                    triples.push((s, Term::iri(predicate(rng.gen_range(0..3))), vertex(l)));
                }
            }
            let ep: Arc<dyn Endpoint> = Arc::new(LocalEndpoint::new(
                "random",
                sapphire_rdf::Graph::from_term_triples(triples),
                EndpointLimits::warehouse(),
            ));
            let fed = FederatedProcessor::single(ep);
            let config = SteinerConfig {
                query_budget: usize::MAX,
            };
            let groups: Vec<Vec<Term>> = (iris..iris + literals).map(|l| vec![vertex(l)]).collect();
            let relax = || StructureRelaxer::new(&fed, config, preferred.clone()).relax(&groups);
            match (relax(), relax()) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.tree, b.tree, "case {case}");
                    assert_eq!(a.terminals, b.terminals, "case {case}");
                    assert_eq!(a.query, b.query, "case {case}");
                    assert_eq!(a.queries_used, b.queries_used, "case {case}");
                    assert_eq!(a.complete, b.complete, "case {case}");
                }
                (a, b) => panic!("case {case}: {a:?} against {b:?}"),
            }
        }
    }

    /// An endpoint that refuses every query with one vertex as its subject —
    /// that vertex's outgoing-edge expansion — and counts the refusals.
    struct RefusesOutgoing {
        inner: LocalEndpoint,
        vertex: Term,
        refused: std::sync::atomic::AtomicUsize,
    }

    impl Endpoint for RefusesOutgoing {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn execute_parsed(
            &self,
            query: &Query,
        ) -> Result<QueryResult, sapphire_endpoint::EndpointError> {
            if query.pattern().triples[0].subject == TermPattern::Term(self.vertex.clone()) {
                self.refused
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                return Err(sapphire_endpoint::EndpointError::Timeout { work_used: 0 });
            }
            self.inner.execute_parsed(query)
        }
    }

    /// A vertex whose outgoing-edge query fails keeps its partial neighbour
    /// list in its own relaxation's graph, which still connects the groups
    /// as a cold run does, but the shared cache never holds that list: the
    /// next relaxation asks again.
    #[test]
    fn a_partial_neighbor_list_stays_in_its_own_graph_and_out_of_the_cache() {
        let kerouac = Term::iri(format!("{}Kerouac", sapphire_rdf::vocab::dbp::RESOURCE));
        let ep = Arc::new(RefusesOutgoing {
            inner: LocalEndpoint::new(
                "books",
                turtle::parse(KEROUAC).unwrap(),
                EndpointLimits::warehouse(),
            ),
            vertex: kerouac.clone(),
            refused: Default::default(),
        });
        let fed = FederatedProcessor::single(ep.clone() as Arc<dyn Endpoint>);
        let refused = || ep.refused.load(std::sync::atomic::Ordering::Relaxed);
        let groups = vec![
            vec![Term::en("Jack Kerouac")],
            vec![Term::en("Viking Press")],
        ];
        let (intact, _) = setup();
        let cold = StructureRelaxer::new(&intact, SteinerConfig::default(), preferred())
            .relax(&groups)
            .expect("the intact graph connects");
        let cache = Arc::new(super::super::NeighborhoodCache::new(4, 256));
        let relax = || {
            StructureRelaxer::new(&fed, SteinerConfig::default(), preferred())
                .with_cache(cache.clone())
                .relax(&groups)
                .expect("the partial list still connects")
        };
        let first = relax();
        assert_eq!(refused(), 1, "the vertex was expanded");
        assert!(first.complete);
        assert!(
            first.tree.iter().any(|(_, _, o)| *o == kerouac),
            "the tree reaches the vertex through its incoming edges: {:?}",
            first.tree
        );
        assert_eq!(first.tree, cold.tree);
        assert_eq!(first.queries_used, cold.queries_used);
        assert!(
            cache.get(&kerouac).is_none(),
            "a partial list is never published"
        );
        let second = relax();
        assert_eq!(refused(), 2, "the next relaxation issues the query again");
        assert_eq!(second.tree, first.tree);
    }
}
