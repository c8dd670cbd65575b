//! Query structure relaxation (Algorithm 3, §6.2.2).
//!
//! When the query's *structure* doesn't match the data (Figure 6: the user
//! connects "Jack Kerouac" and "Viking Press" directly to `?book`, but the
//! data routes them through author/publisher entities), the QSM connects the
//! query's literals through actual paths in the remote graph. Each literal
//! plus its JW-alternatives forms a *seed group*; groups are connected with a
//! budgeted, memoized, bidirectional-Dijkstra Steiner-tree approximation
//! whose edge weights favour predicates from the query (w_q < w_default).
//! The resulting tree — induced subgraph → MST → prune degree-1
//! non-terminals — becomes a suggested SPARQL query. Approximation ratio:
//! 2 − 2/s for s seeds \[16\].
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

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

use sapphire_endpoint::FederatedProcessor;
use sapphire_rdf::Term;
use sapphire_sparql::{GraphPattern, Query, QueryResult, SelectQuery, TermPattern, TriplePattern};

use super::neighborhood::{Neighbor, NeighborhoodCache};
use crate::config::SteinerConfig;

/// A directed RDF edge discovered during expansion.
pub type Edge = (Term, Term, Term);

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
    /// Per-request memo: `Arc`'d so a repeat expansion within one relaxation
    /// is a pointer bump, never a deep clone of the neighbor list.
    memo: HashMap<Term, Arc<Vec<Neighbor>>>,
    union_edges: HashSet<Edge>,
    shared: Option<&'a NeighborhoodCache>,
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

    /// Reconstruct the union-graph edges a neighbor list contributes — the
    /// same inserts the cold path performs as it parses each solution row.
    fn record_union_edges(&mut self, v: &Term, neighbors: &[Neighbor]) {
        for (other, pred, outgoing) in neighbors {
            let edge = if *outgoing {
                (v.clone(), pred.clone(), other.clone())
            } else {
                (other.clone(), pred.clone(), v.clone())
            };
            self.union_edges.insert(edge);
        }
    }

    fn expand(&mut self, v: &Term) -> Option<Arc<Vec<Neighbor>>> {
        if let Some(n) = self.memo.get(v) {
            return Some(Arc::clone(n));
        }
        let needed = if v.is_literal() { 1 } else { 2 };
        if self.budget_left < needed {
            return None;
        }
        // What a cold expansion of `v` actually charges: the incoming-edge
        // query always runs, the outgoing-edge query only for IRIs.
        let charge = 1 + usize::from(v.is_iri());
        if let Some(cache) = self.shared {
            if let Some(neighbors) = cache.get(v) {
                // Charge the budget exactly as the cold path below would —
                // the search frontier must be byte-identical warm or cold —
                // but skip the SPARQL round trips.
                self.budget_left -= charge;
                self.queries_used += charge;
                cache.note_saved(charge as u64);
                self.record_union_edges(v, &neighbors);
                self.memo.insert(v.clone(), Arc::clone(&neighbors));
                return Some(neighbors);
            }
        }
        let mut neighbors: Vec<Neighbor> = Vec::new();
        // True only if every expansion query actually answered — a failed
        // round trip (endpoint timeout, shed federation hop) yields a
        // *partial* neighbor list that must never be published to the
        // shared cache, where it would poison every later relaxation; the
        // per-request memo keeps it, preserving the old intra-request
        // behavior.
        let mut complete = true;
        // Incoming edges: ?s ?p v — valid for both literals and IRIs.
        self.budget_left -= 1;
        self.queries_used += 1;
        match self.run_pattern(
            TermPattern::var("s"),
            TermPattern::var("p"),
            TermPattern::Term(v.clone()),
        ) {
            Some(sols) => {
                for r in 0..sols.len() {
                    if let (Some(s), Some(p)) = (sols.get(r, "s"), sols.get(r, "p")) {
                        if Self::is_schema_edge(p) {
                            continue;
                        }
                        neighbors.push((s.clone(), p.clone(), false));
                        self.union_edges.insert((s.clone(), p.clone(), v.clone()));
                    }
                }
            }
            None => complete = false,
        }
        // Outgoing edges: v ?p ?o — IRIs only (literals are never subjects).
        if v.is_iri() {
            self.budget_left -= 1;
            self.queries_used += 1;
            match self.run_pattern(
                TermPattern::Term(v.clone()),
                TermPattern::var("p"),
                TermPattern::var("o"),
            ) {
                Some(sols) => {
                    for r in 0..sols.len() {
                        if let (Some(p), Some(o)) = (sols.get(r, "p"), sols.get(r, "o")) {
                            if Self::is_schema_edge(p) {
                                continue;
                            }
                            neighbors.push((o.clone(), p.clone(), true));
                            self.union_edges.insert((v.clone(), p.clone(), o.clone()));
                        }
                    }
                }
                None => complete = false,
            }
        }
        let neighbors = Arc::new(neighbors);
        if let Some(cache) = self.shared {
            cache.note_executed(charge as u64);
            if complete {
                cache.fill(v.clone(), Arc::clone(&neighbors));
            }
        }
        self.memo.insert(v.clone(), Arc::clone(&neighbors));
        Some(neighbors)
    }

    fn run_pattern(
        &self,
        s: TermPattern,
        p: TermPattern,
        o: TermPattern,
    ) -> Option<sapphire_sparql::Solutions> {
        let query = Query::Select(SelectQuery::star(GraphPattern {
            triples: vec![TriplePattern::new(s, p, o)],
            ..GraphPattern::default()
        }));
        match self.fed.execute_parsed(&query) {
            Ok(QueryResult::Solutions(sols)) => Some(sols),
            _ => None,
        }
    }
}

/// Per-group Dijkstra state.
struct GroupSearch {
    dist: HashMap<Term, u64>,
    /// child → (parent, predicate, outgoing-from-parent?)
    parent: HashMap<Term, (Term, Term, bool)>,
    heap: BinaryHeap<Reverse<(u64, Term, usize)>>,
    seed_of: HashMap<Term, Term>,
}

impl GroupSearch {
    fn new(seeds: &[Term]) -> Self {
        let mut g = GroupSearch {
            dist: HashMap::new(),
            parent: HashMap::new(),
            heap: BinaryHeap::new(),
            seed_of: HashMap::new(),
        };
        for s in seeds {
            g.dist.insert(s.clone(), 0);
            g.seed_of.insert(s.clone(), s.clone());
            g.heap.push(Reverse((0, s.clone(), 0)));
        }
        g
    }

    /// The directed edges on the path from `v` back to its seed.
    fn path_edges(&self, v: &Term) -> Vec<Edge> {
        let mut edges = Vec::new();
        let mut cur = v.clone();
        while let Some((parent, pred, outgoing)) = self.parent.get(&cur) {
            let edge = if *outgoing {
                (parent.clone(), pred.clone(), cur.clone())
            } else {
                (cur.clone(), pred.clone(), parent.clone())
            };
            edges.push(edge);
            cur = parent.clone();
        }
        edges
    }

    /// The seed vertex this path originates from.
    fn seed_for(&self, v: &Term) -> Option<Term> {
        let mut cur = v.clone();
        loop {
            if let Some(seed) = self.seed_of.get(&cur) {
                return Some(seed.clone());
            }
            match self.parent.get(&cur) {
                Some((p, _, _)) => cur = p.clone(),
                None => return None,
            }
        }
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
    /// reduced [`shed_budgets`](SteinerConfig::shed_budgets)).
    pub fn at_tier(mut self, tier: usize) -> Self {
        self.tier = tier;
        self
    }

    fn weight(&self, predicate: &Term) -> u64 {
        let preferred = predicate
            .as_iri()
            .is_some_and(|iri| self.preferred_predicates.contains(iri));
        let w = if preferred {
            self.config.weight_query_predicate
        } else {
            self.config.weight_default
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
            memo: HashMap::new(),
            union_edges: HashSet::new(),
            shared: self.cache.as_deref(),
        };
        let mut searches: Vec<GroupSearch> = groups.iter().map(|g| GroupSearch::new(g)).collect();
        // settled vertex → owning group.
        let mut owner: HashMap<Term, usize> = HashMap::new();
        let mut uf = UnionFind::new(groups.len());
        // Connection records: (group a, group b, meeting vertex).
        let mut connections: Vec<(usize, usize, Term)> = Vec::new();

        // Groups "take turns in expansion" — round-robin over live heaps.
        let mut active = true;
        while active && !uf.all_connected(groups.len()) {
            active = false;
            for (gi, search) in searches.iter_mut().enumerate() {
                let Some(Reverse((d, v, siblings))) = search.heap.pop() else {
                    continue;
                };
                active = true;
                match owner.get(&v) {
                    Some(&other) if other == gi => continue, // already settled by us
                    Some(&other) => {
                        // Meeting point: a path between two groups' seeds.
                        if uf.union(gi, other) {
                            connections.push((gi, other, v.clone()));
                        }
                        continue;
                    }
                    None => {}
                }
                owner.insert(v.clone(), gi);
                // Budget heuristic: skip expanding vertices whose sibling
                // fan-out exceeds the remaining budget — hope another group
                // reaches this region instead.
                if siblings > explorer.budget_left {
                    continue;
                }
                let Some(neighbors) = explorer.expand(&v) else {
                    continue;
                };
                let fanout = neighbors.len();
                for (other, pred, outgoing) in neighbors.iter() {
                    let nd = d + self.weight(pred);
                    let better = search.dist.get(other).is_none_or(|&old| nd < old);
                    if better {
                        search.dist.insert(other.clone(), nd);
                        search
                            .parent
                            .insert(other.clone(), (v.clone(), pred.clone(), *outgoing));
                        search.heap.push(Reverse((nd, other.clone(), fanout)));
                    }
                }
            }
        }

        if connections.is_empty() {
            return None;
        }
        let complete = uf.all_connected(groups.len());

        // Step 1 result: g = union of the connecting paths.
        let mut g_edges: HashSet<Edge> = HashSet::new();
        let mut terminals: Vec<Term> = Vec::new();
        for (ga, gb, v) in &connections {
            for &gi in &[*ga, *gb] {
                for e in searches[gi].path_edges(v) {
                    g_edges.insert(e);
                }
                if let Some(seed) = searches[gi].seed_for(v) {
                    if !terminals.contains(&seed) {
                        terminals.push(seed);
                    }
                }
            }
        }
        let mut g_vertices: HashSet<Term> = HashSet::new();
        for (s, _, o) in &g_edges {
            g_vertices.insert(s.clone());
            g_vertices.insert(o.clone());
        }
        for t in &terminals {
            g_vertices.insert(t.clone());
        }

        // Step 2: induced subgraph g′ of g in the full explored union graph.
        let induced: Vec<Edge> = explorer
            .union_edges
            .iter()
            .filter(|(s, _, o)| g_vertices.contains(s) && g_vertices.contains(o))
            .cloned()
            .collect();

        // Minimum spanning tree of g′ (Kruskal).
        let tree = self.mst(&g_vertices, &induced);

        // Prune non-terminal degree-1 vertices repeatedly.
        let tree = prune(tree, &terminals);
        if tree.is_empty() {
            return None;
        }

        let query = tree_to_query(&tree, &terminals);
        Some(RelaxedQuery {
            query,
            tree,
            terminals,
            queries_used: explorer.queries_used,
            complete,
        })
    }

    fn mst(&self, vertices: &HashSet<Term>, edges: &[Edge]) -> Vec<Edge> {
        let verts: Vec<&Term> = vertices.iter().collect();
        let index: HashMap<&Term, usize> = verts.iter().enumerate().map(|(i, v)| (*v, i)).collect();
        let mut sorted: Vec<&Edge> = edges.iter().collect();
        sorted.sort_by_key(|(s, p, o)| (self.weight(p), s.clone(), p.clone(), o.clone()));
        let mut uf = UnionFind::new(verts.len());
        let mut out = Vec::new();
        for e in sorted {
            let (s, _, o) = e;
            let (a, b) = (index[s], index[o]);
            if uf.union(a, b) {
                out.push(e.clone());
            }
        }
        out
    }
}

/// Repeatedly delete degree-1 vertices that are not terminals (Algorithm 3
/// lines 17–19).
fn prune(mut tree: Vec<Edge>, terminals: &[Term]) -> Vec<Edge> {
    loop {
        let mut degree: HashMap<&Term, usize> = HashMap::new();
        for (s, _, o) in &tree {
            *degree.entry(s).or_default() += 1;
            *degree.entry(o).or_default() += 1;
        }
        let removable: HashSet<Term> = degree
            .iter()
            .filter(|(v, &d)| d == 1 && !terminals.contains(v))
            .map(|(v, _)| (*v).clone())
            .collect();
        if removable.is_empty() {
            return tree;
        }
        tree.retain(|(s, _, o)| !removable.contains(s) && !removable.contains(o));
        if tree.is_empty() {
            return tree;
        }
    }
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
    use sapphire_rdf::turtle;
    use sapphire_sparql::evaluate_select;
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
        let config = SteinerConfig {
            query_budget: 3,
            ..SteinerConfig::default()
        };
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
        let config = SteinerConfig {
            shed_budgets: [3, 1],
            ..SteinerConfig::default()
        };
        let groups = vec![
            vec![Term::en("Jack Kerouac")],
            vec![Term::en("Viking Press")],
        ];
        // Tier 1 gets exactly the first rung's budget.
        if let Some(r) = StructureRelaxer::new(&fed, config, preferred())
            .at_tier(1)
            .relax(&groups)
        {
            assert!(r.queries_used <= 3);
        }
        // Tier 2's single query cannot connect anything.
        assert!(StructureRelaxer::new(&fed, config, preferred())
            .at_tier(2)
            .relax(&groups)
            .is_none());
        // Tier 0 is the untouched full budget.
        let full = StructureRelaxer::new(&fed, config, preferred())
            .at_tier(0)
            .relax(&groups)
            .expect("full tier connects");
        assert!(full.complete);
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
}
