//! The Predictive User Model (§3, §6): the facade tying initialization, the
//! QCM, the QSM, and the federated query processor together.

use std::sync::Arc;

use sapphire_endpoint::{Endpoint, FederatedProcessor, FederationError};
use sapphire_sparql::{parse_select, SelectQuery, Solutions};
use sapphire_text::Lexicon;

use crate::cache::CachedData;
use crate::config::SapphireConfig;
use crate::init::{InitError, InitMode, InitParts, InitStats, Initializer};
use crate::qcm::{CompletionResult, QueryCompletion};
use crate::qsm::{QsmOutput, QuerySuggestion};

/// Error from building or using the PUM.
#[derive(Debug)]
pub enum PumError {
    /// Initialization failed.
    Init(InitError),
    /// Query parsing failed.
    Parse(String),
    /// Execution failed at every endpoint.
    Execution(FederationError),
}

impl std::fmt::Display for PumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PumError::Init(e) => write!(f, "initialization failed: {e}"),
            PumError::Parse(m) => write!(f, "query parse error: {m}"),
            PumError::Execution(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for PumError {}

/// The outcome of running a user query: its answers plus the QSM's
/// suggestions (produced "simultaneously" per §3 — here sequentially but with
/// both always present).
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The query's own answers (empty table if execution failed).
    pub answers: Solutions,
    /// True if the query executed successfully.
    pub executed: bool,
    /// QSM suggestions.
    pub suggestions: QsmOutput,
}

/// The Predictive User Model.
pub struct PredictiveUserModel {
    qcm: QueryCompletion,
    qsm: QuerySuggestion,
    fed: FederatedProcessor,
    init_stats: Vec<(String, InitStats)>,
    config: SapphireConfig,
}

impl PredictiveUserModel {
    /// Register endpoints and run §5 initialization on each, pooling what
    /// they retrieve — predicates, classes, and every literal with its real
    /// significance score — and assembling one cache over the pool: the
    /// suffix tree holds the most significant literals of the *merged*
    /// ranking.
    pub fn initialize(
        endpoints: Vec<Arc<dyn Endpoint>>,
        lexicon: Lexicon,
        config: SapphireConfig,
        mode: InitMode,
    ) -> Result<Self, PumError> {
        let mut fed = FederatedProcessor::new();
        let mut pooled = InitParts::default();
        let mut init_stats = Vec::new();
        for ep in endpoints {
            let (parts, stats) = Initializer::new(ep.as_ref(), &config, mode)
                .parts()
                .map_err(PumError::Init)?;
            init_stats.push((ep.name().to_string(), stats));
            pooled.absorb(parts);
            fed.register(ep);
        }
        let cache = Arc::new(pooled.assemble(&config));
        Ok(Self::from_cache(cache, lexicon, fed, config, init_stats))
    }

    /// Build a PUM over one in-process graph — the shard-local construction
    /// path of a partitioned deployment.
    ///
    /// A cluster tier splits a dataset with
    /// [`sapphire_rdf::Partitioner`](sapphire_rdf::partition::Partitioner)
    /// and stands up one model per shard; each shard's PUM sees only its
    /// shard-local graph (data slice + replicated schema slice), wrapped in a
    /// [`LocalEndpoint`](sapphire_endpoint::LocalEndpoint) and taken through
    /// the same §5 initialization a single-box deployment runs. The caches
    /// it assembles are therefore shard-local too: literals live in exactly
    /// the shard that holds their subject's star.
    pub fn initialize_local(
        name: impl Into<String>,
        graph: sapphire_rdf::Graph,
        limits: sapphire_endpoint::EndpointLimits,
        lexicon: Lexicon,
        config: SapphireConfig,
        mode: InitMode,
    ) -> Result<Self, PumError> {
        let ep: Arc<dyn Endpoint> =
            Arc::new(sapphire_endpoint::LocalEndpoint::new(name, graph, limits));
        Self::initialize(vec![ep], lexicon, config, mode)
    }

    /// Build a PUM from an already-assembled cache (used by benches that
    /// construct caches directly).
    pub fn from_cache(
        cache: Arc<CachedData>,
        lexicon: Lexicon,
        fed: FederatedProcessor,
        config: SapphireConfig,
        init_stats: Vec<(String, InitStats)>,
    ) -> Self {
        PredictiveUserModel {
            qcm: QueryCompletion::new(cache.clone(), config.clone()),
            qsm: QuerySuggestion::new(cache, lexicon, config.clone()),
            fed,
            init_stats,
            config,
        }
    }

    /// The QCM.
    pub fn qcm(&self) -> &QueryCompletion {
        &self.qcm
    }

    /// The QSM.
    pub fn qsm(&self) -> &QuerySuggestion {
        &self.qsm
    }

    /// The federated query processor.
    pub fn federation(&self) -> &FederatedProcessor {
        &self.fed
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SapphireConfig {
        &self.config
    }

    /// Per-endpoint initialization statistics.
    pub fn init_stats(&self) -> &[(String, InitStats)] {
        &self.init_stats
    }

    /// Auto-complete the term being typed (QCM, invoked per keystroke).
    pub fn complete(&self, term: &str) -> CompletionResult {
        self.qcm.complete(term)
    }

    /// Auto-complete with an explicit result budget — see
    /// [`QueryCompletion::complete_top`].
    pub fn complete_top(&self, term: &str, k: usize) -> CompletionResult {
        self.qcm.complete_top(term, k)
    }

    /// Execute a query and produce suggestions (the "Run" button).
    pub fn run(&self, query: &SelectQuery) -> RunOutcome {
        self.run_tiered(query, 0)
    }

    /// [`run`](Self::run) with the Steiner relaxation at budget `tier`
    /// (0 = full budget; higher tiers produce `degraded`-flagged
    /// suggestions — the serving layer's opt-in load shedding).
    pub fn run_tiered(&self, query: &SelectQuery, tier: usize) -> RunOutcome {
        let (answers, executed) = match self
            .fed
            .execute_parsed(&sapphire_sparql::Query::Select(query.clone()))
        {
            Ok(sapphire_sparql::QueryResult::Solutions(s)) => (s, true),
            _ => (Solutions::default(), false),
        };
        let suggestions = self.qsm.suggest_tiered(query, &self.fed, tier);
        RunOutcome {
            answers,
            executed,
            suggestions,
        }
    }

    /// Counter snapshot of the shared Steiner expansion cache
    /// ([`crate::qsm::NeighborhoodCache`]) — how many expansion round trips
    /// the model has executed vs. amortized across requests.
    pub fn relax_cache_stats(&self) -> crate::qsm::NeighborhoodStats {
        self.qsm.neighborhood().stats()
    }

    /// Counter snapshot of the memoized Algorithm-2 alternative-sweep caches
    /// (see [`crate::qsm::AlternativeFinder::alt_cache_stats`]).
    pub fn alt_cache_stats(&self) -> crate::qsm::AltCacheStats {
        self.qsm.finder().alt_cache_stats()
    }

    /// Install the serving tier's observability handle on the model's inner
    /// modules (write-once; later installs no-op). Instrumentation only —
    /// nothing recorded here ever feeds back into what the model computes.
    pub fn install_obs(&self, obs: Arc<sapphire_obs::Obs>) {
        self.qsm.install_obs(obs);
    }

    /// Parse and run a query string.
    pub fn run_str(&self, query: &str) -> Result<RunOutcome, PumError> {
        let q = parse_select(query).map_err(|e| PumError::Parse(e.to_string()))?;
        Ok(self.run(&q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapphire_endpoint::{EndpointLimits, LocalEndpoint};
    use sapphire_sparql::turtle;

    const DATA: &str = r#"
dbo:Person a owl:Class ; rdfs:subClassOf owl:Thing .
res:JFK a dbo:Person ; dbo:surname "Kennedy"@en ; dbo:name "John F. Kennedy"@en .
res:RFK a dbo:Person ; dbo:surname "Kennedy"@en ; dbo:name "Robert F. Kennedy"@en .
"#;

    fn pum() -> PredictiveUserModel {
        let ep: Arc<dyn Endpoint> = Arc::new(LocalEndpoint::new(
            "dbpedia",
            turtle::parse(DATA).unwrap(),
            EndpointLimits::warehouse(),
        ));
        PredictiveUserModel::initialize(
            vec![ep],
            Lexicon::dbpedia_default(),
            SapphireConfig::for_tests(),
            InitMode::Federated,
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_initialize_complete_run() {
        let p = pum();
        assert_eq!(p.init_stats().len(), 1);
        // Typing "Kenn" completes to the cached literal.
        let completions = p.complete("Kenn");
        assert!(completions.suggestions.iter().any(|c| c.text == "Kennedy"));
        // Running the misspelled Figure-2 query yields a "Kennedy" rewrite.
        let out = p
            .run_str(r#"SELECT ?p WHERE { ?p dbo:surname "Kennedys"@en }"#)
            .unwrap();
        assert!(out.executed);
        assert!(out.answers.is_empty());
        assert!(out
            .suggestions
            .alternatives
            .iter()
            .any(|a| a.replacement == "Kennedy"));
        let alt = out
            .suggestions
            .alternatives
            .iter()
            .find(|a| a.replacement == "Kennedy")
            .unwrap();
        assert_eq!(alt.answer_count(), 2);
    }

    /// An endpoint of `(name, in-degree)` entities: the in-degree is the
    /// name literal's significance (Definition 1).
    fn scored_endpoint(name: &str, entities: &[(&str, usize)]) -> Arc<dyn Endpoint> {
        let mut data = String::from("dbo:Thing a owl:Class ; rdfs:subClassOf owl:Thing .\n");
        for (literal, in_degree) in entities {
            data += &format!("res:{literal} a dbo:Thing ; dbo:name \"{literal}\"@en .\n");
            for i in 0..*in_degree {
                data += &format!("res:{literal}_fan{i} dbo:link res:{literal} .\n");
            }
        }
        Arc::new(LocalEndpoint::new(
            name,
            turtle::parse(&data).unwrap(),
            EndpointLimits::warehouse(),
        ))
    }

    #[test]
    fn two_endpoints_are_ranked_over_their_pooled_scores() {
        // Regression: each endpoint's cache used to be assembled on its own
        // and taken apart again, which zeroed every literal under *that
        // endpoint's* cut — so "Aaa" (score 3, third of endpoint A's three
        // with a tree of two) ranked below endpoint B's "Bbb" (score 1) in
        // the merged cache. Pooled scores are real, the tree holds the top
        // of the merged ranking, and a shared literal keeps its best score.
        let a = scored_endpoint("a", &[("Alpha", 5), ("Bravo", 4), ("Aaa", 3), ("Both", 0)]);
        let b = scored_endpoint("b", &[("Bbb", 1), ("Both", 6)]);
        let config = SapphireConfig {
            suffix_tree_capacity: 2,
            ..SapphireConfig::for_tests()
        };
        let p = PredictiveUserModel::initialize(
            vec![a, b],
            Lexicon::dbpedia_default(),
            config,
            InitMode::Federated,
        )
        .unwrap();
        let cache = p.qcm().cache();
        assert_eq!(
            cache.significant,
            vec![("Both".to_string(), 6), ("Alpha".to_string(), 5)]
        );
        let residual: Vec<&str> = (0..cache.bins.len() as u32)
            .map(|i| cache.bins.literal(i))
            .collect();
        assert_eq!(residual, vec!["Aaa", "Bbb", "Bravo"]);
        assert_eq!(p.init_stats().len(), 2);
    }

    #[test]
    fn parse_errors_surface() {
        let p = pum();
        assert!(matches!(p.run_str("garbage"), Err(PumError::Parse(_))));
    }
}
