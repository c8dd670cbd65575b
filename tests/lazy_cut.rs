//! The model walks its literal candidates as references into the memo and
//! builds a `TermAlternative` only for what the cut keeps; a shard's reply
//! to a cluster edge builds the whole ranked list
//! (`QuerySuggestion::candidates`). Both must be one walk: for every
//! Appendix-B question as written, flattened and misspelled — each also
//! with a literal slot twinned — at `tiny` and `small`, the alternatives a
//! Run shows equal the cut over the materialized list, and the endpoint is
//! asked the same probes, `VALUES` order included.

use std::convert::Infallible;
use std::sync::{Arc, Mutex};

use rand::{rngs::StdRng, SeedableRng};

use sapphire_core::qsm::{top_with_answers, AlteredPosition};
use sapphire_core::session::Session;
use sapphire_core::{InitMode, PredictiveUserModel, SapphireConfig};
use sapphire_datagen::userstudy::{flatten, misspell};
use sapphire_datagen::workload::SessionScript;
use sapphire_datagen::{appendix_b, generate, DatasetConfig};
use sapphire_endpoint::{
    Endpoint, EndpointError, EndpointLimits, FederatedProcessor, LocalEndpoint,
};
use sapphire_rdf::Term;
use sapphire_sparql::{Query, QueryResult, SelectQuery, TermPattern, TriplePattern};
use sapphire_text::Lexicon;

/// An endpoint that logs every probe it is asked — a SELECT with `VALUES`
/// — and answers everything through `inner`.
struct ProbeLog {
    inner: Arc<LocalEndpoint>,
    probes: Mutex<Vec<SelectQuery>>,
}

impl ProbeLog {
    fn take(&self) -> Vec<SelectQuery> {
        std::mem::take(&mut self.probes.lock().unwrap())
    }
}

impl Endpoint for ProbeLog {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute_parsed(&self, query: &Query) -> Result<QueryResult, EndpointError> {
        if let Query::Select(select) = query {
            if select.pattern.values.is_some() {
                self.probes.lock().unwrap().push(select.clone());
            }
        }
        self.inner.execute_parsed(query)
    }
}

/// Every Appendix-B script as a user would run it: as written, with its
/// entity hops flattened, and with its first literal keyword misspelled.
fn pool(pum: &PredictiveUserModel) -> Vec<(String, SelectQuery)> {
    let mut rng = StdRng::seed_from_u64(21);
    let mut pool = Vec::new();
    for question in appendix_b() {
        let script = &question.script;
        let mut variants: Vec<(&str, SessionScript)> = vec![("as written", script.clone())];
        if let Some(flat) = flatten(script) {
            variants.push(("flattened", flat));
        }
        let literal_row = script.rows.iter().position(|row| {
            !row.object.starts_with('?') && !matches!(row.predicate.trim(), "a" | "type" | "is a")
        });
        if let Some(row) = literal_row {
            let mut typo = script.clone();
            typo.rows[row].object = misspell(&typo.rows[row].object, &mut rng);
            variants.push(("misspelled", typo));
        }
        for (variant, script) in variants {
            let modifiers = script.modifiers();
            let query = Session::resume(pum, script.rows.clone(), modifiers, 0)
                .build_query()
                .expect("workload scripts build");
            if let Some(twinned) = twinned(&query) {
                pool.push((format!("{} {variant}, literal twice", question.id), twinned));
            }
            pool.push((format!("{} {variant}", question.id), query));
        }
    }
    pool
}

/// `query` with its first literal triple repeated on a fresh subject: two
/// literal slots whose candidates tie score for score, so the rank order
/// between slots decides which is probed first and which rewrite is kept
/// first.
fn twinned(query: &SelectQuery) -> Option<SelectQuery> {
    let triple = (query.pattern.triples.iter())
        .find(|t| matches!(t.object, TermPattern::Term(Term::Literal(_))))?;
    let mut twinned = query.clone();
    twinned.pattern.triples.push(TriplePattern {
        subject: TermPattern::var("twin"),
        ..triple.clone()
    });
    Some(twinned)
}

#[test]
fn the_lazy_cut_is_the_cut_over_the_materialized_list() {
    for (scale, data) in [
        ("tiny", DatasetConfig::tiny(42)),
        ("small", DatasetConfig::small(42)),
    ] {
        let endpoint = Arc::new(LocalEndpoint::new(
            scale,
            generate(data),
            EndpointLimits::warehouse(),
        ));
        let pum = PredictiveUserModel::initialize(
            vec![endpoint.clone()],
            Lexicon::dbpedia_default(),
            SapphireConfig {
                processes: 2,
                ..SapphireConfig::default()
            },
            InitMode::Federated,
        )
        .unwrap();
        let log = Arc::new(ProbeLog {
            inner: endpoint,
            probes: Mutex::default(),
        });
        let fed = FederatedProcessor::single(log.clone());
        let half = (pum.config().k / 2).max(1);
        let (mut literal_candidates, mut kept, mut probes) = (0, 0, 0);
        for (label, query) in pool(&pum) {
            let ctx = format!("{scale}, {label}");
            let lazy = pum.qsm().suggest(&query, &fed).alternatives;
            let lazy_probes = log.take();

            let candidates = pum.qsm().candidates(&query);
            let literals_from =
                candidates.partition_point(|c| c.position == AlteredPosition::Predicate);
            let mut materialized = Vec::new();
            for kind in [&candidates[..literals_from], &candidates[literals_from..]] {
                let Ok(shown) = top_with_answers(&query, kind, half, |asked| {
                    let answered = fed.execute_parsed(&Query::Select(asked.clone()));
                    Ok::<_, Infallible>(answered.ok().and_then(QueryResult::into_solutions))
                });
                materialized.extend(shown);
            }
            let materialized_probes = log.take();

            assert_eq!(format!("{lazy:?}"), format!("{materialized:?}"), "{ctx}");
            assert_eq!(lazy_probes, materialized_probes, "{ctx}");
            literal_candidates += candidates.len() - literals_from;
            kept += lazy.len();
            probes += lazy_probes.len();
        }
        assert!(
            literal_candidates > 100 && kept > 30 && probes > 100,
            "{scale}: {literal_candidates} literal candidates, {kept} kept, {probes} probes"
        );
    }
}
