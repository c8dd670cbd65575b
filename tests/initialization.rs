//! Initialization behaviour across endpoint resource regimes (§5):
//! warehouse vs federated, timeout-driven hierarchy descent, query budgets.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sapphire_core::init::{InitMode, Initializer};
use sapphire_core::SapphireConfig;
use sapphire_datagen::userstudy::{flatten, misspell};
use sapphire_datagen::{appendix_b, generate, DatasetConfig};
use sapphire_endpoint::{EndpointLimits, LocalEndpoint};

fn endpoint(timeout_work: Option<u64>) -> LocalEndpoint {
    let graph = generate(DatasetConfig::tiny(42));
    let limits = EndpointLimits {
        timeout_work,
        reject_above: None,
        max_results: None,
    };
    LocalEndpoint::new("dbpedia", graph, limits)
}

fn config() -> SapphireConfig {
    SapphireConfig {
        processes: 2,
        init_page_size: 200,
        ..SapphireConfig::default()
    }
}

#[test]
fn federated_cache_is_a_near_complete_subset_of_warehouse() {
    let ep = endpoint(None);
    let cfg = config();
    let (fed_cache, _) = Initializer::new(&ep, &cfg, InitMode::Federated)
        .run()
        .unwrap();
    let (wh_cache, _) = Initializer::new(&ep, &cfg, InitMode::Warehouse)
        .run()
        .unwrap();
    let collect = |c: &sapphire_core::CachedData| {
        let mut v: Vec<String> = c
            .significant
            .iter()
            .map(|(t, _)| t.clone())
            .chain((0..c.bins.len() as u32).map(|i| c.bins.literal(i).to_string()))
            .collect();
        v.sort();
        v
    };
    let fed = collect(&fed_cache);
    let wh = collect(&wh_cache);
    // Class-partitioned retrieval (Q6) can only see literals of *typed*
    // entities; the warehouse scan (Q9) sees everything. So federated ⊆
    // warehouse, with near-complete coverage on a DBpedia-like dataset.
    for l in &fed {
        assert!(
            wh.contains(l),
            "federated cached {l:?} that warehouse missed"
        );
    }
    assert!(
        fed.len() * 100 >= wh.len() * 95,
        "federated coverage too low: {} of {}",
        fed.len(),
        wh.len()
    );
}

#[test]
fn init_filters_language_and_length() {
    let ep = endpoint(None);
    let cfg = config();
    let (cache, _) = Initializer::new(&ep, &cfg, InitMode::Federated)
        .run()
        .unwrap();
    let all: Vec<String> = cache
        .significant
        .iter()
        .map(|(t, _)| t.clone())
        .chain((0..cache.bins.len() as u32).map(|i| cache.bins.literal(i).to_string()))
        .collect();
    assert!(!all.is_empty());
    assert!(all.iter().all(|l| l.chars().count() < 80), "length filter");
    assert!(
        all.iter().all(|l| !l.starts_with("Étranger")),
        "language filter"
    );
}

#[test]
fn tighter_timeouts_mean_more_queries_not_fewer_literals() {
    let cfg = config();
    // The timeout regime needs enough data that some class-level queries
    // exceed the budget: use the `small` dataset for this test.
    let big_endpoint = |timeout_work: Option<u64>| {
        let graph = generate(DatasetConfig::small(42));
        let limits = EndpointLimits {
            timeout_work,
            reject_above: None,
            max_results: None,
        };
        LocalEndpoint::new("dbpedia", graph, limits)
    };
    let loose = big_endpoint(None);
    let (loose_cache, loose_stats) = Initializer::new(&loose, &cfg, InitMode::Federated)
        .run()
        .unwrap();

    // Tight enough that root-level class queries time out, loose enough
    // that the short metadata queries (Q1–Q4) survive (§5.1 assumes they do;
    // the simulated endpoint answers them from statistics, as real ones do).
    let tight = big_endpoint(Some(4_000));
    let (tight_cache, tight_stats) = Initializer::new(&tight, &cfg, InitMode::Federated)
        .run()
        .unwrap();

    assert!(
        tight_stats.timeouts > 0,
        "the tight endpoint must time out somewhere"
    );
    assert!(
        tight_stats.total_queries() > loose_stats.total_queries(),
        "descent into subclasses costs extra queries ({} vs {})",
        tight_stats.total_queries(),
        loose_stats.total_queries()
    );
    // Literal coverage should not collapse: descent recovers what timeouts lost.
    assert!(
        tight_cache.literal_count() * 10 >= loose_cache.literal_count() * 7,
        "descent keeps ≥70% coverage ({} vs {})",
        tight_cache.literal_count(),
        loose_cache.literal_count()
    );
}

#[test]
fn significant_literals_have_high_indegree_entities() {
    let ep = endpoint(None);
    let cfg = SapphireConfig {
        suffix_tree_capacity: 10,
        ..config()
    };
    let (cache, _) = Initializer::new(&ep, &cfg, InitMode::Federated)
        .run()
        .unwrap();
    // The top significant literals should include heavily referenced anchor
    // entities (cities with many incoming birthPlace/country edges).
    assert_eq!(cache.significant.len(), 10);
    let min_sig = cache.significant.last().unwrap().1;
    assert!(
        cache.significant.first().unwrap().1 >= min_sig,
        "significance ordering"
    );
    assert!(
        cache.significant.first().unwrap().1 > 0,
        "top literal is actually referenced"
    );
}

#[test]
fn classes_are_available_for_type_keywords() {
    let ep = endpoint(None);
    let (cache, _) = Initializer::new(&ep, &config(), InitMode::Federated)
        .run()
        .unwrap();
    assert!(!cache.classes.is_empty());
    let chess = cache.similar_classes("chess player", 0.8);
    assert!(!chess.is_empty());
    assert!(cache.classes[chess[0].0].iri.ends_with("ChessPlayer"));
}

/// A keyword that is a predicate's or a class's surface form up to case is
/// resolved from an index instead of a Jaro-Winkler sweep. The index may
/// never change an answer: for everything a user of the Appendix-B workload
/// can type — exact surfaces in any case, the keywords of the scripts and of
/// their flattened forms, and misspellings of all of them — resolution
/// equals the head of the sweep.
#[test]
fn keyword_resolution_equals_the_head_of_the_similarity_sweep() {
    let graph = generate(DatasetConfig::small(42));
    let ep = LocalEndpoint::new("dbpedia", graph, EndpointLimits::warehouse());
    let (cache, _) = Initializer::new(&ep, &config(), InitMode::Federated)
        .run()
        .unwrap();
    assert!(!cache.predicates.is_empty() && !cache.classes.is_empty());

    let mut keywords = Vec::new();
    let surfaces = cache.predicates.iter().map(|p| &p.surface);
    for surface in surfaces.chain(cache.classes.iter().map(|c| &c.surface)) {
        keywords.extend([
            surface.clone(),
            surface.to_uppercase(),
            surface.to_lowercase(),
        ]);
    }
    let mut rng = StdRng::seed_from_u64(42);
    for question in appendix_b() {
        let flat = flatten(&question.script);
        let rows = question.script.rows.iter();
        for row in rows.chain(flat.iter().flat_map(|script| &script.rows)) {
            for keyword in [&row.predicate, &row.object] {
                keywords.push(keyword.clone());
                // Each call draws one of the three misspelling shapes.
                keywords.extend((0..6).map(|_| misspell(keyword, &mut rng)));
            }
        }
    }

    let mut exact = 0;
    for keyword in &keywords {
        let swept = cache.similar_predicates(keyword, 0.85);
        assert_eq!(
            cache.best_predicate(keyword, 0.85),
            swept.first().map(|&(idx, _)| idx),
            "predicate keyword {keyword:?}"
        );
        exact += usize::from(swept.first().is_some_and(|&(_, score)| score == 1.0));
        let swept = cache.similar_classes(keyword, 0.8);
        assert_eq!(
            cache.best_class(keyword, 0.8),
            swept.first().map(|&(idx, _)| idx),
            "class keyword {keyword:?}"
        );
    }
    assert!(
        exact >= 3 * cache.predicates.len(),
        "the index was exercised"
    );
}

#[test]
fn query_budget_prioritizes_frequent_predicates() {
    let ep = endpoint(None);
    let cfg = SapphireConfig {
        init_query_limit: Some(30),
        ..config()
    };
    let (cache, stats) = Initializer::new(&ep, &cfg, InitMode::Federated)
        .run()
        .unwrap();
    assert!(stats.stopped_by_limit);
    // With the budget exhausted early, the cache is partial but usable, and
    // the most frequent literal predicate (name) was served first.
    if cache.literal_count() > 0 {
        let all: Vec<String> = cache.significant.iter().map(|(t, _)| t.clone()).collect();
        assert!(!all.is_empty());
    }
}
