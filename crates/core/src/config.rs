//! Configuration knobs, with defaults matching the paper's reported values.
//!
//! What the paper fixes and no deployment varies is a constant, not a
//! field: the cached literals' language and length bound (§5.1), and the
//! Steiner search's edge weights, seed-group size and degraded-tier
//! budgets (§6.2.2, plus the serving tier's shed ladder).

/// Cached literal language (`"en"`, §5.1): initialization caches only
/// literals tagged with it, and the QSM tags a keyword or an alternative
/// with it so that the rewritten query ground-matches the data.
pub const LANGUAGE: &str = "en";

/// Cached literals are shorter than this many characters (80, §5.1).
pub const LITERAL_MAX_LEN: usize = 80;

/// All tunable parameters of Sapphire. Field defaults are the constants the
/// paper states it uses; the ablation bench sweeps several of them.
#[derive(Debug, Clone)]
pub struct SapphireConfig {
    /// Number of suggestions returned by the QCM and QSM (`k = 10`, §6.1).
    pub k: usize,
    /// QCM searches residual bins of literal length `|t| ..= |t| + gamma`
    /// (`γ = 10`, §6.1).
    pub gamma: usize,
    /// QSM literal-alternative search covers lengths `|l| - alpha ..= |l| + beta`
    /// (`α = 2`, `β = 3`, §6.2.1).
    pub alpha: usize,
    /// See [`alpha`](Self::alpha).
    pub beta: usize,
    /// Jaro-Winkler similarity threshold (`θ = 0.7`, §6.2.1).
    pub theta: f64,
    /// How many significant literals go into the suffix tree (the paper uses
    /// 40K for DBpedia; scale to your dataset).
    pub suffix_tree_capacity: usize,
    /// Number of parallel worker processes `P` for residual-bin scans
    /// (the paper's machine has 8 cores).
    pub processes: usize,
    /// Optional cap on the number of initialization queries sent to an
    /// endpoint ("Sapphire allows the user to set a limit on the number of
    /// queries to issue", §5.1).
    pub init_query_limit: Option<usize>,
    /// Page size for OFFSET/LIMIT pagination during initialization.
    pub init_page_size: usize,
    /// Steiner-tree expansion parameters (§6.2.2).
    pub steiner: SteinerConfig,
    /// LRU capacity per shard of the QSM's three cross-request memo caches
    /// — the Steiner neighborhood cache ([`crate::qsm::NeighborhoodCache`])
    /// and the two Algorithm-2 alternative caches (literal and predicate
    /// sweeps inside `AlternativeFinder`), each of
    /// [`MEMO_CACHE_SHARDS`](crate::qsm::MEMO_CACHE_SHARDS) shards: expanded
    /// vertices whose neighbor lists stay resident, and query terms whose
    /// ranked alternative lists stay resident.
    pub neighborhood_cache_capacity: usize,
}

/// Parameters of the structure-relaxation (Steiner tree) search.
#[derive(Debug, Clone, Copy)]
pub struct SteinerConfig {
    /// SPARQL-query budget for graph expansion (100, §6.2.2) — the budget of
    /// tier 0, the only tier a non-shedding deployment ever runs.
    pub query_budget: usize,
}

impl SteinerConfig {
    /// The deepest degraded tier; tiers are `0..=MAX_TIER`.
    pub const MAX_TIER: usize = 2;

    /// The reduced budgets of the degraded tiers: tier `t > 0` relaxes with
    /// `SHED_BUDGETS[t - 1]` expansion queries. Together with
    /// [`query_budget`](Self::query_budget) this forms the serving tier's
    /// budget ladder (see [`budget_for`](Self::budget_for)): under load a
    /// server may *opt in* to answering at a lower rung, trading relaxation
    /// depth for tail latency. Output produced at `t > 0` is flagged
    /// `degraded` and must never share a cache entry with full-tier output.
    pub const SHED_BUDGETS: [usize; Self::MAX_TIER] = [25, 5];

    /// Edge weight `w_q` of predicates matching the query or one of its
    /// alternatives (§6.2.2).
    pub const WEIGHT_QUERY_PREDICATE: f64 = 1.0;

    /// Edge weight of every other predicate; it exceeds
    /// [`WEIGHT_QUERY_PREDICATE`](Self::WEIGHT_QUERY_PREDICATE), so the
    /// search prefers the query's own predicates.
    pub const WEIGHT_DEFAULT: f64 = 2.0;

    /// Seed group size: the literal itself plus up to two of its
    /// alternatives (Algorithm 3 line 3).
    pub const SEEDS_PER_GROUP: usize = 3;

    /// The expansion budget of `tier`: `query_budget` at tier 0, the ladder
    /// entries below it (clamped to the last rung for out-of-range tiers).
    pub fn budget_for(&self, tier: usize) -> usize {
        match tier {
            0 => self.query_budget,
            t => Self::SHED_BUDGETS[(t - 1).min(Self::MAX_TIER - 1)],
        }
    }
}

impl Default for SteinerConfig {
    fn default() -> Self {
        SteinerConfig { query_budget: 100 }
    }
}

impl Default for SapphireConfig {
    fn default() -> Self {
        SapphireConfig {
            k: 10,
            gamma: 10,
            alpha: 2,
            beta: 3,
            theta: 0.7,
            suffix_tree_capacity: 40_000,
            processes: 8,
            init_query_limit: None,
            init_page_size: 1_000,
            steiner: SteinerConfig::default(),
            neighborhood_cache_capacity: 4096,
        }
    }
}

impl SapphireConfig {
    /// A configuration sized for unit tests: tiny tree, two workers.
    pub fn for_tests() -> Self {
        SapphireConfig {
            suffix_tree_capacity: 64,
            processes: 2,
            init_page_size: 64,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = SapphireConfig::default();
        assert_eq!(c.k, 10);
        assert_eq!(c.gamma, 10);
        assert_eq!(c.alpha, 2);
        assert_eq!(c.beta, 3);
        assert!((c.theta - 0.7).abs() < f64::EPSILON);
        assert_eq!(LITERAL_MAX_LEN, 80);
        assert_eq!(LANGUAGE, "en");
        assert_eq!(c.steiner.query_budget, 100);
        const { assert!(SteinerConfig::WEIGHT_QUERY_PREDICATE < SteinerConfig::WEIGHT_DEFAULT) };
    }

    #[test]
    fn budget_ladder_descends_from_the_paper_budget() {
        let s = SteinerConfig::default();
        let ladder: Vec<usize> = (0..=SteinerConfig::MAX_TIER)
            .map(|t| s.budget_for(t))
            .collect();
        assert_eq!(ladder, [s.query_budget, 25, 5]);
        assert!(
            ladder.windows(2).all(|w| w[0] > w[1]),
            "each rung strictly cheaper: {ladder:?}"
        );
        // Out-of-range tiers clamp to the deepest rung rather than panic.
        assert_eq!(s.budget_for(99), ladder[SteinerConfig::MAX_TIER]);
        // A custom full budget flows through tier 0 untouched.
        let custom = SteinerConfig { query_budget: 7 };
        assert_eq!(custom.budget_for(0), 7);
    }
}
