//! The request pool: everything the program under test is sent, as a pure
//! function of `(workload, scale, seed)`.
//!
//! The unit is a *compose cycle* — the paper's interaction: for each row of
//! an Appendix-B session script the user types the keyword one keystroke at
//! a time (one QCM `Complete` per keystroke, the first six), fills the row,
//! sets the modifiers and presses Run (one QSM request).
//!
//! A run draws from a fixed **vocabulary**: per script and per literal slot
//! a small seeded sample of same-predicate literals of the dataset (the
//! script's own constant first). The set-up's warm-up pass sends every
//! vocabulary entry once, so the model's memo caches (term alternatives,
//! Steiner neighbourhoods) are in steady state before the first measured
//! pass. What stays fresh in every pass is what stays fresh for real users:
//! one cycle in five carries a one-character misspelling drawn anew.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sapphire_core::session::{Modifiers, TripleInput};
use sapphire_datagen::userstudy::{flatten, misspell};
use sapphire_datagen::workload::{appendix_b, Question, SessionScript};
use sapphire_rdf::{Graph, Term};
use sapphire_sparql::SelectQuery;

/// Appendix-B questions left out, by id. M4 (`?p nickname "Frank The
/// Tank"`) relaxes for minutes and allocates gigabytes beyond `small`
/// (ROADMAP item 2's open bug): one such request would be the whole run.
pub const EXCLUDED: &[&str] = &["M4"];

/// Keystrokes of a keyword that are sent as QCM requests.
pub const KEYSTROKES: usize = 6;

/// Cycles in the hot head the warm workloads draw from.
pub const WARM_HEAD: usize = 512;

/// The Appendix-B session scripts the benchmark uses.
pub fn scripts() -> Vec<Question> {
    appendix_b()
        .into_iter()
        .filter(|q| !EXCLUDED.contains(&q.id.as_str()))
        .collect()
}

/// One request of a client's stream.
#[derive(Debug, Clone)]
pub enum Request {
    /// QCM keystroke (timed).
    Complete(String),
    /// Fill (or blank) one row.
    SetRow(usize, TripleInput),
    /// Set the query modifiers.
    SetModifiers(Modifiers),
    /// Press Run (timed). Carries the index of its cycle in the pass, so
    /// the driver can find the pre-built query and the oracle the rows.
    Run(usize),
}

impl Request {
    pub fn is_timed(&self) -> bool {
        matches!(self, Request::Complete(_) | Request::Run(_))
    }
}

/// One compose cycle.
#[derive(Debug, Clone)]
pub struct Cycle {
    /// Index into [`scripts`].
    pub script: usize,
    /// The rows the user fills.
    pub rows: Vec<TripleInput>,
    /// The modifiers the user sets.
    pub modifiers: Modifiers,
    /// The query the rows build — filled in only where the tier under test
    /// is sessionless (the cluster edge) and the harness must build it.
    pub query: Option<SelectQuery>,
}

impl Cycle {
    /// The keystroke prefixes typed for one row's keyword.
    pub fn keystrokes(row: &TripleInput) -> impl Iterator<Item = String> + '_ {
        let keyword = row.object.trim_start_matches('?');
        (1..=keyword.chars().count().min(KEYSTROKES))
            .map(move |end| keyword.chars().take(end).collect())
    }

    /// Timed requests in this cycle.
    #[cfg(test)]
    pub fn timed_requests(&self) -> usize {
        self.rows
            .iter()
            .map(|r| Self::keystrokes(r).count())
            .sum::<usize>()
            + 1
    }
}

/// Per predicate IRI, the sorted distinct English literals short enough to
/// be cached — what "same-predicate literals of the dataset" means.
pub fn literal_pools(graph: &Graph) -> BTreeMap<String, Vec<String>> {
    let mut pools: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (_s, p, o) in graph.iter_terms() {
        let (Term::Iri(p), Term::Literal(lit)) = (p, o) else {
            continue;
        };
        if lit.lang.as_deref() == Some("en") && lit.value.chars().count() < 80 {
            pools.entry(p.clone()).or_default().push(lit.value.clone());
        }
    }
    for pool in pools.values_mut() {
        pool.sort();
        pool.dedup();
    }
    pools
}

/// True if a row names a class (`?p type chess player`).
fn is_class_slot(row: &TripleInput) -> bool {
    !row.object.starts_with('?') && matches!(row.predicate.trim(), "a" | "type" | "is a")
}

/// True if a row's object box holds a literal keyword (not a variable, not
/// the class keyword of a `type` row) — what a user can misspell into
/// another literal.
fn is_literal_slot(row: &TripleInput) -> bool {
    !row.object.starts_with('?') && !is_class_slot(row)
}

/// The constants a run may put into each literal slot of each script.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    /// `[script][row]` → the constants for that row (empty for rows that
    /// are not literal slots).
    pub entries: Vec<Vec<Vec<String>>>,
}

impl Vocabulary {
    /// Draw `per_slot` constants for every literal slot and every class
    /// slot. `resolve` maps a predicate keyword to the predicate IRI the
    /// model resolves it to; `classes` are the class keywords it knows (the
    /// "same-predicate" pool of a `type` row).
    pub fn draw(
        seed: u64,
        scripts: &[Question],
        pools: &BTreeMap<String, Vec<String>>,
        classes: &[String],
        resolve: &dyn Fn(&str) -> Option<String>,
        per_slot: usize,
    ) -> Vocabulary {
        let mut rng = StdRng::seed_from_u64(mix(seed, 0x0C0FFEE));
        let entries = scripts
            .iter()
            .map(|q| {
                q.script
                    .rows
                    .iter()
                    .map(|row| {
                        if row.object.starts_with('?') {
                            return Vec::new();
                        }
                        let mut slot = vec![row.object.clone()];
                        let pool = if is_class_slot(row) {
                            classes
                        } else {
                            resolve(&row.predicate)
                                .and_then(|iri| pools.get(&iri))
                                .map(Vec::as_slice)
                                .unwrap_or(&[])
                        };
                        let mut candidates: Vec<&String> =
                            pool.iter().filter(|l| **l != row.object).collect();
                        while slot.len() < per_slot && !candidates.is_empty() {
                            let pick = rng.gen_range(0..candidates.len());
                            slot.push(candidates.swap_remove(pick).clone());
                        }
                        slot
                    })
                    .collect()
            })
            .collect();
        Vocabulary { entries }
    }

    /// Distinct constants over all slots.
    pub fn len(&self) -> usize {
        self.entries.iter().flatten().map(Vec::len).sum()
    }
}

/// SplitMix64 finalizer over `seed ^ stream`: independent streams from one
/// seed without the streams of nearby seeds overlapping.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn modifiers_of(script: &SessionScript) -> Modifiers {
    Modifiers {
        distinct: false,
        order_by: script.order_by.clone(),
        limit: script.limit,
        count: script.count,
        filters: script.filters.clone(),
    }
}

/// Generates compose cycles from a vocabulary.
pub struct CycleSource<'a> {
    pub scripts: &'a [Question],
    pub vocabulary: &'a Vocabulary,
    pub seed: u64,
    /// Every typo handed out so far. `misspell` has some twenty variants
    /// per word and favours one of them; without this a run's later passes
    /// would find more and more of their typos already in the model's memo
    /// cache and get faster as they go.
    used_typos: RefCell<HashSet<String>>,
}

/// Which cycles carry a misspelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Misspell {
    Never,
    /// The cycles of every fifth vocabulary entry (Figure 2's typo rate in
    /// the user study).
    EveryFifthEntry,
    Always,
}

impl<'a> CycleSource<'a> {
    pub fn new(scripts: &'a [Question], vocabulary: &'a Vocabulary, seed: u64) -> Self {
        CycleSource {
            scripts,
            vocabulary,
            seed,
            used_typos: RefCell::new(HashSet::new()),
        }
    }

    /// A misspelling of `word` this source has not produced before: a
    /// second typo on top of the first if the single ones are used up.
    fn fresh_typo(&self, word: &str, rng: &mut StdRng) -> String {
        let mut used = self.used_typos.borrow_mut();
        let mut typo = misspell(word, rng);
        for attempt in 0..64 {
            if used.insert(typo.clone()) {
                break;
            }
            typo = misspell(if attempt < 32 { word } else { &typo }, rng);
        }
        typo
    }

    /// The cycle of `script` with vocabulary entry `entry` in every slot.
    ///
    /// What a cycle *is* depends on `(script, entry)` only, so that two
    /// passes do the same work: every fourth entry is entered the RDF-naive
    /// way (`flatten`, Figure 6 — structure relaxation fires as in the user
    /// study) and every fifth is misspelled. What the misspelling *says* is
    /// drawn from `rng`, fresh in every pass: the one-character typo is the
    /// part of the traffic no cache has seen before.
    fn cycle(
        &self,
        script: usize,
        entry: usize,
        misspell_which: Misspell,
        rng: &mut StdRng,
    ) -> Cycle {
        let mut base = self.scripts[script].script.clone();
        for (row, slot) in base.rows.iter_mut().zip(&self.vocabulary.entries[script]) {
            if !slot.is_empty() {
                row.object = slot[entry % slot.len()].clone();
            }
        }
        // Offsetting by the script spreads both patterns over the scripts
        // even when the vocabulary is one entry deep.
        let slot = script + entry;
        let mut used = match (slot.is_multiple_of(4), flatten(&base)) {
            (true, Some(flat)) => flat,
            _ => base,
        };
        let misspelled = match misspell_which {
            Misspell::Never => false,
            Misspell::EveryFifthEntry => slot.is_multiple_of(5),
            Misspell::Always => true,
        };
        if misspelled {
            let slots: Vec<usize> = (0..used.rows.len())
                .filter(|&i| is_literal_slot(&used.rows[i]))
                .collect();
            if !slots.is_empty() {
                let row = &mut used.rows[slots[rng.gen_range(0..slots.len())]];
                row.object = self.fresh_typo(&row.object, rng);
            }
        }
        Cycle {
            script,
            modifiers: modifiers_of(&used),
            rows: used.rows,
            query: None,
        }
    }

    /// The most constants any slot of `script` has (at least 1).
    fn depth(&self, script: usize) -> usize {
        self.vocabulary.entries[script]
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0)
            .max(1)
    }

    /// The cycles of measured pass `pass`: every script equally often, its
    /// k-th cycle taking the k-th vocabulary entry, in an order shuffled
    /// per pass. With `cycles` = scripts × vocabulary depth a pass sends
    /// every entry of every script exactly once.
    pub fn pass(&self, pass: u64, cycles: usize) -> Vec<Cycle> {
        self.draw(pass, cycles, Misspell::EveryFifthEntry)
    }

    /// Like [`pass`](Self::pass) with *every* cycle misspelled: requests no
    /// cache of any size has seen, for a cold share that must stay cold
    /// next to default-sized caches.
    pub fn pass_all_misspelled(&self, pass: u64, cycles: usize) -> Vec<Cycle> {
        self.draw(pass ^ (1 << 40), cycles, Misspell::Always)
    }

    fn draw(&self, pass: u64, cycles: usize, misspell_which: Misspell) -> Vec<Cycle> {
        let mut rng = StdRng::seed_from_u64(mix(self.seed, 0x1000 + pass));
        let mut order: Vec<usize> = (0..cycles).collect();
        for i in (1..cycles).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        order
            .into_iter()
            .map(|i| {
                let (script, occurrence) = (i % self.scripts.len(), i / self.scripts.len());
                self.cycle(
                    script,
                    occurrence % self.depth(script),
                    misspell_which,
                    &mut rng,
                )
            })
            .collect()
    }

    /// The warm-up cycles: every vocabulary entry of every script once,
    /// correctly spelled, so no measured pass is the first to send a
    /// constant.
    pub fn warm_up(&self) -> Vec<Cycle> {
        let mut rng = StdRng::seed_from_u64(mix(self.seed, 0x0FFF));
        (0..self.scripts.len())
            .flat_map(|script| (0..self.depth(script)).map(move |entry| (script, entry)))
            .map(|(script, entry)| self.cycle(script, entry, Misspell::Never, &mut rng))
            .collect()
    }

    /// The hot head the warm workloads draw from.
    pub fn warm_head(&self) -> Vec<Cycle> {
        self.pass(u64::MAX >> 1, WARM_HEAD)
    }
}

/// `n` draws from ranks `0..head` with Zipf(s = 1) popularity.
pub fn zipf_draws(seed: u64, n: usize, head: usize) -> Vec<usize> {
    let mut cdf = Vec::with_capacity(head);
    let mut total = 0.0;
    for rank in 1..=head {
        total += 1.0 / rank as f64;
        cdf.push(total);
    }
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x21BF));
    (0..n)
        .map(|_| {
            let u = rng.gen::<f64>() * total;
            cdf.partition_point(|&c| c <= u).min(head - 1)
        })
        .collect()
}

/// Due times, in nanoseconds from the start of a pass, of `n` Poisson
/// arrivals at `rate_per_s`. Gaps are summed in `f64` seconds and converted
/// once per arrival, so rounding never accumulates into drift.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, n: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x9015));
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen::<f64>();
            t += -(1.0 - u).ln() / rate_per_s;
            (t * 1e9) as u64
        })
        .collect()
}

/// Flatten cycles into one client's request stream. `prev_rows` is how many
/// rows the session still holds from its previous cycle: a shorter script
/// blanks the leftovers, so the query a cycle runs is built from that
/// cycle's rows only.
pub fn requests_of(cycles: &[(usize, &Cycle)], prev_rows: &mut usize) -> Vec<Request> {
    let mut out = Vec::new();
    for &(index, cycle) in cycles {
        for (i, row) in cycle.rows.iter().enumerate() {
            out.extend(Cycle::keystrokes(row).map(Request::Complete));
            out.push(Request::SetRow(i, row.clone()));
        }
        for stale in cycle.rows.len()..*prev_rows {
            out.push(Request::SetRow(stale, TripleInput::default()));
        }
        *prev_rows = cycle.rows.len();
        out.push(Request::SetModifiers(cycle.modifiers.clone()));
        out.push(Request::Run(index));
    }
    out
}

/// Where an FNV-1a hash starts.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, continued from `h` over `bytes`.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a over a canonical rendering of the cycles: two runs sent the same
/// requests iff their hashes agree.
pub fn pool_hash(cycles: &[Cycle]) -> u64 {
    let mut h = FNV_SEED;
    for c in cycles {
        h = fnv1a(h, &(c.script as u32).to_le_bytes());
        for r in &c.rows {
            for part in [&r.subject, &r.predicate, &r.object] {
                h = fnv1a(h, part.as_bytes());
                h = fnv1a(h, &[0]);
            }
        }
        h = fnv1a(h, format!("{:?}", c.modifiers).as_bytes());
        h = fnv1a(h, &[1]);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapphire_datagen::{generate, DatasetConfig};

    fn fixture(seed: u64) -> (Vec<Question>, Vocabulary) {
        let graph = generate(DatasetConfig::tiny(42));
        let pools = literal_pools(&graph);
        let scripts = scripts();
        // Keyword → IRI the way the model's cache resolves it: by surface
        // form.
        let resolve = |keyword: &str| {
            pools
                .keys()
                .find(|iri| sapphire_text::surface_form(iri) == keyword)
                .cloned()
        };
        let classes: Vec<String> = ["person", "president", "chess player", "city", "book"]
            .map(String::from)
            .to_vec();
        let vocabulary = Vocabulary::draw(seed, &scripts, &pools, &classes, &resolve, 8);
        (scripts, vocabulary)
    }

    fn run_pool(seed: u64) -> Vec<Cycle> {
        let (scripts, vocabulary) = fixture(seed);
        let source = CycleSource::new(&scripts, &vocabulary, seed);
        let mut all = source.warm_up();
        all.extend(source.pass(0, 52));
        all.extend(source.pass(1, 52));
        all.extend(source.warm_head());
        all
    }

    #[test]
    fn same_seed_same_pool_other_seed_other_pool() {
        let (a, b, c) = (run_pool(7), run_pool(7), run_pool(8));
        assert_eq!(pool_hash(&a), pool_hash(&b));
        assert_eq!(a.len(), b.len());
        let timed = |p: &[Cycle]| p.iter().map(Cycle::timed_requests).sum::<usize>();
        assert_eq!(timed(&a), timed(&b));
        assert_ne!(pool_hash(&a), pool_hash(&c));
    }

    #[test]
    fn excluded_scripts_never_appear() {
        let scripts = scripts();
        assert_eq!(scripts.len(), appendix_b().len() - EXCLUDED.len());
        assert!(scripts.iter().all(|q| q.id != "M4"));
        for cycle in run_pool(3) {
            assert!(
                cycle.rows.iter().all(|r| r.predicate != "nickname"),
                "M4's nickname row leaked into the pool: {:?}",
                cycle.rows
            );
        }
    }

    #[test]
    fn passes_are_stratified_and_differ_only_in_draws() {
        let (scripts, vocabulary) = fixture(5);
        let source = CycleSource::new(&scripts, &vocabulary, 5);
        let n = scripts.len();
        for pass in [0, 1, 9] {
            let cycles = source.pass(pass, 2 * n);
            let mut seen = vec![0usize; n];
            for c in &cycles {
                seen[c.script] += 1;
            }
            assert!(seen.iter().all(|&k| k == 2), "pass {pass}: {seen:?}");
        }
        assert_ne!(
            pool_hash(&source.pass(0, 2 * n)),
            pool_hash(&source.pass(1, 2 * n))
        );
    }

    #[test]
    fn typos_never_repeat_within_a_run() {
        let (scripts, vocabulary) = fixture(9);
        let source = CycleSource::new(&scripts, &vocabulary, 9);
        let vocabulary_words: HashSet<&str> = vocabulary
            .entries
            .iter()
            .flatten()
            .flatten()
            .map(String::as_str)
            .collect();
        let mut typos = HashSet::new();
        for pass in 0..20 {
            for cycle in source.pass_all_misspelled(pass, scripts.len()) {
                for row in &cycle.rows {
                    if is_literal_slot(row) && !vocabulary_words.contains(row.object.as_str()) {
                        assert!(typos.insert(row.object.clone()), "{} twice", row.object);
                    }
                }
            }
        }
        assert!(typos.len() > 10 * scripts.len());
    }

    #[test]
    fn warm_up_sends_every_vocabulary_entry() {
        let (scripts, vocabulary) = fixture(11);
        let source = CycleSource::new(&scripts, &vocabulary, 11);
        let mut unsent: std::collections::BTreeSet<(usize, &str)> = vocabulary
            .entries
            .iter()
            .enumerate()
            .flat_map(|(s, rows)| rows.iter().flatten().map(move |c| (s, c.as_str())))
            .collect();
        let warm_up = source.warm_up();
        for cycle in &warm_up {
            for row in &cycle.rows {
                unsent.remove(&(cycle.script, row.object.as_str()));
            }
        }
        assert!(unsent.is_empty(), "never sent: {unsent:?}");
    }

    #[test]
    fn stale_rows_are_blanked_between_cycles() {
        let long = Cycle {
            script: 0,
            rows: vec![
                TripleInput::new("?a", "name", "X"),
                TripleInput::new("?a", "spouse", "?b"),
                TripleInput::new("?b", "parent", "?c"),
            ],
            modifiers: Modifiers::default(),
            query: None,
        };
        let short = Cycle {
            rows: long.rows[..1].to_vec(),
            ..long.clone()
        };
        let mut prev = 0;
        let reqs = requests_of(&[(0, &long), (1, &short)], &mut prev);
        let blanks = reqs
            .iter()
            .filter(|r| matches!(r, Request::SetRow(_, row) if *row == TripleInput::default()))
            .count();
        assert_eq!(blanks, 2);
        assert_eq!(prev, 1);
        assert_eq!(
            reqs.iter().filter(|r| r.is_timed()).count(),
            long.timed_requests() + short.timed_requests()
        );
    }

    #[test]
    fn zipf_head_is_heavier_than_tail() {
        let draws = zipf_draws(1, 20_000, WARM_HEAD);
        assert!(draws.iter().all(|&d| d < WARM_HEAD));
        let first = draws.iter().filter(|&&d| d == 0).count();
        let tenth = draws.iter().filter(|&&d| d == 9).count();
        // Rank 1 is ten times as popular as rank 10.
        assert!(
            first > 6 * tenth && first < 16 * tenth,
            "{first} vs {tenth}"
        );
        assert_eq!(draws, zipf_draws(1, 20_000, WARM_HEAD));
    }

    #[test]
    fn poisson_schedule_does_not_drift_over_thirty_seconds() {
        let rate = 1_000.0;
        let n = 30_000;
        let due = poisson_schedule(42, rate, n);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        // The n-th arrival of a rate-r process is at n/r ± a few √n/r.
        let last_s = *due.last().unwrap() as f64 / 1e9;
        let sigma = (n as f64).sqrt() / rate;
        assert!(
            (last_s - 30.0).abs() < 4.0 * sigma,
            "last arrival at {last_s}s, expected 30s ± {}",
            4.0 * sigma
        );
        // And the same holds at every tenth of the way: no slow drift.
        for k in 1..10 {
            let i = k * n / 10;
            let t = due[i - 1] as f64 / 1e9;
            let sigma = (i as f64).sqrt() / rate;
            assert!(
                (t - i as f64 / rate).abs() < 4.5 * sigma,
                "arrival {i} at {t}s"
            );
        }
    }
}
