//! The seeded DBpedia-like dataset generator.
//!
//! Substitutes for the live DBpedia endpoint (see ARCHITECTURE.md,
//! "Substitutions"). The generated graph reproduces the statistical shapes
//! Sapphire's design depends on:
//! few predicates vs. many literals, an RDFS class hierarchy with
//! materialized transitive types (as DBpedia publishes), skewed entity
//! in-degrees (so literal significance is meaningful), literal lengths
//! spread across many bins, plus non-English and over-long literals that
//! initialization must filter out.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sapphire_rdf::{vocab, Graph, GraphBuilder, Literal, Term};

use crate::names;
use crate::ontology::{dbo, res, ANCHORS, CLASS_HIERARCHY};

/// Size knobs for the generator.
#[derive(Debug, Clone, Copy)]
pub struct DatasetConfig {
    /// RNG seed — same seed, same dataset.
    pub seed: u64,
    /// Random people (split across person subclasses).
    pub persons: usize,
    /// Random cities (countries are added proportionally).
    pub cities: usize,
    /// Random works (books/films/shows).
    pub works: usize,
    /// Random organisations (universities/companies/publishers).
    pub organisations: usize,
    /// Extra noise literals: misspellings, other languages, over-long text.
    pub noise_literals: usize,
}

impl DatasetConfig {
    /// A few hundred entities — fast unit tests.
    pub fn tiny(seed: u64) -> Self {
        DatasetConfig {
            seed,
            persons: 60,
            cities: 20,
            works: 40,
            organisations: 15,
            noise_literals: 40,
        }
    }

    /// A few thousand entities — integration tests and examples.
    pub fn small(seed: u64) -> Self {
        DatasetConfig {
            seed,
            persons: 600,
            cities: 120,
            works: 400,
            organisations: 120,
            noise_literals: 400,
        }
    }

    /// Tens of thousands of entities — benchmarks.
    pub fn medium(seed: u64) -> Self {
        DatasetConfig {
            seed,
            persons: 8_000,
            cities: 1_200,
            works: 5_000,
            organisations: 1_200,
            noise_literals: 6_000,
        }
    }

    /// Roughly 4× `medium` — the rung where snapshot bring-up visibly beats
    /// regeneration and per-shard partitions stop being toy-sized.
    pub fn large(seed: u64) -> Self {
        DatasetConfig {
            seed,
            persons: 32_000,
            cities: 4_800,
            works: 20_000,
            organisations: 4_800,
            noise_literals: 24_000,
        }
    }

    /// Resolve a scale name (`tiny` | `small` | `medium` | `large`) to its
    /// config, or `None` for an unrecognized name. Callers must treat `None`
    /// as a hard error — silently substituting a default would mislabel every
    /// downstream report.
    pub fn for_scale(scale: &str, seed: u64) -> Option<Self> {
        match scale {
            "tiny" => Some(Self::tiny(seed)),
            "small" => Some(Self::small(seed)),
            "medium" => Some(Self::medium(seed)),
            "large" => Some(Self::large(seed)),
            _ => None,
        }
    }

    /// The scale names [`DatasetConfig::for_scale`] accepts, for error text.
    pub const SCALE_NAMES: &'static [&'static str] = &["tiny", "small", "medium", "large"];
}

/// Generate the dataset.
pub fn generate(config: DatasetConfig) -> Graph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut g = GraphBuilder::new();

    emit_ontology(&mut g);
    sapphire_rdf::turtle::parse_into(ANCHORS, &mut g).expect("anchor turtle parses");

    let countries = emit_countries(&mut g, &mut rng, (config.cities / 8).max(2));
    let cities = emit_cities(&mut g, &mut rng, config.cities, &countries);
    let organisations = emit_organisations(&mut g, &mut rng, config.organisations, &cities);
    let persons = emit_persons(&mut g, &mut rng, config.persons, &cities, &organisations);
    emit_works(&mut g, &mut rng, config.works, &persons, &organisations);
    emit_noise(&mut g, &mut rng, config.noise_literals);

    materialize_types(&mut g);
    g.build()
}

fn iri(s: String) -> Term {
    Term::Iri(s)
}

fn en(s: impl Into<String>) -> Term {
    Term::en(s)
}

fn emit_ontology(g: &mut GraphBuilder) {
    for (class, parent) in CLASS_HIERARCHY {
        let class_iri = dbo(class);
        let parent_iri = if *parent == "Thing" {
            vocab::owl::THING.to_string()
        } else {
            dbo(parent)
        };
        g.insert(
            iri(class_iri.clone()),
            Term::iri(vocab::rdf::TYPE),
            Term::iri(vocab::owl::CLASS),
        );
        g.insert(
            iri(class_iri),
            Term::iri(vocab::rdfs::SUB_CLASS_OF),
            iri(parent_iri),
        );
    }
    // The root is a class too.
    g.insert(
        Term::iri(vocab::owl::THING),
        Term::iri(vocab::rdf::TYPE),
        Term::iri(vocab::owl::CLASS),
    );
}

fn emit_countries(g: &mut GraphBuilder, rng: &mut StdRng, n: usize) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..n {
        let name = names::COUNTRY_NAMES[i % names::COUNTRY_NAMES.len()];
        let id = res(&format!("{}_{}", name.replace(' ', "_"), i));
        g.insert(
            iri(id.clone()),
            Term::iri(vocab::rdf::TYPE),
            iri(dbo("Country")),
        );
        g.insert(iri(id.clone()), iri(dbo("name")), en(format!("{name} {i}")));
        let currency = names::CURRENCIES[rng.gen_range(0..names::CURRENCIES.len())];
        g.insert(iri(id.clone()), iri(dbo("currency")), en(currency));
        out.push(id);
    }
    out
}

fn emit_cities(
    g: &mut GraphBuilder,
    rng: &mut StdRng,
    n: usize,
    countries: &[String],
) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..n {
        let base = names::CITY_NAMES[i % names::CITY_NAMES.len()];
        let id = res(&format!("{base}_{i}"));
        let name = format!("{base} {i}");
        g.insert(
            iri(id.clone()),
            Term::iri(vocab::rdf::TYPE),
            iri(dbo("City")),
        );
        g.insert(iri(id.clone()), iri(dbo("name")), en(&name));
        g.insert(
            iri(id.clone()),
            iri(dbo("population")),
            Term::Literal(Literal::integer(rng.gen_range(1_000..9_000_000))),
        );
        let tz = names::TIME_ZONES[rng.gen_range(0..names::TIME_ZONES.len())];
        g.insert(iri(id.clone()), iri(dbo("timeZone")), en(tz));
        if let Some(c) = countries.get(rng.gen_range(0..countries.len().max(1))) {
            g.insert(iri(id.clone()), iri(dbo("country")), iri(c.clone()));
        }
        out.push(id);
    }
    out
}

fn emit_organisations(
    g: &mut GraphBuilder,
    rng: &mut StdRng,
    n: usize,
    cities: &[String],
) -> Organisations {
    let mut orgs = Organisations::default();
    for i in 0..n {
        let (class, name, list): (&str, String, &mut Vec<String>) = match i % 3 {
            0 => {
                let stem = names::UNIVERSITY_STEMS[i % names::UNIVERSITY_STEMS.len()];
                (
                    ("University"),
                    format!("University of {stem} {i}"),
                    &mut orgs.universities,
                )
            }
            1 => {
                let stem = names::COMPANY_STEMS[i % names::COMPANY_STEMS.len()];
                (
                    ("Company"),
                    format!("{stem} Corporation {i}"),
                    &mut orgs.companies,
                )
            }
            _ => {
                let stem = names::COMPANY_STEMS[(i / 3) % names::COMPANY_STEMS.len()];
                (
                    ("Publisher"),
                    format!("{stem} Press {i}"),
                    &mut orgs.publishers,
                )
            }
        };
        let id = res(&name.replace(' ', "_"));
        g.insert(
            iri(id.clone()),
            Term::iri(vocab::rdf::TYPE),
            iri(dbo(class)),
        );
        g.insert(iri(id.clone()), iri(dbo("name")), en(&name));
        g.insert(iri(id.clone()), Term::iri(vocab::rdfs::LABEL), en(&name));
        if class == "Company" {
            let ind = names::INDUSTRIES[rng.gen_range(0..names::INDUSTRIES.len())];
            g.insert(iri(id.clone()), iri(dbo("industry")), en(ind));
            if rng.gen_bool(0.2) {
                let second = names::INDUSTRIES[rng.gen_range(0..names::INDUSTRIES.len())];
                g.insert(iri(id.clone()), iri(dbo("industry")), en(second));
            }
        }
        if !cities.is_empty() && rng.gen_bool(0.5) {
            let c = &cities[rng.gen_range(0..cities.len())];
            g.insert(iri(id.clone()), iri(dbo("state")), iri(c.clone()));
        }
        list.push(id);
    }
    orgs
}

#[derive(Default)]
struct Organisations {
    universities: Vec<String>,
    companies: Vec<String>,
    publishers: Vec<String>,
}

struct Persons {
    all: Vec<String>,
    writers: Vec<String>,
    actors: Vec<String>,
}

fn emit_persons(
    g: &mut GraphBuilder,
    rng: &mut StdRng,
    n: usize,
    cities: &[String],
    orgs: &Organisations,
) -> Persons {
    const CLASSES: &[&str] = &[
        "Scientist",
        "Politician",
        "Actor",
        "Writer",
        "ChessPlayer",
        "MusicalArtist",
    ];
    let mut persons = Persons {
        all: Vec::new(),
        writers: Vec::new(),
        actors: Vec::new(),
    };
    for i in 0..n {
        let first = names::FIRST_NAMES[rng.gen_range(0..names::FIRST_NAMES.len())];
        let last = names::LAST_NAMES[rng.gen_range(0..names::LAST_NAMES.len())];
        let class = CLASSES[i % CLASSES.len()];
        let id = res(&format!("{first}_{last}_{i}"));
        let name = format!("{first} {last}");
        g.insert(
            iri(id.clone()),
            Term::iri(vocab::rdf::TYPE),
            iri(dbo(class)),
        );
        g.insert(iri(id.clone()), iri(dbo("name")), en(&name));
        g.insert(iri(id.clone()), iri(dbo("surname")), en(last));
        let year = rng.gen_range(1850..2000);
        let month = rng.gen_range(1..=12);
        let day = rng.gen_range(1..=28);
        g.insert(
            iri(id.clone()),
            iri(dbo("birthDate")),
            Term::Literal(Literal::date(format!("{year:04}-{month:02}-{day:02}"))),
        );
        if !cities.is_empty() {
            let bp = &cities[rng.gen_range(0..cities.len())];
            g.insert(iri(id.clone()), iri(dbo("birthPlace")), iri(bp.clone()));
            if rng.gen_bool(0.3) {
                // Some die where they were born, some elsewhere.
                let dp = if rng.gen_bool(0.3) {
                    bp
                } else {
                    &cities[rng.gen_range(0..cities.len())]
                };
                g.insert(iri(id.clone()), iri(dbo("deathPlace")), iri(dp.clone()));
                let dyear = year + rng.gen_range(30..90);
                g.insert(
                    iri(id.clone()),
                    iri(dbo("deathDate")),
                    Term::Literal(Literal::date(format!("{dyear:04}-01-15"))),
                );
            }
        }
        if class == "Scientist" && !orgs.universities.is_empty() {
            let u = &orgs.universities[rng.gen_range(0..orgs.universities.len())];
            g.insert(iri(id.clone()), iri(dbo("almaMater")), iri(u.clone()));
        }
        if class == "MusicalArtist" {
            let inst = names::INSTRUMENTS[rng.gen_range(0..names::INSTRUMENTS.len())];
            g.insert(iri(id.clone()), iri(dbo("instrument")), iri(res(inst)));
        }
        if rng.gen_bool(0.25) {
            if let Some(prev) = persons.all.last() {
                g.insert(iri(id.clone()), iri(dbo("spouse")), iri(prev.clone()));
            }
        }
        if rng.gen_bool(0.2) && persons.all.len() > 2 {
            let child = &persons.all[rng.gen_range(0..persons.all.len())];
            g.insert(iri(id.clone()), iri(dbo("child")), iri(child.clone()));
            g.insert(iri(child.clone()), iri(dbo("parent")), iri(id.clone()));
        }
        match class {
            "Writer" => persons.writers.push(id.clone()),
            "Actor" => persons.actors.push(id.clone()),
            _ => {}
        }
        persons.all.push(id);
    }
    persons
}

fn emit_works(
    g: &mut GraphBuilder,
    rng: &mut StdRng,
    n: usize,
    persons: &Persons,
    orgs: &Organisations,
) {
    for i in 0..n {
        let head = names::TITLE_HEADS[rng.gen_range(0..names::TITLE_HEADS.len())];
        let tail = names::TITLE_TAILS[rng.gen_range(0..names::TITLE_TAILS.len())];
        let title = format!("{head} {tail} {i}");
        let id = res(&title.replace(' ', "_"));
        let class = match i % 3 {
            0 => "Book",
            1 => "Film",
            _ => "TelevisionShow",
        };
        g.insert(
            iri(id.clone()),
            Term::iri(vocab::rdf::TYPE),
            iri(dbo(class)),
        );
        g.insert(iri(id.clone()), iri(dbo("name")), en(&title));
        match class {
            "Book" => {
                if !persons.writers.is_empty() {
                    let a = &persons.writers[rng.gen_range(0..persons.writers.len())];
                    g.insert(iri(id.clone()), iri(dbo("author")), iri(a.clone()));
                }
                if !orgs.publishers.is_empty() {
                    let p = &orgs.publishers[rng.gen_range(0..orgs.publishers.len())];
                    g.insert(iri(id.clone()), iri(dbo("publisher")), iri(p.clone()));
                }
                g.insert(
                    iri(id.clone()),
                    iri(dbo("numberOfPages")),
                    Term::Literal(Literal::integer(rng.gen_range(80..900))),
                );
            }
            "Film" => {
                if !persons.all.is_empty() {
                    let d = &persons.all[rng.gen_range(0..persons.all.len())];
                    g.insert(iri(id.clone()), iri(dbo("director")), iri(d.clone()));
                }
                for _ in 0..rng.gen_range(1..4) {
                    if !persons.actors.is_empty() {
                        let s = &persons.actors[rng.gen_range(0..persons.actors.len())];
                        g.insert(iri(id.clone()), iri(dbo("starring")), iri(s.clone()));
                    }
                }
                g.insert(
                    iri(id.clone()),
                    iri(dbo("budget")),
                    Term::Literal(Literal::double(rng.gen_range(1..300) as f64 * 1.0e6)),
                );
            }
            _ => {
                for _ in 0..rng.gen_range(2..5) {
                    if !persons.actors.is_empty() {
                        let s = &persons.actors[rng.gen_range(0..persons.actors.len())];
                        g.insert(iri(id.clone()), iri(dbo("starring")), iri(s.clone()));
                    }
                }
            }
        }
    }
}

/// Noise: misspelled names (exercising JW search), non-English literals and
/// over-long literals (exercising the init filters).
fn emit_noise(g: &mut GraphBuilder, rng: &mut StdRng, n: usize) {
    for i in 0..n {
        let id = res(&format!("Noise_{i}"));
        g.insert(
            iri(id.clone()),
            Term::iri(vocab::rdf::TYPE),
            iri(dbo("Place")),
        );
        match i % 4 {
            0 => {
                // Misspelled person/city name: duplicate, drop, or swap a char.
                let base = if rng.gen_bool(0.5) {
                    names::LAST_NAMES[rng.gen_range(0..names::LAST_NAMES.len())]
                } else {
                    names::CITY_NAMES[rng.gen_range(0..names::CITY_NAMES.len())]
                };
                g.insert(iri(id), iri(dbo("name")), en(mutate(base, rng)));
            }
            1 => {
                // Non-English literal: must be filtered by initialization.
                g.insert(
                    iri(id),
                    iri(dbo("name")),
                    Term::Literal(Literal::lang_tagged(format!("Étranger {i}"), "fr")),
                );
            }
            2 => {
                // Over-long literal: must be filtered by initialization.
                g.insert(
                    iri(id),
                    iri(dbo("name")),
                    en(format!(
                        "An exceedingly long descriptive literal number {i} that rambles on and on \
                         well past the eighty character cutoff used by Sapphire"
                    )),
                );
            }
            _ => {
                // Random short keyword-ish literal to fill the bins.
                let a = names::TITLE_HEADS[rng.gen_range(0..names::TITLE_HEADS.len())];
                let b = names::TITLE_TAILS[rng.gen_range(0..names::TITLE_TAILS.len())];
                g.insert(iri(id), iri(dbo("name")), en(format!("{a} {b} note {i}")));
            }
        }
    }
}

fn mutate(s: &str, rng: &mut StdRng) -> String {
    let chars: Vec<char> = s.chars().collect();
    if chars.len() < 3 {
        return format!("{s}x");
    }
    let pos = rng.gen_range(1..chars.len());
    match rng.gen_range(0..3) {
        0 => {
            // duplicate a char
            let mut out: Vec<char> = chars.clone();
            out.insert(pos, chars[pos - 1]);
            out.into_iter().collect()
        }
        1 => {
            // drop a char
            let mut out = chars.clone();
            out.remove(pos);
            out.into_iter().collect()
        }
        _ => {
            // append 's' (Kennedy → Kennedys)
            format!("{s}s")
        }
    }
}

/// Add `rdf:type` triples for every superclass of each entity's declared
/// types — DBpedia materializes the transitive closure, and Sapphire's
/// class-hierarchy walk (§5.1) relies on it.
fn materialize_types(g: &mut GraphBuilder) {
    use std::collections::HashMap;
    let parents: HashMap<String, String> = CLASS_HIERARCHY
        .iter()
        .map(|(c, p)| {
            let parent = if *p == "Thing" {
                vocab::owl::THING.to_string()
            } else {
                dbo(p)
            };
            (dbo(c), parent)
        })
        .collect();
    // Every class and `owl:Thing` is already interned by `emit_ontology`,
    // so these triples add rows, never terms: term ids do not depend on the
    // order they are found in.
    let type_term = Term::iri(vocab::rdf::TYPE);
    let mut inferred: Vec<(Term, Term, Term)> = Vec::new();
    for (s, p, o) in g.iter_terms() {
        if *p != type_term {
            continue;
        }
        let mut class = o.lexical();
        while let Some(parent) = parents.get(class) {
            inferred.push((s.clone(), type_term.clone(), Term::iri(parent.clone())));
            class = parent;
        }
    }
    g.extend(inferred);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapphire_sparql::{evaluate_select, parse_select, WorkBudget};

    fn run(g: &Graph, q: &str) -> sapphire_sparql::Solutions {
        evaluate_select(g, &parse_select(q).unwrap(), &mut WorkBudget::unlimited()).unwrap()
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = generate(DatasetConfig::tiny(7));
        let b = generate(DatasetConfig::tiny(7));
        assert_eq!(a.len(), b.len());
        let c = generate(DatasetConfig::tiny(8));
        assert_ne!(a.len(), c.len());
    }

    #[test]
    fn anchors_survive_generation() {
        let g = generate(DatasetConfig::tiny(1));
        let s = run(
            &g,
            r#"SELECT ?vp WHERE { res:John_F._Kennedy dbo:vicePresident ?vp }"#,
        );
        assert_eq!(s.len(), 1);
        assert_eq!(
            s.rows[0][0].as_ref().unwrap().lexical(),
            res("Lyndon_B._Johnson")
        );
    }

    #[test]
    fn types_are_materialized() {
        let g = generate(DatasetConfig::tiny(1));
        // JFK is a President; materialization adds Politician, Person, Agent, Thing.
        let s = run(&g, "SELECT ?t WHERE { res:John_F._Kennedy a ?t }");
        let types: Vec<String> = s.values("t").map(|t| t.lexical().to_string()).collect();
        assert!(types.contains(&dbo("President")));
        assert!(types.contains(&dbo("Politician")));
        assert!(types.contains(&dbo("Person")));
        assert!(types.contains(&vocab::owl::THING.to_string()));
    }

    #[test]
    fn class_hierarchy_is_queryable() {
        let g = generate(DatasetConfig::tiny(1));
        let s = run(
            &g,
            "SELECT ?class ?subclass WHERE { ?class a owl:Class . ?class rdfs:subClassOf ?subclass }",
        );
        assert!(s.len() >= CLASS_HIERARCHY.len());
    }

    #[test]
    fn noise_includes_filterable_literals() {
        let g = generate(DatasetConfig::tiny(3));
        let long = run(
            &g,
            "SELECT ?o WHERE { ?s dbo:name ?o . FILTER(strlen(str(?o)) >= 80) }",
        );
        assert!(!long.is_empty(), "need over-long literals");
        let french = run(
            &g,
            "SELECT ?o WHERE { ?s dbo:name ?o . FILTER(lang(?o) = 'fr') }",
        );
        assert!(!french.is_empty(), "need non-English literals");
    }

    #[test]
    fn population_skew_supports_superlatives() {
        let g = generate(DatasetConfig::tiny(5));
        let s = run(
            &g,
            "SELECT ?c ?p WHERE { ?c a dbo:City ; dbo:country res:Australia ; dbo:population ?p } ORDER BY DESC(?p) LIMIT 1",
        );
        assert_eq!(s.get(0, "c").unwrap().lexical(), res("Sydney"));
    }

    #[test]
    fn scale_knobs_scale() {
        let tiny = generate(DatasetConfig::tiny(2));
        let small = generate(DatasetConfig::small(2));
        assert!(small.len() > tiny.len() * 3);
    }

    #[test]
    fn large_rung_sits_well_above_medium() {
        let medium = generate(DatasetConfig::medium(42));
        let large = generate(DatasetConfig::large(42));
        assert!(
            large.len() > medium.len() * 3,
            "large ({}) must dwarf medium ({})",
            large.len(),
            medium.len()
        );
    }

    #[test]
    fn for_scale_resolves_every_published_name_and_nothing_else() {
        for &name in DatasetConfig::SCALE_NAMES {
            assert!(DatasetConfig::for_scale(name, 1).is_some(), "{name}");
        }
        assert!(DatasetConfig::for_scale("gigantic", 1).is_none());
        assert!(DatasetConfig::for_scale("", 1).is_none());
        assert!(
            DatasetConfig::for_scale("Small", 1).is_none(),
            "case-sensitive"
        );
        // The seed threads through.
        assert_eq!(DatasetConfig::for_scale("tiny", 9).unwrap().seed, 9);
    }
}
