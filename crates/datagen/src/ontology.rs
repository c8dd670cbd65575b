//! The synthetic dataset's ontology and its hand-anchored entities.
//!
//! The random generator produces bulk entities with DBpedia-like shape; this
//! module pins down (a) the class hierarchy and predicate vocabulary, and
//! (b) the *anchor entities* that the Appendix-B user-study questions ask
//! about (Ganges, JFK, Jack Kerouac, …), so every workload question has a
//! well-defined gold answer in the generated data.

/// `(class local name, parent local name)` pairs of the `dbo:` hierarchy.
/// Parents are in the `dbo:` namespace except the root `owl:Thing`.
pub const CLASS_HIERARCHY: &[(&str, &str)] = &[
    ("Agent", "Thing"),
    ("Person", "Agent"),
    ("Scientist", "Person"),
    ("Politician", "Person"),
    ("President", "Politician"),
    ("Actor", "Person"),
    ("Writer", "Person"),
    ("ChessPlayer", "Person"),
    ("MusicalArtist", "Person"),
    ("Organisation", "Agent"),
    ("University", "Organisation"),
    ("Company", "Organisation"),
    ("Publisher", "Organisation"),
    ("Place", "Thing"),
    ("City", "Place"),
    ("Country", "Place"),
    ("Lake", "Place"),
    ("River", "Place"),
    ("Bridge", "Place"),
    ("MilitaryBase", "Place"),
    ("Work", "Thing"),
    ("Book", "Work"),
    ("Film", "Work"),
    ("TelevisionShow", "Work"),
    ("Website", "Work"),
    ("Currency", "Thing"),
];

/// Predicate local names in the `dbo:` namespace used by the generator.
pub const PREDICATES: &[&str] = &[
    "name",
    "surname",
    "nickname",
    "birthDate",
    "deathDate",
    "birthPlace",
    "deathPlace",
    "spouse",
    "child",
    "parent",
    "almaMater",
    "affiliation",
    "vicePresident",
    "instrument",
    "office",
    "author",
    "publisher",
    "director",
    "starring",
    "writer",
    "numberOfPages",
    "budget",
    "population",
    "country",
    "capital",
    "timeZone",
    "currency",
    "designer",
    "creator",
    "depth",
    "industry",
    "state",
    "sourceCountry",
];

/// Hand-authored anchor triples: one cluster per Appendix-B question.
/// Types here are leaf types; the generator materializes superclasses.
pub const ANCHORS: &str = r#"
# --- Easy 1: Country in which the Ganges starts ---
res:Ganges a dbo:River ; dbo:name "Ganges"@en ; dbo:sourceCountry res:India .
res:India a dbo:Country ; dbo:name "India"@en .

# --- Easy 2: John F. Kennedy's vice president ---
res:John_F._Kennedy a dbo:President ; dbo:name "John F. Kennedy"@en ; dbo:surname "Kennedy"@en ;
    dbo:office "President"@en ; dbo:vicePresident res:Lyndon_B._Johnson ;
    dbo:birthDate "1917-05-29"^^xsd:date ; dbo:spouse res:Jacqueline_Kennedy .
res:Lyndon_B._Johnson a dbo:President ; dbo:name "Lyndon B. Johnson"@en ; dbo:surname "Johnson"@en ;
    dbo:office "President"@en .
res:Jacqueline_Kennedy a dbo:Person ; dbo:name "Jacqueline Kennedy"@en ; dbo:surname "Kennedy"@en .
res:Robert_F._Kennedy a dbo:Politician ; dbo:name "Robert F. Kennedy"@en ; dbo:surname "Kennedy"@en ;
    dbo:child res:Kathleen_Kennedy .
res:Kathleen_Kennedy a dbo:Politician ; dbo:name "Kathleen Kennedy"@en ; dbo:surname "Kennedy"@en ;
    dbo:spouse res:David_Townsend .
res:David_Townsend a dbo:Person ; dbo:name "David Townsend"@en ; dbo:surname "Townsend"@en .

# --- Easy 3: Time zone of Salt Lake City ---
res:Salt_Lake_City a dbo:City ; dbo:name "Salt Lake City"@en ; dbo:timeZone "UTC-07:00"@en ;
    dbo:population 200133 .

# --- Easy 4: Tom Hanks's wife ---
res:Tom_Hanks a dbo:Actor ; dbo:name "Tom Hanks"@en ; dbo:surname "Hanks"@en ;
    dbo:spouse res:Rita_Wilson .
res:Rita_Wilson a dbo:Actor ; dbo:name "Rita Wilson"@en ; dbo:surname "Wilson"@en .

# --- Easy 5: Children of Margaret Thatcher ---
res:Margaret_Thatcher a dbo:Politician ; dbo:name "Margaret Thatcher"@en ; dbo:surname "Thatcher"@en ;
    dbo:child res:Mark_Thatcher , res:Carol_Thatcher .
res:Mark_Thatcher a dbo:Person ; dbo:name "Mark Thatcher"@en .
res:Carol_Thatcher a dbo:Person ; dbo:name "Carol Thatcher"@en .

# --- Easy 6: Currency of the Czech Republic ---
res:Czech_Republic a dbo:Country ; dbo:name "Czech Republic"@en ; dbo:currency res:Czech_Koruna .
res:Czech_Koruna a dbo:Currency ; dbo:name "Czech koruna"@en .

# --- Easy 7: Designer of the Brooklyn Bridge ---
res:Brooklyn_Bridge a dbo:Bridge ; dbo:name "Brooklyn Bridge"@en ; dbo:designer res:John_A._Roebling .
res:John_A._Roebling a dbo:Person ; dbo:name "John A. Roebling"@en .

# --- Easy 8: Wife of U.S. president Abraham Lincoln ---
res:Abraham_Lincoln a dbo:President ; dbo:name "Abraham Lincoln"@en ; dbo:surname "Lincoln"@en ;
    dbo:office "President"@en ; dbo:spouse res:Mary_Todd_Lincoln .
res:Mary_Todd_Lincoln a dbo:Person ; dbo:name "Mary Todd Lincoln"@en .

# --- Easy 9: Creator of Wikipedia ---
res:Wikipedia a dbo:Website ; dbo:name "Wikipedia"@en ; dbo:creator res:Jimmy_Wales .
res:Jimmy_Wales a dbo:Person ; dbo:name "Jimmy Wales"@en .

# --- Easy 10: Depth of lake Placid ---
res:Lake_Placid a dbo:Lake ; dbo:name "Lake Placid"@en ; dbo:depth 50 .

# --- Medium 1: Instruments played by Cat Stevens ---
res:Cat_Stevens a dbo:MusicalArtist ; dbo:name "Cat Stevens"@en ;
    dbo:instrument res:Guitar , res:Piano .
res:Guitar dbo:name "Guitar"@en .
res:Piano dbo:name "Piano"@en .

# --- Medium 2: Parents of the wife of Juan Carlos I ---
res:Juan_Carlos_I a dbo:Person ; dbo:name "Juan Carlos I"@en ; dbo:spouse res:Queen_Sofia .
res:Queen_Sofia a dbo:Person ; dbo:name "Queen Sofia"@en ;
    dbo:parent res:Paul_of_Greece , res:Frederica_of_Hanover .
res:Paul_of_Greece a dbo:Person ; dbo:name "Paul of Greece"@en .
res:Frederica_of_Hanover a dbo:Person ; dbo:name "Frederica of Hanover"@en .

# --- Medium 3: U.S. state in which Fort Knox is located ---
res:Fort_Knox a dbo:MilitaryBase ; dbo:name "Fort Knox"@en ; dbo:state res:Kentucky .
res:Kentucky a dbo:Place ; dbo:name "Kentucky"@en .

# --- Medium 4: Person who is called Frank The Tank ---
res:Frank_Ricard a dbo:Person ; dbo:name "Frank Ricard"@en ; dbo:nickname "Frank The Tank"@en .

# --- Medium 5: Birthdays of all actors of the television show Charmed ---
res:Charmed a dbo:TelevisionShow ; dbo:name "Charmed"@en ;
    dbo:starring res:Alyssa_Milano , res:Holly_Marie_Combs , res:Shannen_Doherty .
res:Alyssa_Milano a dbo:Actor ; dbo:name "Alyssa Milano"@en ; dbo:birthDate "1972-12-19"^^xsd:date .
res:Holly_Marie_Combs a dbo:Actor ; dbo:name "Holly Marie Combs"@en ; dbo:birthDate "1973-12-03"^^xsd:date .
res:Shannen_Doherty a dbo:Actor ; dbo:name "Shannen Doherty"@en ; dbo:birthDate "1971-04-12"^^xsd:date .

# --- Medium 6: Country in which the Limerick Lake is located ---
res:Limerick_Lake a dbo:Lake ; dbo:name "Limerick Lake"@en ; dbo:country res:Canada .
res:Canada a dbo:Country ; dbo:name "Canada"@en ; dbo:capital res:Ottawa .
res:Ottawa a dbo:City ; dbo:name "Ottawa"@en ; dbo:population 934243 ; dbo:country res:Canada .

# --- Medium 8 / Difficult 5: Australia, capital, populous cities ---
res:Australia a dbo:Country ; dbo:name "Australia"@en ; dbo:capital res:Canberra .
res:Canberra a dbo:City ; dbo:name "Canberra"@en ; dbo:population 430000 ; dbo:country res:Australia .
res:Sydney a dbo:City ; dbo:name "Sydney"@en ; dbo:population 5300000 ; dbo:country res:Australia .
res:Melbourne a dbo:City ; dbo:name "Melbourne"@en ; dbo:population 5000000 ; dbo:country res:Australia .

# --- Difficult 1: Chess players who died where they were born ---
res:Miguel_Castillo a dbo:ChessPlayer ; dbo:name "Miguel Castillo"@en ;
    dbo:birthPlace res:Rome_City ; dbo:deathPlace res:Rome_City .
res:Viktor_Olsen a dbo:ChessPlayer ; dbo:name "Viktor Olsen"@en ;
    dbo:birthPlace res:Vienna_City ; dbo:deathPlace res:Vienna_City .
res:Pavel_Dvorak a dbo:ChessPlayer ; dbo:name "Pavel Dvorak"@en ;
    dbo:birthPlace res:Rome_City ; dbo:deathPlace res:Vienna_City .
res:Rome_City a dbo:City ; dbo:name "Rome"@en .
res:Vienna_City a dbo:City ; dbo:name "Vienna"@en .

# --- Difficult 2: Books by William Goldman with more than 300 pages ---
res:William_Goldman a dbo:Writer ; dbo:name "William Goldman"@en ; dbo:surname "Goldman"@en .
res:The_Princess_Bride a dbo:Book ; dbo:name "The Princess Bride"@en ;
    dbo:author res:William_Goldman ; dbo:numberOfPages 493 .
res:Marathon_Man a dbo:Book ; dbo:name "Marathon Man"@en ;
    dbo:author res:William_Goldman ; dbo:numberOfPages 309 .
res:Heat_Book a dbo:Book ; dbo:name "Heat"@en ;
    dbo:author res:William_Goldman ; dbo:numberOfPages 260 .

# --- Difficult 3 / Figure 6: Books by Jack Kerouac published by Viking Press ---
res:Jack_Kerouac a dbo:Writer ; dbo:name "Jack Kerouac"@en ; dbo:surname "Kerouac"@en .
res:Viking_Press a dbo:Publisher ; dbo:name "Viking Press"@en ; rdfs:label "Viking Press"@en .
res:Grove_Press a dbo:Publisher ; dbo:name "Grove Press"@en ; rdfs:label "Grove Press"@en .
res:On_The_Road a dbo:Book ; dbo:name "On The Road"@en ;
    dbo:author res:Jack_Kerouac ; dbo:publisher res:Viking_Press .
res:Door_Wide_Open a dbo:Book ; dbo:name "Door Wide Open"@en ;
    dbo:author res:Jack_Kerouac ; dbo:publisher res:Viking_Press .
res:Doctor_Sax a dbo:Book ; dbo:name "Doctor Sax"@en ;
    dbo:author res:Jack_Kerouac ; dbo:publisher res:Grove_Press .
res:Big_Sur_Film a dbo:Film ; dbo:name "Big Sur"@en ; dbo:writer res:Jack_Kerouac .

# --- Difficult 4: Films directed by Steven Spielberg with budget >= $80M ---
res:Steven_Spielberg a dbo:Person ; dbo:name "Steven Spielberg"@en ; dbo:surname "Spielberg"@en .
res:Jurassic_Dawn a dbo:Film ; dbo:name "Jurassic Dawn"@en ;
    dbo:director res:Steven_Spielberg ; dbo:budget 1.5E8 .
res:Ocean_Rescue a dbo:Film ; dbo:name "Ocean Rescue"@en ;
    dbo:director res:Steven_Spielberg ; dbo:budget 8.0E7 .
res:Quiet_Fields a dbo:Film ; dbo:name "Quiet Fields"@en ;
    dbo:director res:Steven_Spielberg ; dbo:budget 3.0E7 .

# --- Difficult 6: Films starring Clint Eastwood directed by himself ---
res:Clint_Eastwood a dbo:Actor ; dbo:name "Clint Eastwood"@en ; dbo:surname "Eastwood"@en .
res:Iron_Ridge a dbo:Film ; dbo:name "Iron Ridge"@en ;
    dbo:starring res:Clint_Eastwood ; dbo:director res:Clint_Eastwood .
res:Pale_Creek a dbo:Film ; dbo:name "Pale Creek"@en ;
    dbo:starring res:Clint_Eastwood ; dbo:director res:Clint_Eastwood .
res:Borrowed_Time a dbo:Film ; dbo:name "Borrowed Time"@en ;
    dbo:starring res:Clint_Eastwood ; dbo:director res:Steven_Spielberg .

# --- Difficult 7: Presidents born in 1945 ---
res:Aldo_Moreno a dbo:President ; dbo:name "Aldo Moreno"@en ; dbo:office "President"@en ;
    dbo:birthDate "1945-03-14"^^xsd:date .
res:Nils_Bergstrom a dbo:President ; dbo:name "Nils Bergstrom"@en ; dbo:office "President"@en ;
    dbo:birthDate "1945-11-02"^^xsd:date .
res:Omar_Haddad a dbo:President ; dbo:name "Omar Haddad"@en ; dbo:office "President"@en ;
    dbo:birthDate "1950-06-21"^^xsd:date .

# --- Difficult 8: Companies in both aerospace and medicine ---
res:Helix_Dynamics a dbo:Company ; dbo:name "Helix Dynamics"@en ;
    dbo:industry "Aerospace"@en , "Medicine"@en .
res:Novacore_Labs a dbo:Company ; dbo:name "Novacore Labs"@en ;
    dbo:industry "Aerospace"@en , "Medicine"@en .
res:Skyward_Industries a dbo:Company ; dbo:name "Skyward Industries"@en ;
    dbo:industry "Aerospace"@en .
res:Vitalis_Pharma a dbo:Company ; dbo:name "Vitalis Pharma"@en ;
    dbo:industry "Medicine"@en .

# --- Difficult 9: Most populous city in Canada ---
res:Toronto a dbo:City ; dbo:name "Toronto"@en ; dbo:population 2930000 ; dbo:country res:Canada .
res:Montreal a dbo:City ; dbo:name "Montreal"@en ; dbo:population 1780000 ; dbo:country res:Canada .
"#;

/// Expand a `dbo:` local name to a full IRI.
pub fn dbo(local: &str) -> String {
    format!("http://dbpedia.org/ontology/{local}")
}

/// Expand a `res:` local name to a full IRI.
pub fn res(local: &str) -> String {
    format!("http://dbpedia.org/resource/{local}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_parse_as_turtle() {
        let g = sapphire_sparql::turtle::parse(ANCHORS).expect("anchor turtle parses");
        assert!(g.len() > 150, "got {} triples", g.len());
    }

    #[test]
    fn hierarchy_covers_all_anchor_types() {
        let g = sapphire_sparql::turtle::parse(ANCHORS).unwrap();
        let type_iri = sapphire_rdf::Term::iri(sapphire_rdf::vocab::rdf::TYPE);
        let tid = g.term_id(&type_iri).unwrap();
        let classes: std::collections::HashSet<String> =
            CLASS_HIERARCHY.iter().map(|(c, _)| dbo(c)).collect();
        for t in g.triples_matching(None, Some(tid), None) {
            let class = g.term(t[2]).lexical().to_string();
            assert!(
                classes.contains(&class),
                "anchor type {class} missing from hierarchy"
            );
        }
    }

    #[test]
    fn predicate_list_covers_anchor_predicates() {
        let g = sapphire_sparql::turtle::parse(ANCHORS).unwrap();
        let preds: std::collections::HashSet<String> = PREDICATES.iter().map(|p| dbo(p)).collect();
        for (_, p, _) in g.iter_terms() {
            let iri = p.lexical();
            if iri.starts_with("http://dbpedia.org/ontology/") {
                assert!(
                    preds.contains(iri),
                    "anchor predicate {iri} not in PREDICATES"
                );
            }
        }
    }
}
