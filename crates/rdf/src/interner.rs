//! Term interning: maps [`Term`]s to dense `u32` ids.
//!
//! Graphs at DBpedia-like scale repeat the same IRIs and literals millions of
//! times; interning keeps each triple at 12 bytes and makes joins integer
//! comparisons (a standard trick in RDF stores, and the perf-book's "compact
//! representation for common values" guidance).
//!
//! An [`Interner`] holds each term once, in its id-ordered table. The way
//! back from a term to its id is an open-addressed table of 8-byte slots,
//! each an id and 32 bits of the term's hash, filled at most to half and
//! probed linearly: a lookup hashes the probe term and compares, at slots
//! whose bits match, through the table. That costs 16–32 B a term (two to
//! four slots) beside the term itself, and no second copy of the term or its
//! strings. Like a graph's column heads, the slots are derived whenever an
//! interner is built or loaded, never stored.

use std::hash::{Hash, Hasher};

use crate::term::Term;

/// A dense identifier for an interned [`Term`]. Valid only with the
/// [`Interner`] that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A fast, low-quality hasher in the spirit of `FxHash` (we avoid an extra
/// dependency). Term keys are strings, so we use the FNV-1a mixing loop which
/// benchmarks well for short keys.
#[derive(Default)]
struct FnvHasher(u64);

impl std::hash::Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x100000001b3;
        let mut hash = if self.0 == 0 {
            0xcbf29ce484222325
        } else {
            self.0
        };
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
        self.0 = hash;
    }
}

/// A bidirectional [`Term`] ↔ [`TermId`] table that holds each term once.
#[derive(Default, Debug)]
pub struct Interner {
    /// The terms, by id.
    terms: Vec<Term>,
    /// The way back: a power-of-two table of at least twice `terms.len()`
    /// slots (none before the first term).
    slots: Vec<Slot>,
}

/// One slot of the term → id table: an id, or [`EMPTY`], and that term's
/// [`tag_of`], which also places it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: u32,
    tag: u32,
}

/// An unused slot. Ids stop one short of it.
const EMPTY: Slot = Slot {
    id: u32::MAX,
    tag: 0,
};

/// The smallest table a first term gets.
const MIN_SLOTS: usize = 16;

/// The term's FNV hash, folded and spread by a Fibonacci multiply, to 32
/// bits. Without the multiply, terms that differ in their last byte (`…_1`,
/// `…_2`) differ in only a few middle bits and pile up in runs: a probe
/// read 2.1 slots on average at `medium`, against 1.29 with it, which is
/// what uniform hashing gives at that load.
fn tag_of(term: &Term) -> u32 {
    let mut hasher = FnvHasher::default();
    term.hash(&mut hasher);
    let hash = hasher.finish();
    ((hash ^ (hash >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as u32
}

/// Where a tag's probe starts in a table of `slots`: its top bits.
fn home(tag: u32, slots: usize) -> usize {
    ((u64::from(tag) * slots as u64) >> 32) as usize
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a term, returning its id (existing or fresh).
    pub fn intern(&mut self, term: Term) -> TermId {
        if 2 * (self.terms.len() + 1) > self.slots.len() {
            self.grow();
        }
        let tag = tag_of(&term);
        match self.probe(&term, tag) {
            Ok(id) => id,
            Err(at) => {
                let id = u32::try_from(self.terms.len())
                    .ok()
                    .filter(|&id| id != EMPTY.id)
                    .expect("interner overflow: ≥ 2^32 − 1 terms");
                self.slots[at] = Slot { id, tag };
                self.terms.push(term);
                TermId(id)
            }
        }
    }

    /// Rebuild an interner from a term table whose position *is* the id —
    /// the snapshot loader's constructor. Ids come out identical to the
    /// interner that produced the table. Returns `None` if the table
    /// overflows the `u32` id space or contains a duplicate term (possible
    /// only for hand-crafted input; tables written in [`iter`](Self::iter)
    /// order are always valid).
    pub fn from_terms_checked(terms: Vec<Term>) -> Option<Self> {
        u32::try_from(terms.len()).ok()?;
        let mut interner = Interner {
            slots: vec![EMPTY; (2 * terms.len()).next_power_of_two().max(MIN_SLOTS)],
            terms,
        };
        for (id, term) in interner.terms.iter().enumerate() {
            let tag = tag_of(term);
            let at = interner.probe(term, tag).err()?;
            interner.slots[at] = Slot { id: id as u32, tag };
        }
        Some(interner)
    }

    /// The id of `term`, or the empty slot where it would go. The table
    /// must have a slot, and an empty one.
    fn probe(&self, term: &Term, tag: u32) -> Result<TermId, usize> {
        let mask = self.slots.len() - 1;
        let mut at = home(tag, self.slots.len());
        loop {
            let slot = self.slots[at];
            if slot.id == EMPTY.id {
                return Err(at);
            }
            if slot.tag == tag && self.terms[slot.id as usize] == *term {
                return Ok(TermId(slot.id));
            }
            at = (at + 1) & mask;
        }
    }

    /// Double the table (or make its first), re-placing every slot by its
    /// tag; no term is hashed again.
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; size]);
        for slot in old.into_iter().filter(|s| s.id != EMPTY.id) {
            if let Err(at) = self.probe(&self.terms[slot.id as usize], slot.tag) {
                self.slots[at] = slot;
            }
        }
    }

    /// Look up the id of an already-interned term without inserting.
    pub fn get(&self, term: &Term) -> Option<TermId> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(term, tag_of(term)).ok()
    }

    /// Resolve an id back to its term.
    ///
    /// # Panics
    /// Panics if the id did not come from this interner.
    pub fn resolve(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    /// Every interned term, indexed by id.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterate over `(id, term)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId(i as u32), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern(Term::iri("http://x/a"));
        let b = i.intern(Term::iri("http://x/b"));
        let a2 = i.intern(Term::iri("http://x/a"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_roundtrip() {
        let mut i = Interner::new();
        let t = Term::en("New York");
        let id = i.intern(t.clone());
        assert_eq!(i.resolve(id), &t);
        assert_eq!(i.get(&t), Some(id));
        assert_eq!(i.get(&Term::en("Boston")), None);
    }

    #[test]
    fn distinct_literal_shapes_get_distinct_ids() {
        let mut i = Interner::new();
        let plain = i.intern(Term::literal("x"));
        let tagged = i.intern(Term::en("x"));
        let iri = i.intern(Term::iri("x"));
        assert_ne!(plain, tagged);
        assert_ne!(plain, iri);
        assert_eq!(i.len(), 3);
    }

    /// Two terms whose tags are equal (found by search) are told apart by
    /// the comparison through the term table.
    #[test]
    fn terms_that_share_a_tag_keep_their_own_ids() {
        let (a, b) = (Term::literal("15270"), Term::literal("85898"));
        assert_eq!(tag_of(&a), tag_of(&b), "the pair this test needs");
        let mut i = Interner::new();
        let ia = i.intern(a.clone());
        assert_eq!(i.get(&b), None);
        let ib = i.intern(b.clone());
        assert_ne!(ia, ib);
        assert_eq!((i.get(&a), i.get(&b)), (Some(ia), Some(ib)));
        let loaded = Interner::from_terms_checked(vec![a.clone(), b.clone()]).unwrap();
        assert_eq!((loaded.get(&a), loaded.get(&b)), (Some(ia), Some(ib)));
    }

    /// Six terms that all start at the first table's last slot: five of
    /// them are found only by wrapping round to its first slots.
    #[test]
    fn a_run_past_the_last_slot_wraps_to_the_first() {
        let last: Vec<Term> = (0..)
            .map(|k| Term::literal(format!("{k}")))
            .filter(|t| home(tag_of(t), MIN_SLOTS) == MIN_SLOTS - 1)
            .take(6)
            .collect();
        let mut i = Interner::new();
        for (id, t) in last.iter().enumerate() {
            assert_eq!(i.intern(t.clone()), TermId(id as u32));
        }
        assert_eq!(i.slots.len(), MIN_SLOTS, "no growth yet");
        for (id, t) in last.iter().enumerate() {
            assert_eq!(i.get(t), Some(TermId(id as u32)));
        }
        assert_eq!(i.get(&Term::literal("absent")), None);
    }

    #[test]
    fn iter_preserves_order() {
        let mut i = Interner::new();
        i.intern(Term::iri("a"));
        i.intern(Term::iri("b"));
        let collected: Vec<_> = i.iter().map(|(id, _)| id.0).collect();
        assert_eq!(collected, vec![0, 1]);
    }
}
