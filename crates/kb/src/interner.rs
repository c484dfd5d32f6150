//! A simple string interner.
//!
//! The knowledge base interns three string families: entity names,
//! entity-type names, and relationship labels. Interning turns string
//! comparisons in the hot enumeration loops into `u32` comparisons and
//! deduplicates the (heavily repeated) label strings.
//!
//! The strings are stored end to end in one buffer, and an
//! open-addressing table maps each string's hash to its id. Every
//! interner hashes with SipHash under keys of its own (std
//! `RandomState`): names and labels come from outside input, and a fixed
//! hash would let a crafted file pile its strings into one probe run.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Marks a free slot of the table.
const FREE: u32 = u32::MAX;

/// Append-only string interner with stable `u32` ids.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    /// Every string, end to end, in id order.
    text: String,
    /// Where each string ends in `text`; each starts where the one
    /// before it ends. The text stays within `u32` offsets.
    ends: Vec<u32>,
    /// A power-of-two number of slots, at most half of them used.
    slots: Vec<Slot>,
    hasher: RandomState,
}

/// A used slot holds a string's id and the low half of its hash. That
/// half places the string (in the table and again when it grows) and
/// rules out most other strings without reading them.
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: u32,
    hash: u32,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty interner that hashes as this one does, so one
    /// [`Interner::hash`] serves lookups in both.
    pub(crate) fn with_same_hasher(&self) -> Interner {
        Interner { hasher: self.hasher.clone(), ..Interner::default() }
    }

    /// Interns `s`, returning its id. Repeated calls with equal strings
    /// return the same id.
    pub fn intern(&mut self, s: &str) -> u32 {
        self.intern_hashed(s, self.hash(s))
    }

    /// [`Interner::intern`] with `s`'s [`Interner::hash`] given.
    pub(crate) fn intern_hashed(&mut self, s: &str, hash: u64) -> u32 {
        self.reserve(1);
        match self.find(s, hash) {
            Ok(id) => id,
            Err(free) => {
                let id = self.ends.len() as u32;
                assert!(id != FREE, "interner is full");
                let end = u32::try_from(self.text.len() + s.len()).expect("interner text is full");
                self.text.push_str(s);
                self.ends.push(end);
                self.slots[free] = Slot { id, hash: hash as u32 };
                id
            }
        }
    }

    /// Returns the id of `s` if it has been interned.
    pub fn get(&self, s: &str) -> Option<u32> {
        self.get_hashed(s, self.hash(s))
    }

    /// [`Interner::get`] with `s`'s [`Interner::hash`] given.
    pub(crate) fn get_hashed(&self, s: &str, hash: u64) -> Option<u32> {
        self.find(s, hash).ok()
    }

    /// The hash this interner files `s` under.
    pub(crate) fn hash(&self, s: &str) -> u64 {
        self.hasher.hash_one(s)
    }

    /// The slot of `s`: its id, or else the free slot that ends its
    /// probe run (the table must have one).
    fn find(&self, s: &str, hash: u64) -> Result<u32, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut at = hash as u32 as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot.id == FREE {
                return Err(at);
            }
            if slot.hash == hash as u32 && self.resolve(slot.id) == s {
                return Ok(slot.id);
            }
            at = (at + 1) & mask;
        }
    }

    /// Makes room for `additional` more strings without the table
    /// growing.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let wanted = (self.len() + additional).saturating_mul(2);
        if wanted <= self.slots.len() {
            return;
        }
        let size = wanted.next_power_of_two().max(16);
        let old = std::mem::replace(&mut self.slots, vec![Slot { id: FREE, hash: 0 }; size]);
        self.ends.reserve(additional);
        for slot in old.into_iter().filter(|s| s.id != FREE) {
            let mut at = slot.hash as usize & (size - 1);
            while self.slots[at].id != FREE {
                at = (at + 1) & (size - 1);
            }
            self.slots[at] = slot;
        }
    }

    /// Sizes the string storage to its length.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.text.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// Heap bytes held: the strings' text, where each ends, and the table.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.text.capacity()
            + self.ends.capacity() * std::mem::size_of::<u32>()
            + self.slots.capacity() * std::mem::size_of::<Slot>()
    }

    /// The string storage's capacity and length, in bytes and strings.
    #[cfg(test)]
    pub(crate) fn storage(&self) -> [(usize, usize); 2] {
        [(self.text.capacity(), self.text.len()), (self.ends.capacity(), self.ends.len())]
    }

    /// Resolves an id back to its string. Panics on out-of-range ids, which
    /// indicate a logic error (ids are only ever produced by this interner).
    pub fn resolve(&self, id: u32) -> &str {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] as usize };
        &self.text[start..self.ends[id] as usize]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates over `(id, string)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        (0..self.len() as u32).map(|id| (id, self.resolve(id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_returns_stable_ids() {
        let mut i = Interner::new();
        let a = i.intern("starring");
        let b = i.intern("spouse");
        let a2 = i.intern("starring");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "starring");
        assert_eq!(i.resolve(b), "spouse");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn get_without_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        let id = i.intern("x");
        assert_eq!(i.get("x"), Some(id));
    }

    #[test]
    fn iter_in_id_order() {
        let mut i = Interner::new();
        i.intern("a");
        i.intern("b");
        i.intern("c");
        let collected: Vec<_> = i.iter().map(|(id, s)| (id, s.to_string())).collect();
        assert_eq!(
            collected,
            vec![(0, "a".to_string()), (1, "b".to_string()), (2, "c".to_string())]
        );
    }

    #[test]
    fn empty_interner() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
        assert_eq!(i.get(""), None);
    }

    /// Through many table growths every string keeps its id, the empty
    /// string included, and strings that are prefixes of one another
    /// stay apart.
    #[test]
    fn ids_survive_growth() {
        let mut i = Interner::new();
        let words: Vec<String> = (0..5000).map(|n| "x".repeat(n % 7) + &n.to_string()).collect();
        let empty = i.intern("");
        let ids: Vec<u32> = words.iter().map(|w| i.intern(w)).collect();
        assert_eq!(i.len(), words.len() + 1);
        assert_eq!(i.get(""), Some(empty));
        for (w, &id) in words.iter().zip(&ids) {
            assert_eq!(i.get(w), Some(id));
            assert_eq!(i.resolve(id), w);
            assert_eq!(i.intern(w), id);
        }
        assert_eq!(i.get("x"), None);
        let same = i.with_same_hasher();
        assert!(same.is_empty());
        assert_eq!(same.hash("x1"), i.hash("x1"));
    }
}
