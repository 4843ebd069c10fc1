//! Virtual-to-real ID tables with pluggable backends.
//!
//! The table is the heart of process virtualization (paper §II-C, ref
//! [16]): the application holds virtual IDs, MANA holds the mapping, and a
//! restart rebinds virtual IDs to fresh real objects without touching
//! application memory. Paper §III-I(1) observes that the *backend* of this
//! table matters — the original MANA used `std::map` (ordered tree) plus
//! occasional linear searches, and the fix is a hash table. All three
//! backends are implemented here so the `ablation_vtable` bench can
//! measure the claim.

use crate::fxhash::FxHashMap;
use std::cell::Cell;
use std::collections::BTreeMap;

/// Lookup-structure choice for virtual-ID tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VtBackend {
    /// Linear scan of a vector — the "in some cases, a linear search"
    /// behaviour called out in §III-I(1).
    Linear,
    /// Ordered tree (`std::map` in the original MANA; `BTreeMap` here).
    BTree,
    /// Hash array (the MANA-2.0 recommendation).
    FxHash,
}

enum Store<R> {
    Linear(Vec<(u64, R)>),
    BTree(BTreeMap<u64, R>),
    Fx(FxHashMap<u64, R>),
}

/// A virtual→real mapping with ID allocation and operation counters.
pub struct VirtualTable<R> {
    store: Store<R>,
    next_id: u64,
    lookups: Cell<u64>,
    inserts: u64,
    removes: u64,
}

impl<R> VirtualTable<R> {
    /// Empty table. `first_id` is the first virtual ID to allocate (virtual
    /// IDs 0 and 1 are reserved for NULL and WORLD in the comm table).
    pub fn new(backend: VtBackend, first_id: u64) -> Self {
        VirtualTable {
            store: match backend {
                VtBackend::Linear => Store::Linear(Vec::new()),
                VtBackend::BTree => Store::BTree(BTreeMap::new()),
                VtBackend::FxHash => Store::Fx(FxHashMap::default()),
            },
            next_id: first_id,
            lookups: Cell::new(0),
            inserts: 0,
            removes: 0,
        }
    }

    /// The backend in use.
    pub fn backend(&self) -> VtBackend {
        match self.store {
            Store::Linear(_) => VtBackend::Linear,
            Store::BTree(_) => VtBackend::BTree,
            Store::Fx(_) => VtBackend::FxHash,
        }
    }

    /// Allocate a fresh virtual ID bound to `real`.
    pub fn insert(&mut self, real: R) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.bind(id, real);
        id
    }

    /// Bind (or rebind) an explicit virtual ID. Used at restart, where the
    /// virtual IDs from the image must be preserved while the real side is
    /// fresh.
    pub fn bind(&mut self, vid: u64, real: R) {
        self.inserts += 1;
        if vid >= self.next_id {
            self.next_id = vid + 1;
        }
        match &mut self.store {
            Store::Linear(v) => match v.iter_mut().find(|(k, _)| *k == vid) {
                Some(slot) => slot.1 = real,
                None => v.push((vid, real)),
            },
            Store::BTree(m) => {
                m.insert(vid, real);
            }
            Store::Fx(m) => {
                m.insert(vid, real);
            }
        }
    }

    /// Never allocate `vid` or anything below it: every virtual ID a
    /// restarted rank's image says was once issued stays retired, so a
    /// stale handle in application memory fails its lookup instead of
    /// aliasing a new object.
    pub fn reserve_through(&mut self, vid: u64) {
        self.next_id = self.next_id.max(vid + 1);
    }

    /// Translate a virtual ID to its real object.
    pub fn lookup(&self, vid: u64) -> Option<&R> {
        self.lookups.set(self.lookups.get() + 1);
        match &self.store {
            Store::Linear(v) => v.iter().find(|(k, _)| *k == vid).map(|(_, r)| r),
            Store::BTree(m) => m.get(&vid),
            Store::Fx(m) => m.get(&vid),
        }
    }

    /// Mutable translation.
    pub fn lookup_mut(&mut self, vid: u64) -> Option<&mut R> {
        self.lookups.set(self.lookups.get() + 1);
        match &mut self.store {
            Store::Linear(v) => v.iter_mut().find(|(k, _)| *k == vid).map(|(_, r)| r),
            Store::BTree(m) => m.get_mut(&vid),
            Store::Fx(m) => m.get_mut(&vid),
        }
    }

    /// Remove a binding (garbage collection / retirement).
    pub fn remove(&mut self, vid: u64) -> Option<R> {
        self.removes += 1;
        match &mut self.store {
            Store::Linear(v) => v
                .iter()
                .position(|(k, _)| *k == vid)
                .map(|i| v.swap_remove(i).1),
            Store::BTree(m) => m.remove(&vid),
            Store::Fx(m) => m.remove(&vid),
        }
    }

    /// Number of live bindings. Paper §III-A: unbounded growth here is the
    /// symptom the two-step retirement algorithm exists to prevent.
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Linear(v) => v.len(),
            Store::BTree(m) => m.len(),
            Store::Fx(m) => m.len(),
        }
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate bindings in unspecified order.
    pub fn iter(&self) -> Box<dyn Iterator<Item = (u64, &R)> + '_> {
        match &self.store {
            Store::Linear(v) => Box::new(v.iter().map(|(k, r)| (*k, r))),
            Store::BTree(m) => Box::new(m.iter().map(|(k, r)| (*k, r))),
            Store::Fx(m) => Box::new(m.iter().map(|(k, r)| (*k, r))),
        }
    }

    /// Virtual IDs in ascending order (deterministic serialization).
    pub fn sorted_vids(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.iter().map(|(k, _)| k).collect();
        v.sort_unstable();
        v
    }

    /// (lookups, inserts, removes) performed so far.
    pub fn op_counts(&self) -> (u64, u64, u64) {
        (self.lookups.get(), self.inserts, self.removes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backends() -> [VtBackend; 3] {
        [VtBackend::Linear, VtBackend::BTree, VtBackend::FxHash]
    }

    #[test]
    fn insert_lookup_remove_all_backends() {
        for b in backends() {
            let mut t: VirtualTable<String> = VirtualTable::new(b, 2);
            let a = t.insert("alpha".into());
            let c = t.insert("beta".into());
            assert_eq!(a, 2);
            assert_eq!(c, 3);
            assert_eq!(t.lookup(a).unwrap(), "alpha");
            assert_eq!(t.lookup(c).unwrap(), "beta");
            assert!(t.lookup(99).is_none());
            assert_eq!(t.remove(a).unwrap(), "alpha");
            assert!(t.lookup(a).is_none());
            assert_eq!(t.len(), 1);
            assert_eq!(t.backend(), b);
        }
    }

    #[test]
    fn bind_rebinds_and_bumps_allocator() {
        for b in backends() {
            let mut t: VirtualTable<u64> = VirtualTable::new(b, 2);
            t.bind(10, 100);
            assert_eq!(*t.lookup(10).unwrap(), 100);
            t.bind(10, 200); // rebind (restart path)
            assert_eq!(*t.lookup(10).unwrap(), 200);
            assert_eq!(t.len(), 1);
            // Allocator must not re-issue 10.
            let fresh = t.insert(300);
            assert_eq!(fresh, 11);
        }
    }

    #[test]
    fn reserve_through_retires_ids_without_binding_them() {
        for b in backends() {
            let mut t: VirtualTable<u64> = VirtualTable::new(b, 1);
            t.reserve_through(7);
            assert!(t.is_empty());
            assert_eq!(t.op_counts(), (0, 0, 0), "no placeholder bind/remove");
            assert_eq!(t.insert(1), 8);
            t.reserve_through(3); // never moves the allocator backwards
            assert_eq!(t.insert(2), 9);
        }
    }

    #[test]
    fn lookup_mut_updates_in_place() {
        for b in backends() {
            let mut t: VirtualTable<u64> = VirtualTable::new(b, 0);
            let id = t.insert(5);
            *t.lookup_mut(id).unwrap() = 6;
            assert_eq!(*t.lookup(id).unwrap(), 6);
        }
    }

    #[test]
    fn sorted_vids_deterministic() {
        for b in backends() {
            let mut t: VirtualTable<u8> = VirtualTable::new(b, 0);
            for i in 0..10 {
                t.insert(i);
            }
            t.remove(3);
            assert_eq!(t.sorted_vids(), vec![0, 1, 2, 4, 5, 6, 7, 8, 9]);
        }
    }

    #[test]
    fn op_counters() {
        let mut t: VirtualTable<u8> = VirtualTable::new(VtBackend::FxHash, 0);
        let id = t.insert(1);
        t.lookup(id);
        t.lookup(id);
        t.remove(id);
        assert_eq!(t.op_counts(), (2, 1, 1));
    }

    #[test]
    fn backends_agree_under_mixed_ops() {
        // Differential test: all three backends must behave identically.
        let mut tables: Vec<VirtualTable<u64>> = backends()
            .into_iter()
            .map(|b| VirtualTable::new(b, 2))
            .collect();
        let mut ids = Vec::new();
        for i in 0..200u64 {
            let new_ids: Vec<u64> = tables.iter_mut().map(|t| t.insert(i * 7)).collect();
            assert!(new_ids.windows(2).all(|w| w[0] == w[1]));
            ids.push(new_ids[0]);
            if i % 3 == 0 {
                let victim = ids[(i as usize * 5) % ids.len()];
                let removed: Vec<Option<u64>> =
                    tables.iter_mut().map(|t| t.remove(victim)).collect();
                assert!(removed.windows(2).all(|w| w[0] == w[1]));
            }
        }
        let lens: Vec<usize> = tables.iter().map(|t| t.len()).collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]));
        let vids: Vec<Vec<u64>> = tables.iter().map(|t| t.sorted_vids()).collect();
        assert_eq!(vids[0], vids[1]);
        assert_eq!(vids[1], vids[2]);
    }
}
