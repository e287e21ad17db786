//! A slot-reusing arena for per-request state.
//!
//! Discrete-event replays admit and retire requests millions of times per
//! run; keying per-request state by id in a tree map pays an allocation
//! per admission and a pointer chase per touch. [`Slab`] instead hands out
//! dense slot indices from a free list: admission reuses a retired
//! request's slot (no allocation once the high-water mark is reached) and
//! lookups are direct indexing. For a fixed sequence of `insert`/`remove`
//! calls the assigned slots are fully reproducible (the free list is LIFO),
//! which keeps arena-order KV growth byte-deterministic.

/// A slot-reusing arena: `insert` returns a stable index and `remove`
/// recycles it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<usize>,
}

impl<T> Slab<T> {
    /// An empty arena.
    pub(crate) fn new() -> Self {
        Self { slots: Vec::new(), free: Vec::new() }
    }

    /// Stores `value`, returning its slot. Freed slots are reused
    /// (most-recently-freed first) before the arena grows.
    pub(crate) fn insert(&mut self, value: T) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(value);
                slot
            }
            None => {
                self.slots.push(Some(value));
                self.slots.len() - 1
            }
        }
    }

    /// Removes and returns the value at `slot` (`None` if vacant or out of
    /// range).
    pub(crate) fn remove(&mut self, slot: usize) -> Option<T> {
        let value = self.slots.get_mut(slot)?.take()?;
        self.free.push(slot);
        Some(value)
    }

    /// Mutable access to the value at `slot`, if occupied.
    pub(crate) fn get_mut(&mut self, slot: usize) -> Option<&mut T> {
        self.slots.get_mut(slot)?.as_mut()
    }

    /// Slots allocated so far (occupied + free), the arena's high-water
    /// mark.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_reuse_is_lifo_and_deterministic() {
        let mut s: Slab<u32> = Slab::new();
        let a = s.insert(1);
        let b = s.insert(2);
        let c = s.insert(3);
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(s.remove(b), Some(2));
        assert_eq!(s.remove(a), Some(1));
        // Most-recently-freed first: a's slot, then b's.
        assert_eq!(s.insert(4), a);
        assert_eq!(s.insert(5), b);
        assert_eq!(s.capacity(), 3, "no growth past the high-water mark");
    }

    #[test]
    fn remove_vacant_or_out_of_range_is_none() {
        let mut s: Slab<u8> = Slab::new();
        let a = s.insert(9);
        assert_eq!(s.remove(a), Some(9));
        assert_eq!(s.remove(a), None, "double remove");
        assert_eq!(s.remove(99), None, "out of range");
        assert_eq!(s.get_mut(a), None);
    }
}
