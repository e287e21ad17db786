//! Key/value-cache accounting under the three disciplines that
//! differentiate the evaluated systems (paper §2, §3).
//!
//! * [`ReservePolicy::UpFront`] — FasterTransformer/DSI: a query reserves
//!   cache for its input plus the *maximum* output length at admission, and
//!   nothing is reclaimed before the whole batch finishes.
//! * [`ReservePolicy::Incremental`] — ExeGPT/ORCA: a query reserves its
//!   input at admission and one token per decoding iteration; early
//!   termination releases (compacts) its entries immediately.
//! * [`ReservePolicy::Paged`] — vLLM: like incremental, but space is
//!   granted in fixed-size pages, wasting at most one partial page per
//!   query.

use crate::slab::Slab;

/// Cache reservation discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReservePolicy {
    /// Reserve `input + max_output` tokens at admission (FT/DSI).
    UpFront,
    /// Reserve exactly the tokens held, grow per iteration (ExeGPT/ORCA).
    Incremental,
    /// Incremental, rounded up to pages of the given token count (vLLM).
    Paged {
        /// Tokens per page (vLLM's default block size is 16).
        page_tokens: usize,
    },
}

/// Tracks KV-cache bytes on the most loaded GPU of a deployment.
///
/// The tracker works in *tokens × bytes-per-token* on the bottleneck GPU
/// (the stage holding the most layers, divided by its tensor-parallel
/// degree) — the GPU whose capacity constrains the whole schedule.
///
/// # Example
///
/// ```
/// use exegpt_runner::{KvTracker, ReservePolicy};
///
/// let mut kv = KvTracker::new(1000.0, 1_000_000, ReservePolicy::Incremental);
/// let slot = kv.try_admit(1, 100, 0).expect("fits");
/// assert!(kv.grow_slot(slot, 1));
/// assert!(kv.grow_slot(slot, 1), "the handle keeps reaching its entry");
/// kv.release(slot);
/// assert_eq!(kv.used_bytes(), 0);
/// assert!(kv.peak_bytes() > 0);
/// assert!(!kv.grow_slot(slot, 1), "a released handle reaches nothing");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KvTracker {
    bytes_per_token: f64,
    capacity_bytes: u64,
    policy: ReservePolicy,
    /// Per-admission entries in a slot-reusing arena, reached only through
    /// the [`KvSlot`] each admission returns: admissions recycle the slots
    /// of released entries instead of allocating.
    entries: Slab<KvEntry>,
    used_bytes: u64,
    peak_bytes: u64,
    /// Tokens clamped at capacity by
    /// [`grow_slot_or_clamp`](Self::grow_slot_or_clamp).
    clamped_tokens: u64,
    /// Bytes one more token adds to an entry, when that is the same for
    /// every entry: the incremental policy at integral bytes per token.
    /// Only then can a decode pool grow in closed form.
    token_bytes: Option<u64>,
    /// Tokens granted so far to every pooled entry at once by
    /// [`grow_pooled`](Self::grow_pooled).
    epoch: u64,
}

/// One resident query's reservation.
#[derive(Debug, Clone, PartialEq)]
struct KvEntry {
    id: u64,
    held: usize,
    /// `Some(e)` once the entry joined a decode pool at epoch `e`: it also
    /// holds every token granted since, `epoch - e` of them.
    pooled_at: Option<u64>,
}

impl KvEntry {
    /// Tokens held, with the pooled growth granted since `pooled_at`.
    fn held_at(&self, epoch: u64) -> usize {
        self.held + self.pooled_at.map_or(0, |e| (epoch - e) as usize)
    }
}

/// Handle to a resident query's entry, returned at admission: the only way
/// to reach the entry, by indexing the arena directly. Once its entry is
/// released the handle reaches nothing, even after another query reuses
/// the slot (the handle carries its query's id). Handles order by arena
/// index, the order in which an arena sweep visits their entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct KvSlot {
    slot: usize,
    id: u64,
}

impl KvSlot {
    /// The entry's arena index, unique among resident queries.
    pub(crate) fn index(self) -> usize {
        self.slot
    }
}

impl KvTracker {
    /// Creates a tracker with `bytes_per_token` per cached token on the
    /// bottleneck GPU and `capacity_bytes` available for KV entries.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_token` is not positive.
    pub fn new(bytes_per_token: f64, capacity_bytes: u64, policy: ReservePolicy) -> Self {
        assert!(bytes_per_token > 0.0, "bytes per token must be positive");
        let whole = bytes_per_token as u64;
        let integral = (whole as f64).to_bits() == bytes_per_token.to_bits();
        Self {
            bytes_per_token,
            capacity_bytes,
            policy,
            entries: Slab::new(),
            used_bytes: 0,
            peak_bytes: 0,
            clamped_tokens: 0,
            token_bytes: (policy == ReservePolicy::Incremental && integral).then_some(whole),
            epoch: 0,
        }
    }

    /// Stores a new entry for `id` holding `held` tokens. Every admission
    /// is an entry of its own, even of an id that is already resident.
    fn store(&mut self, id: u64, held: usize) -> KvSlot {
        let slot = self.entries.insert(KvEntry { id, held, pooled_at: None });
        KvSlot { slot, id }
    }

    /// Bytes reserved for a query holding `held` tokens.
    fn entry_bytes(&self, held: usize) -> u64 {
        reserved_bytes(self.bytes_per_token, self.policy, held)
    }

    /// Tries to admit query `id` holding `input_tokens`; `max_output`
    /// matters only for [`ReservePolicy::UpFront`], which reserves it all
    /// immediately. Returns the entry's handle, or `None` (admitting
    /// nothing) on overflow.
    pub fn try_admit(&mut self, id: u64, input_tokens: usize, max_output: usize) -> Option<KvSlot> {
        let held = match self.policy {
            ReservePolicy::UpFront => input_tokens + max_output,
            _ => input_tokens,
        };
        let add = self.entry_bytes(held);
        if self.used_bytes + add > self.capacity_bytes {
            return None;
        }
        let slot = self.store(id, held);
        self.used_bytes += add;
        self.peak_bytes = self.peak_bytes.max(self.used_bytes);
        Some(slot)
    }

    /// Admits query `id` holding `tokens` tokens *without* a capacity
    /// check, used when migrating resident queries into a freshly sized
    /// tracker at a plan swap: evicting mid-flight queries is not an
    /// option, so a swap may transiently over-commit the new plan's
    /// capacity (visible in [`used_bytes`](Self::used_bytes) /
    /// [`peak_bytes`](Self::peak_bytes)); subsequent admissions still go
    /// through [`try_admit`](Self::try_admit) and see the over-commit.
    /// Returns the entry's handle.
    pub fn admit_unchecked(&mut self, id: u64, tokens: usize) -> KvSlot {
        let add = self.entry_bytes(tokens);
        let slot = self.store(id, tokens);
        self.used_bytes += add;
        self.peak_bytes = self.peak_bytes.max(self.used_bytes);
        slot
    }

    /// Grows the entry behind `slot` by `tokens` newly generated tokens,
    /// in place. Under [`ReservePolicy::UpFront`] this is a no-op (space
    /// was pre-reserved). Returns `false` on overflow or for a released
    /// handle (the growth is not applied).
    pub fn grow_slot(&mut self, slot: KvSlot, tokens: usize) -> bool {
        if matches!(self.policy, ReservePolicy::UpFront) {
            return true;
        }
        let (bpt, policy, epoch) = (self.bytes_per_token, self.policy, self.epoch);
        let Some(entry) = self.entries.get_mut(slot.slot).filter(|e| e.id == slot.id) else {
            return false;
        };
        // Fold the pooled growth in before growing the entry alone.
        entry.held = entry.held_at(epoch);
        entry.pooled_at = entry.pooled_at.map(|_| epoch);
        let before = reserved_bytes(bpt, policy, entry.held);
        let after = reserved_bytes(bpt, policy, entry.held + tokens);
        let add = after - before;
        if self.used_bytes + add > self.capacity_bytes {
            return false;
        }
        entry.held += tokens;
        self.used_bytes += add;
        self.peak_bytes = self.peak_bytes.max(self.used_bytes);
        true
    }

    /// [`grow_slot`](Self::grow_slot) for call sites that deliberately
    /// treat a failed growth as clamp-at-capacity: the entry keeps its
    /// current reservation and the clamp is counted in
    /// [`clamped_tokens`](Self::clamped_tokens) instead of being silently
    /// dropped. This is modeled behaviour — the decode loops keep
    /// generating while the KV reservation saturates — not an error. Every
    /// growth that can fail goes through here, so every clamp is counted.
    pub fn grow_slot_or_clamp(&mut self, slot: KvSlot, tokens: usize) {
        if !self.grow_slot(slot, tokens) {
            self.clamped_tokens += tokens as u64;
        }
    }

    /// Tokens whose growth was clamped at capacity (or targeted a retired
    /// query) via [`grow_slot_or_clamp`](Self::grow_slot_or_clamp).
    /// Diagnostic only — never serialized into event logs.
    pub fn clamped_tokens(&self) -> u64 {
        self.clamped_tokens
    }

    /// Marks the entry behind `slot` as a decode-pool member, so
    /// [`grow_pooled`](Self::grow_pooled) grows it from now on.
    pub(crate) fn enroll(&mut self, slot: KvSlot) {
        let epoch = self.epoch;
        if let Some(entry) = self.entries.get_mut(slot.slot).filter(|e| e.id == slot.id) {
            entry.pooled_at = Some(epoch);
        }
    }

    /// Grows each of the `members` enrolled entries by one token in O(1),
    /// when every one of them provably fits: the policy prices a token the
    /// same for every entry and `used + members · token_bytes ≤ capacity`.
    /// Then each growth succeeds in any order, exactly as it would one
    /// entry at a time. The peak is left to the caller (see
    /// [`note_peak`](Self::note_peak)): where the maximum falls depends on
    /// how releases interleave with the growth. Returns the bytes per
    /// token, or `None` — applying nothing — when the caller must grow
    /// entry by entry.
    pub(crate) fn grow_pooled(&mut self, members: usize) -> Option<u64> {
        let b = self.token_bytes?;
        let add = b.checked_mul(members as u64)?;
        if self.used_bytes.checked_add(add)? > self.capacity_bytes {
            return None;
        }
        self.epoch += 1;
        self.used_bytes += add;
        Some(b)
    }

    /// Raises the high-water mark to `bytes`, a state the reservations
    /// passed through.
    pub(crate) fn note_peak(&mut self, bytes: u64) {
        self.peak_bytes = self.peak_bytes.max(bytes);
    }

    /// Releases the entry behind `slot` (early-termination compaction).
    /// A handle already released is ignored, even when another query
    /// reuses its slot.
    pub fn release(&mut self, slot: KvSlot) {
        if self.entries.get_mut(slot.slot).is_some_and(|e| e.id == slot.id) {
            if let Some(entry) = self.entries.remove(slot.slot) {
                let bytes = self.entry_bytes(entry.held_at(self.epoch));
                self.used_bytes = self.used_bytes.saturating_sub(bytes);
            }
        }
    }

    /// Bytes currently reserved.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// High-water mark of reserved bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Number of resident entries.
    pub fn resident(&self) -> usize {
        self.entries.len()
    }

    /// The capacity this tracker enforces.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }
}

/// Bytes reserved for a query holding `held` tokens under `policy`: the
/// policy's reserved-token count (exact, or rounded up to whole pages)
/// converted at `bytes_per_token`. A free function so in-place map updates
/// can price entries while the entry is mutably borrowed.
fn reserved_bytes(bytes_per_token: f64, policy: ReservePolicy, held: usize) -> u64 {
    let reserved = match policy {
        ReservePolicy::UpFront | ReservePolicy::Incremental => held,
        ReservePolicy::Paged { page_tokens } => {
            held.div_ceil(page_tokens.max(1)) * page_tokens.max(1)
        }
    };
    (reserved as f64 * bytes_per_token).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upfront_reserves_max_output() {
        let mut ft = KvTracker::new(10.0, 10_000, ReservePolicy::UpFront);
        let slot = ft.try_admit(1, 100, 400).expect("fits"); // 5000 bytes
        assert!(ft.try_admit(2, 100, 500).is_none()); // would be 6000 more
        assert!(ft.grow_slot(slot, 50), "growth is free under up-front");
        assert_eq!(ft.used_bytes(), 5000);
    }

    #[test]
    fn incremental_grows_per_token() {
        let mut kv = KvTracker::new(10.0, 2_000, ReservePolicy::Incremental);
        let slot = kv.try_admit(1, 100, 999).expect("fits");
        assert_eq!(kv.used_bytes(), 1000);
        assert!(kv.grow_slot(slot, 100));
        assert_eq!(kv.used_bytes(), 2000);
        assert!(!kv.grow_slot(slot, 1), "capacity reached");
        assert_eq!(kv.used_bytes(), 2000, "failed growth is not applied");
    }

    #[test]
    fn release_compacts_and_keeps_peak() {
        let mut kv = KvTracker::new(1.0, 1000, ReservePolicy::Incremental);
        let slot = kv.try_admit(1, 600, 0).expect("fits");
        kv.release(slot);
        assert_eq!(kv.used_bytes(), 0);
        assert_eq!(kv.peak_bytes(), 600);
        let other = kv.try_admit(2, 900, 0).expect("space was reclaimed");
        kv.release(slot); // a released handle is fine, though its slot is reused
        assert_eq!((kv.used_bytes(), kv.resident()), (900, 1));
        kv.release(other);
        assert_eq!((kv.used_bytes(), kv.resident()), (0, 0));
    }

    #[test]
    fn paged_rounds_to_pages() {
        let mut kv = KvTracker::new(1.0, 1000, ReservePolicy::Paged { page_tokens: 16 });
        let slot = kv.try_admit(1, 17, 0).expect("fits"); // 2 pages = 32
        assert_eq!(kv.used_bytes(), 32);
        assert!(kv.grow_slot(slot, 10)); // 27 tokens still 2 pages
        assert_eq!(kv.used_bytes(), 32);
        assert!(kv.grow_slot(slot, 10)); // 37 tokens -> 3 pages
        assert_eq!(kv.used_bytes(), 48);
    }

    #[test]
    fn paged_wastes_less_than_upfront() {
        let cap = 100_000u64;
        let mut up = KvTracker::new(1.0, cap, ReservePolicy::UpFront);
        let mut pg = KvTracker::new(1.0, cap, ReservePolicy::Paged { page_tokens: 16 });
        // Queries with input 100, actual output 20, max output 500.
        let mut up_count = 0;
        let mut pg_count = 0;
        for id in 0..10_000 {
            if up.try_admit(id, 100, 500).is_some() {
                up_count += 1;
            }
            if pg.try_admit(id, 100, 500).is_some_and(|slot| pg.grow_slot(slot, 20)) {
                pg_count += 1;
            }
        }
        // Up-front reserves 600 tokens/query, paging ~128 (8 pages of 16):
        // a ~4.7x capacity advantage.
        assert!(pg_count > 4 * up_count, "paging should fit far more queries");
    }

    #[test]
    fn admit_unchecked_may_overcommit_but_blocks_later_admissions() {
        let mut kv = KvTracker::new(1.0, 100, ReservePolicy::Incremental);
        let slot = kv.admit_unchecked(1, 150); // migration: beyond capacity
        assert_eq!(kv.used_bytes(), 150);
        assert!(kv.try_admit(2, 1, 0).is_none(), "over-commit blocks new admissions");
        kv.release(slot);
        assert!(kv.try_admit(2, 50, 0).is_some(), "normal accounting resumes");
    }

    #[test]
    fn slots_are_recycled_across_admissions() {
        let mut kv = KvTracker::new(1.0, 10_000, ReservePolicy::Incremental);
        let mut slots = Vec::new();
        for round in 0..100u64 {
            slots.clear();
            for i in 0..8 {
                slots.push(kv.try_admit(round * 8 + i, 10, 0).expect("fits"));
            }
            for &slot in &slots {
                kv.release(slot);
            }
        }
        assert_eq!(kv.entries.capacity(), 8, "arena stays at the high-water mark");
        assert_eq!(kv.used_bytes(), 0);
    }

    #[test]
    fn every_admission_is_its_own_entry() {
        let mut kv = KvTracker::new(1.0, 100, ReservePolicy::Incremental);
        let first = kv.try_admit(7, 10, 0).expect("fits");
        let second = kv.try_admit(7, 20, 0).expect("fits");
        assert_eq!((kv.used_bytes(), kv.resident()), (30, 2));
        kv.release(first);
        assert_eq!((kv.used_bytes(), kv.resident()), (20, 1));
        assert!(kv.grow_slot(second, 1), "the other admission of the id stays live");
        kv.release(second);
        assert_eq!((kv.used_bytes(), kv.resident()), (0, 0));
    }

    #[test]
    fn grow_released_handle_fails() {
        let mut kv = KvTracker::new(1.0, 100, ReservePolicy::Incremental);
        let slot = kv.try_admit(9, 10, 0).expect("fits");
        kv.release(slot);
        assert!(!kv.grow_slot(slot, 1));
        assert_eq!(kv.used_bytes(), 0);
    }

    #[test]
    fn grow_slot_or_clamp_counts_clamped_tokens_without_applying_them() {
        let mut kv = KvTracker::new(1.0, 100, ReservePolicy::Incremental);
        let slot = kv.try_admit(1, 99, 0).expect("fits");
        kv.grow_slot_or_clamp(slot, 1); // fits: 100/100
        assert_eq!((kv.used_bytes(), kv.clamped_tokens()), (100, 0));
        kv.grow_slot_or_clamp(slot, 1); // clamped at capacity
        kv.release(slot);
        kv.grow_slot_or_clamp(slot, 3); // a retired query also clamps
        assert_eq!((kv.used_bytes(), kv.clamped_tokens()), (0, 4));
    }

    #[test]
    fn slot_growth_matches_clamped_growth_up_to_capacity() {
        for policy in [
            ReservePolicy::Incremental,
            ReservePolicy::Paged { page_tokens: 16 },
            ReservePolicy::UpFront,
        ] {
            let mut grown = KvTracker::new(1.0, 400, policy);
            let mut clamped = grown.clone();
            let mut slots = Vec::new();
            for id in 0..3 {
                let slot = grown.try_admit(id, 100, 20).expect("fits");
                assert_eq!(clamped.try_admit(id, 100, 20), Some(slot), "{policy:?}");
                slots.push(slot);
            }
            // Enough rounds to saturate the cache and fail every growth.
            let mut failed = 0;
            for _ in 0..60 {
                for &slot in &slots {
                    failed += u64::from(!grown.grow_slot(slot, 1));
                    clamped.grow_slot_or_clamp(slot, 1);
                }
                assert_eq!(
                    (grown.used_bytes(), grown.peak_bytes()),
                    (clamped.used_bytes(), clamped.peak_bytes()),
                    "{policy:?}"
                );
                assert_eq!(clamped.clamped_tokens(), failed, "{policy:?}");
            }
            if policy == ReservePolicy::Incremental {
                assert_eq!(grown.used_bytes(), 400);
                assert_eq!(failed, 3 * 60 - 100);
            }
        }
    }

    #[test]
    fn pooled_growth_is_closed_form_until_capacity() {
        let mut kv = KvTracker::new(2.0, 100, ReservePolicy::Incremental);
        let a = kv.try_admit(1, 10, 0).expect("fits");
        let b = kv.try_admit(2, 20, 0).expect("fits");
        kv.enroll(a);
        kv.enroll(b);
        assert_eq!(kv.grow_pooled(2), Some(2));
        assert_eq!(kv.used_bytes(), 64);
        kv.grow_slot_or_clamp(a, 1); // folds the pooled token in first
        assert_eq!(kv.used_bytes(), 66);
        kv.release(b);
        assert_eq!(kv.used_bytes(), 24, "the released entry held 21 tokens");
        assert_eq!(kv.grow_pooled(39), None, "24 + 39·2 would exceed 100");
        assert_eq!(kv.used_bytes(), 24, "a refused step applies nothing");
        let odd = KvTracker::new(1.5, 100, ReservePolicy::Incremental);
        assert_eq!(odd.token_bytes, None, "fractional bytes per token round per entry");
    }

    #[test]
    fn released_slot_reaches_nothing_even_when_reused() {
        let mut kv = KvTracker::new(1.0, 1000, ReservePolicy::Incremental);
        let old = kv.try_admit(1, 10, 0).expect("fits");
        kv.release(old);
        let new = kv.try_admit(2, 10, 0).expect("fits");
        assert!(!kv.grow_slot(old, 1), "query 1 is gone although its slot is reused");
        kv.grow_slot_or_clamp(old, 1);
        assert_eq!((kv.used_bytes(), kv.clamped_tokens()), (10, 1));
        assert!(kv.grow_slot(new, 1));
        assert_eq!(kv.used_bytes(), 11);
    }

    #[test]
    #[should_panic(expected = "bytes per token")]
    fn zero_bytes_per_token_panics() {
        let _ = KvTracker::new(0.0, 100, ReservePolicy::Incremental);
    }
}
