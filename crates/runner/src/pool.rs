//! The decode pool shared by the RRA and WAA replays and the serve step
//! (DESIGN.md §4b.1).
//!
//! Output lengths are forced (paper §7.1), so a query's last decoding
//! iteration is known when it joins the pool: members are filed on a
//! timing wheel by it, and each iteration takes one bucket, which lists
//! exactly its finishers. An iteration in which nobody finishes is O(1) —
//! token count and context sum grow by the pool size, the KV cache in
//! closed form ([`KvTracker::grow_pooled`]) — and the `k` finishers cost
//! O(k log k), for sorting their positions.
//! The result is bit for bit that of the per-token scan it replaces, whose
//! finished members left through `Vec::swap_remove`: members sit in that
//! scan's order and only the finishers' moves are emulated. Where the
//! closed form does not apply, each entry grows (or clamps) on its own in
//! the replaced code's order.

use std::collections::VecDeque;

use exegpt_workload::{Request, TimedRequest};

use crate::kv::{KvSlot, KvTracker};

/// Where each member's KV growth falls within a decoding iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrowthOrder {
    /// Every member grows first, in KV-arena order, then finished members
    /// release their entries. For RRA decode iterations, where the
    /// resident set is exactly the pool.
    Arena,
    /// Each member grows as the pool scan visits it, and a finished member
    /// releases its entry at once. For WAA rounds, where the encoder
    /// group's fresh admissions are resident but not pooled yet.
    Pool,
}

/// A query that generated its last token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Finished {
    /// The query.
    pub req: Request,
    /// When it arrived.
    pub arrival: f64,
    /// When its encoding started.
    pub t_encoded: f64,
    /// When its first token was generated.
    pub t_first: f64,
}

/// Ends a bucket's list on the timing wheel.
const NIL: u32 = u32::MAX;

/// A member key's entry: the member's position and the next key in its
/// bucket's list. Both fit `u32` because keys do (checked on entry), and a
/// member's position is below the number of keys.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// Position in `members`.
    pos: u32,
    /// The next key in the bucket's list, [`NIL`] at the end.
    next: u32,
}

/// A query in the pool, keyed by its KV arena index (`slot.index()`),
/// which is unique among resident queries.
#[derive(Debug, Clone, Copy)]
struct Member {
    /// What it reports when it finishes (`t_first` set by its first token).
    query: Finished,
    slot: KvSlot,
    /// The iteration generating its last token.
    finish: u64,
}

/// Tokens a query generates: at least one, as the replaced scan finished a
/// query once `progress >= output_len` after a token.
fn output(req: &Request) -> usize {
    req.output_len.max(1)
}

impl Member {
    /// Input plus generated tokens after `iter` iterations.
    fn context(&self, iter: u64) -> usize {
        let req = &self.query.req;
        req.input_len + output(req) - (self.finish - iter) as usize
    }
}

/// The decode pool (see the module docs).
#[derive(Debug, Default)]
pub struct DecodePool {
    /// Members in the replaced scan's order.
    members: Vec<Member>,
    /// Member key → its position and list link.
    links: Vec<Link>,
    /// The timing wheel: bucket `f mod wheel.len()` heads the list of the
    /// members finishing at iteration `f`. Its length is a power of two at
    /// least every member's `finish - iter`, so no bucket holds two
    /// finishing iterations (empty in a default pool until its first
    /// push).
    wheel: Vec<u32>,
    /// Members from this position on have not generated a token yet: they
    /// joined since the last iteration, and joining only appends.
    fresh: usize,
    /// Positions of this iteration's finishers, ascending (and of every
    /// member, in arena order, for arena-order growth).
    due: VecDeque<usize>,
    /// Iterations run.
    iter: u64,
    /// Σ (input + generated tokens) over the members.
    ctx_sum: usize,
    /// Tokens generated.
    tokens: u64,
}

impl DecodePool {
    /// An empty pool with room for `members` queries, and a timing wheel
    /// for outputs of up to `longest_output` tokens, before reallocating.
    pub fn with_capacity(members: usize, longest_output: usize) -> Self {
        Self {
            members: Vec::with_capacity(members),
            links: Vec::with_capacity(members),
            wheel: vec![NIL; longest_output.next_power_of_two()],
            due: VecDeque::with_capacity(members),
            ..Self::default()
        }
    }

    /// Queries in the pool.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Mean context length (input + generated so far) over the non-empty
    /// pool. Every term and partial sum of the context sum is an integer
    /// below 2^53, so this equals an f64 fold over the members bit for bit.
    pub fn mean_context(&self) -> f64 {
        self.ctx_sum as f64 / self.members.len() as f64
    }

    /// Tokens generated by every iteration so far.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Adds an encoded query holding the KV entry behind `slot`, whose
    /// encoding started at `t_encoded`. It generates its first token in the
    /// next [`advance`](Self::advance).
    pub fn push(&mut self, kv: &mut KvTracker, tr: TimedRequest, slot: KvSlot, t_encoded: f64) {
        kv.enroll(slot);
        let out = output(&tr.request);
        let finish = self.iter + out as u64;
        self.index(slot, self.members.len());
        self.ctx_sum += tr.request.input_len;
        let query = Finished { req: tr.request, arrival: tr.arrival, t_encoded, t_first: f64::NAN };
        self.members.push(Member { query, slot, finish });
        if out > self.wheel.len() {
            self.refile(out.next_power_of_two());
        } else {
            self.file(slot, finish);
        }
    }

    /// Keys the member at position `p`, holding `slot`, by its KV arena
    /// index.
    fn index(&mut self, slot: KvSlot, p: usize) {
        let key = slot.index();
        assert!(key < NIL as usize, "an arena index does not fit a wheel link");
        if self.links.len() <= key {
            self.links.resize(key + 1, Link { pos: 0, next: NIL });
        }
        self.links[key].pos = p as u32;
    }

    /// Files the member holding `slot` in the bucket of its finishing
    /// iteration.
    fn file(&mut self, slot: KvSlot, finish: u64) {
        debug_assert!(finish > self.iter, "a member filed at or after its last iteration");
        let bucket = finish as usize & (self.wheel.len() - 1);
        self.links[slot.index()].next = self.wheel[bucket];
        self.wheel[bucket] = slot.index() as u32;
    }

    /// Files every member afresh on an empty wheel of `size` buckets.
    fn refile(&mut self, size: usize) {
        self.wheel.clear();
        self.wheel.resize(size, NIL);
        for p in 0..self.members.len() {
            let m = self.members[p];
            self.file(m.slot, m.finish);
        }
    }

    /// One decoding iteration ending at `t`: every member generates a
    /// token and grows its KV entry in `order`; finished members release
    /// their entries and go to `done` in completion order.
    pub fn advance(
        &mut self,
        kv: &mut KvTracker,
        order: GrowthOrder,
        t: f64,
        mut done: impl FnMut(Finished),
    ) {
        self.iter += 1;
        let n = self.members.len();
        self.tokens += n as u64;
        self.ctx_sum += n;
        for m in &mut self.members[self.fresh..] {
            m.query.t_first = t;
        }
        let grown = kv.grow_pooled(n);
        if grown.is_none() && order == GrowthOrder::Arena {
            self.due.clear();
            self.due.extend(0..n);
            let members = &self.members;
            self.due.make_contiguous().sort_unstable_by_key(|&p| members[p].slot);
            for &p in &self.due {
                kv.grow_slot_or_clamp(self.members[p].slot, 1);
            }
        }
        self.due.clear();
        if n > 0 {
            let bucket = self.iter as usize & (self.wheel.len() - 1);
            let mut key = std::mem::replace(&mut self.wheel[bucket], NIL);
            while key != NIL {
                let link = self.links[key as usize];
                let p = link.pos as usize;
                debug_assert_eq!(self.members[p].finish, self.iter, "a bucket mixed iterations");
                self.due.push_back(p);
                key = link.next;
            }
        }
        self.due.make_contiguous().sort_unstable();
        match (grown, order) {
            (Some(_), GrowthOrder::Arena) => {
                kv.note_peak(kv.used_bytes());
                self.harvest(kv, None, &mut done);
            }
            (Some(b), GrowthOrder::Pool) => {
                self.harvest(kv, Some(b), &mut done);
                kv.note_peak(kv.used_bytes());
            }
            (None, GrowthOrder::Arena) => self.harvest(kv, None, &mut done),
            (None, GrowthOrder::Pool) => self.scan(kv, &mut done),
        }
        self.fresh = self.members.len();
    }

    /// Retires this iteration's finishers in the scan's order. With
    /// `token_bytes` (closed-form growth under [`GrowthOrder::Pool`]) the
    /// peak also notes the state right after each finisher's growth: the
    /// scan's state after its `v + 1` visits, `n - 1 - v` growths below the
    /// all-grown state minus the releases so far.
    fn harvest(
        &mut self,
        kv: &mut KvTracker,
        token_bytes: Option<u64>,
        done: &mut impl FnMut(Finished),
    ) {
        let n = self.members.len();
        let mut removed = 0;
        while let Some(i) = self.due.pop_front() {
            let last = self.members.len() - 1;
            if i != last && self.due.back() == Some(&last) {
                // The last member is a finisher too: it moves into `i` and
                // is visited next.
                self.due.pop_back();
                self.due.push_front(i);
            }
            if let Some(b) = token_bytes {
                // The scan kept `i` members before this one and removed
                // `removed`, all visited.
                let visit = i + removed;
                kv.note_peak(kv.used_bytes() - (n - 1 - visit) as u64 * b);
            }
            done(self.retire(kv, i));
            removed += 1;
        }
    }

    /// The replaced per-token scan itself, growing each member as it is
    /// visited; for [`GrowthOrder::Pool`] when the closed form does not
    /// apply.
    fn scan(&mut self, kv: &mut KvTracker, done: &mut impl FnMut(Finished)) {
        let mut i = 0;
        while i < self.members.len() {
            kv.grow_slot_or_clamp(self.members[i].slot, 1);
            if self.members[i].finish == self.iter {
                done(self.retire(kv, i));
            } else {
                i += 1;
            }
        }
    }

    /// Removes the member at position `i` as `Vec::swap_remove` would and
    /// releases its KV entry.
    fn retire(&mut self, kv: &mut KvTracker, i: usize) -> Finished {
        let m = self.members.swap_remove(i);
        if let Some(moved) = self.members.get(i) {
            self.links[moved.slot.index()].pos = i as u32;
        }
        self.ctx_sum -= m.context(self.iter);
        kv.release(m.slot);
        m.query
    }

    /// Re-admits every member, in pool order, into the fresh tracker `kv`
    /// holding its input plus generated tokens, without a capacity check:
    /// a plan swap migrates live queries rather than evicting them.
    pub fn migrate(&mut self, kv: &mut KvTracker) {
        for p in 0..self.members.len() {
            let m = self.members[p];
            let slot = kv.admit_unchecked(m.query.req.id, m.context(self.iter));
            kv.enroll(slot);
            self.members[p].slot = slot;
            self.index(slot, p);
        }
        // Only now does every member hold its new key.
        self.refile(self.wheel.len());
    }

    /// Empties the pool in pool order, releasing each member's KV entry
    /// and handing its request to `each`.
    pub fn clear(&mut self, kv: &mut KvTracker, mut each: impl FnMut(TimedRequest)) {
        for m in self.members.drain(..) {
            kv.release(m.slot);
            each(TimedRequest { request: m.query.req, arrival: m.query.arrival });
        }
        self.wheel.fill(NIL);
        self.fresh = 0;
        self.ctx_sum = 0;
    }
}
