//! The admission queue shared by the offline replays and the serving step.
//!
//! §5.2 admission looks at a prefix of the waiting queue: the batch the
//! [`DynamicAdjuster`] picks plus at most its lookahead window. The queue
//! is therefore a vector with a head index: the adjuster reads lengths in
//! place, and removing an admitted batch shifts only the survivors in
//! front of its last member, so one admission costs O(last admitted index)
//! however long the queue is.

use exegpt::DynamicAdjuster;
use exegpt_workload::TimedRequest;

use crate::error::RunError;
use crate::kv::{KvSlot, KvTracker};

/// A FIFO of waiting requests (front = oldest) with §5.2 admission.
///
/// # Example
///
/// ```
/// use exegpt::DynamicAdjuster;
/// use exegpt_runner::{AdmissionQueue, KvTracker, ReservePolicy};
/// use exegpt_workload::{Request, TimedRequest};
///
/// let mut queue: AdmissionQueue = [100, 100, 400, 50]
///     .into_iter()
///     .zip(0u64..)
///     .map(|(input_len, id)| TimedRequest {
///         request: Request { id, input_len, output_len: 8 },
///         arrival: 0.0,
///     })
///     .collect();
/// let adjuster = DynamicAdjuster::new(2, 100.0, 0.1);
/// let mut kv = KvTracker::new(1.0, 10_000, ReservePolicy::Incremental);
/// let mut admitted = Vec::new();
/// queue.admit(queue.len(), &adjuster, 0, 0, &mut kv, &mut admitted);
/// // The first two fill the 200-token budget; the rest keep their places.
/// assert_eq!(admitted.len(), 2);
/// assert_eq!(queue.front().map(|r| r.request.id), Some(2));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdmissionQueue {
    /// `items[head..]` is the queue; `items[..head]` are admitted leftovers
    /// reclaimed by [`push`](Self::push).
    items: Vec<TimedRequest>,
    head: usize,
    /// The adjuster's selection, reused across admissions.
    selected: Vec<usize>,
}

impl AdmissionQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of waiting requests.
    pub fn len(&self) -> usize {
        self.items.len() - self.head
    }

    /// Whether no request is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The oldest waiting request.
    pub fn front(&self) -> Option<&TimedRequest> {
        self.items.get(self.head)
    }

    /// Appends a request at the back. Space left by admitted requests is
    /// reclaimed once it is at least as large as the queue (so pushes stay
    /// amortised O(1)) and before the vector would grow (so the queue holds
    /// no more memory than a compacted one would).
    pub fn push(&mut self, req: TimedRequest) {
        let full = self.items.len() == self.items.capacity();
        if self.head > 0 && (full || self.head >= self.len()) {
            self.items.drain(..self.head);
            self.head = 0;
        }
        self.items.push(req);
    }

    /// How many requests at the front have arrived by time `t`, for a
    /// queue kept in arrival order.
    pub fn arrived_by(&self, t: f64) -> usize {
        self.items[self.head..].partition_point(|r| r.arrival <= t)
    }

    /// Removes and returns every waiting request, oldest first.
    pub fn take_all(&mut self) -> Vec<TimedRequest> {
        let mut items = std::mem::take(&mut self.items);
        items.drain(..std::mem::take(&mut self.head));
        items
    }

    /// One §5.2 admission over the first `admissible` waiting requests
    /// (capped at [`len`](Self::len)): `adjuster` picks a batch for a pool
    /// of `pool_len` queries scheduled at `scheduled_b_d`, and the picks
    /// are admitted into `kv` in queue order until the first one that does
    /// not fit. `admitted` is cleared and receives each admitted request
    /// with its KV handle; those requests leave the queue and the rest
    /// keep their FIFO order.
    pub fn admit(
        &mut self,
        admissible: usize,
        adjuster: &DynamicAdjuster,
        pool_len: usize,
        scheduled_b_d: usize,
        kv: &mut KvTracker,
        admitted: &mut Vec<(TimedRequest, KvSlot)>,
    ) {
        admitted.clear();
        let waiting = &self.items[self.head..];
        adjuster.select_batch_by(
            admissible.min(waiting.len()),
            |i| waiting[i].request.input_len,
            pool_len,
            scheduled_b_d,
            &mut self.selected,
        );
        for &i in &self.selected {
            let req = waiting[i];
            match kv.try_admit(req.request.id, req.request.input_len, 0) {
                Some(slot) => admitted.push((req, slot)),
                None => break, // cache full: stop admitting this phase
            }
        }
        // Close the gaps the admitted requests leave: the survivors between
        // two taken indices shift back by the number of taken ones after
        // them, moved from the back so no survivor is overwritten.
        let taken = &self.selected[..admitted.len()];
        for (m, &end) in taken.iter().enumerate().rev() {
            let start = if m == 0 { 0 } else { taken[m - 1] + 1 };
            let shift = taken.len() - m;
            self.items.copy_within(self.head + start..self.head + end, self.head + start + shift);
        }
        self.head += taken.len();
    }

    /// The error for a queue whose front can never be admitted: it does
    /// not fit in the KV cache even with nothing else resident.
    pub fn stalled(&self) -> RunError {
        let why = match self.front() {
            Some(r) => format!(
                "query {} ({} input tokens) cannot fit in the kv cache",
                r.request.id, r.request.input_len
            ),
            None => "nothing to admit".into(),
        };
        RunError::Stalled { why }
    }
}

impl FromIterator<TimedRequest> for AdmissionQueue {
    fn from_iter<I: IntoIterator<Item = TimedRequest>>(iter: I) -> Self {
        Self { items: iter.into_iter().collect(), ..Self::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::ReservePolicy;
    use exegpt_workload::Request;

    fn queue(lens: &[usize]) -> AdmissionQueue {
        lens.iter()
            .zip(0u64..)
            .map(|(&input_len, id)| TimedRequest {
                request: Request { id, input_len, output_len: 4 },
                arrival: id as f64,
            })
            .collect()
    }

    fn ids(q: &AdmissionQueue) -> Vec<u64> {
        q.items[q.head..].iter().map(|r| r.request.id).collect()
    }

    #[test]
    fn lookahead_pick_then_kv_full_keeps_fifo_and_conserves() {
        // Greedy takes 0 and 1 (300 tokens); 2 and 3 overshoot the 440 cap
        // and the lookahead picks 4 (90 tokens), then 6.
        let mut q = queue(&[150, 150, 400, 400, 90, 300, 40, 500]);
        let adj = DynamicAdjuster::new(4, 100.0, 0.1);
        let mut chosen = Vec::new();
        let lens: Vec<usize> = q.items.iter().map(|r| r.request.input_len).collect();
        adj.select_batch_into(&lens, 0, 0, &mut chosen);
        assert_eq!(chosen, vec![0, 1, 4, 6]);
        // Room for 0, 1 and 4 only: admission stops at 6.
        let mut kv = KvTracker::new(1.0, 400, ReservePolicy::Incremental);
        let mut admitted = Vec::new();
        q.admit(q.len(), &adj, 0, 0, &mut kv, &mut admitted);
        let got: Vec<u64> = admitted.iter().map(|(r, _)| r.request.id).collect();
        assert_eq!(got, vec![0, 1, 4]);
        assert_eq!(ids(&q), vec![2, 3, 5, 6, 7], "survivors keep FIFO order");
        assert_eq!(kv.resident(), 3);
        for (r, slot) in &admitted {
            assert!(kv.grow_slot(*slot, 0), "handle of {} is live", r.request.id);
        }
    }

    #[test]
    fn admission_reads_only_the_admissible_prefix() {
        let mut q = queue(&[10, 10, 10, 10]);
        let adj = DynamicAdjuster::new(8, 10.0, 0.0);
        let mut kv = KvTracker::new(1.0, 1000, ReservePolicy::Incremental);
        let mut admitted = Vec::new();
        assert_eq!(q.arrived_by(1.5), 2);
        q.admit(q.arrived_by(1.5), &adj, 0, 0, &mut kv, &mut admitted);
        assert_eq!(admitted.len(), 2);
        assert_eq!(ids(&q), vec![2, 3]);
        assert_eq!(q.arrived_by(1.5), 0);
        assert_eq!(q.front().map(|r| r.arrival), Some(2.0));
    }

    #[test]
    fn repeated_admissions_conserve_requests_in_order() {
        let lens: Vec<usize> = (0..300).map(|i| 20 + (i * 37) % 180).collect();
        let mut q = queue(&lens);
        let adj = DynamicAdjuster::new(6, 100.0, 0.15);
        let mut kv = KvTracker::new(1.0, 2_000, ReservePolicy::Incremental);
        let mut admitted = Vec::new();
        let mut seen = Vec::new();
        while !q.is_empty() {
            let before = ids(&q);
            q.admit(q.len(), &adj, 0, 0, &mut kv, &mut admitted);
            assert!(!admitted.is_empty(), "an empty cache admits something");
            let taken: Vec<u64> = admitted.iter().map(|(r, _)| r.request.id).collect();
            let rest: Vec<u64> = before.iter().copied().filter(|id| !taken.contains(id)).collect();
            assert_eq!(ids(&q), rest, "survivors keep FIFO order");
            for &(_, slot) in &admitted {
                kv.release(slot);
            }
            seen.extend(taken);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..300).collect::<Vec<u64>>(), "every request admitted once");
    }

    #[test]
    fn push_reclaims_admitted_space_and_take_all_drains() {
        let mut q = queue(&[10, 10, 10]);
        let adj = DynamicAdjuster::new(2, 10.0, 0.0);
        let mut kv = KvTracker::new(1.0, 1000, ReservePolicy::Incremental);
        let mut admitted = Vec::new();
        q.admit(q.len(), &adj, 0, 0, &mut kv, &mut admitted);
        assert_eq!(ids(&q), vec![2]);
        q.push(queue(&[5; 4]).items[3]);
        assert_eq!(q.head, 0, "space of the two admitted requests reclaimed");
        assert_eq!(ids(&q), vec![2, 3]);
        let all: Vec<u64> = q.take_all().iter().map(|r| r.request.id).collect();
        assert_eq!(all, vec![2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn push_reclaims_admitted_space_before_growing() {
        let mut q = queue(&[10, 500, 500, 500]);
        let adj = DynamicAdjuster::new(1, 10.0, 0.0);
        let mut kv = KvTracker::new(1.0, 1000, ReservePolicy::Incremental);
        let mut admitted = Vec::new();
        q.admit(q.len(), &adj, 0, 0, &mut kv, &mut admitted);
        assert_eq!((admitted.len(), q.head), (1, 1));
        let extra = q.items[3];
        while q.items.len() < q.items.capacity() {
            q.push(extra);
        }
        let (capacity, waiting) = (q.items.capacity(), q.len());
        q.push(extra);
        assert_eq!(q.head, 0, "the admitted slot is reclaimed");
        assert_eq!(q.items.capacity(), capacity, "instead of growing the vector");
        assert_eq!(q.len(), waiting + 1);
        assert_eq!(q.front().map(|r| r.request.id), Some(1));
    }

    #[test]
    fn stalled_names_the_front_request() {
        let q = queue(&[7]);
        assert!(q.stalled().to_string().contains("query 0 (7 input tokens)"));
    }
}
