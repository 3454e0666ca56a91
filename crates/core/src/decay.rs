//! The decay index: sets in ascending profit order without re-scoring them.
//!
//! A set's profit (Eq. 2 with the Eq. 3 rate) is `w / (now − t_K)` with the
//! *weight* `w = samples·cost/size` and `t_K` its oldest retained reference.
//! It changes at every decision, but between two references of the set it
//! only decays, and it decays along a curve two numbers describe.  The index
//! files each set under a **bucket** — its Figure 1 sample-count group and
//! the top bits of `w` — and inside the bucket by an **anchor** time, at
//! first `t_K`.  Every set filed in a bucket from anchor `a` on then has a
//! profit at `now` of at least
//!
//! ```text
//! floor · (1 − 2⁻⁴⁰) / max(1, now − a)
//! ```
//!
//! where `floor` is the least weight filed in the bucket (the 2⁻⁴⁰ covers
//! the handful of f64 roundings between this expression and the reference
//! one).  [`DecayIndex::ascend`] merges the bucket fronts best-first by that
//! bound and has every set it reaches scored by the **unchanged reference
//! expression**; a set is handed out once no unreached set's bound is at or
//! below its exact rank.  The bound only decides *which sets are looked at*,
//! never how they compare, so the order is bit for bit the one a full
//! re-score and sort produces.
//!
//! A set that was reached but not handed out had a profit `p` above its
//! bound.  It is re-filed under the latest anchor that keeps the bound under
//! `p` now — `now − floor/p` — which keeps it under the profit from now on,
//! because the bound decays faster than the profit (`floor ≤ w`).  The set is
//! next reached when most of the time it has left above the current answer
//! has passed, so over its life it is scored a logarithmic number of times:
//! a decision costs the buckets of one group plus the sets it hands out, not
//! the sets near them.
//!
//! # Stale and dead items
//!
//! Items are `(bucket, anchor, slot)`, and the index knows the position of
//! each slot's item.  It is not told when a set is referenced or removed:
//!
//! * a reference can only raise a set's sample count and weight and move its
//!   `t_K` forward, so the position it was filed at remains a valid lower
//!   bound (a *stale* item), corrected when an ascent next re-files the set.
//!   The one change that can *lower* a profit — a new size or cost — must be
//!   [`file`](DecayIndex::file)d by the owner at once;
//! * a removed set leaves its item behind (a *dead* item: the owner's probe
//!   finds the slot empty, or the slot's item is elsewhere).  It is dropped
//!   when reached or when the slot is filed again, and
//!   [`DecayIndex::sweep`] drops all of them once they outnumber the live
//!   ones.
//!
//! # When the bound is void
//!
//! The rate clamps `now` to a set's last reference, so a `now` earlier than a
//! reference the owner has already recorded (callers supply `now`) makes
//! profits *smaller* than the bound assumes, and an anchor is good only from
//! the decision that chose it on.  For a `now` earlier than either, every
//! bound is zero: the ascent degenerates into the full exact sort.  Weights
//! outside `1e±250`, where a profit could leave the normal f64 range, live
//! in buckets whose floor is zero for the same effect.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::ops::Bound::{Excluded, Unbounded};

use crate::clock::Timestamp;
use crate::history::ReferenceHistory;
use crate::index::EntryId;
use crate::profit::Profit;
use crate::value::ExecutionCost;

/// Mantissa bits of the weight that take part in the bucket key: a bucket
/// spans weights within 2⁻³ of each other.
const MANTISSA_BITS: u32 = 3;

/// The factor that keeps a bound below the reference expression's roundings.
const SLACK: f64 = 1.0 - 1.0 / (1u64 << 40) as f64;

/// What decides where a set is filed, read off the set as it is now.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Spot {
    group: u32,
    weight: f64,
    oldest: Timestamp,
}

impl Spot {
    pub(crate) fn of(history: &ReferenceHistory, cost: ExecutionCost, size_bytes: u64) -> Spot {
        let samples = history.sample_count();
        Spot {
            group: u32::try_from(samples).unwrap_or(u32::MAX),
            weight: samples as f64 * cost.value() / size_bytes.max(1) as f64,
            oldest: history.oldest_reference().unwrap_or(Timestamp::ZERO),
        }
    }

    /// For an owner that never asks for sets by sample-count group: one
    /// group, a fourth of the buckets.
    pub(crate) fn ungrouped(self) -> Spot {
        Spot { group: 0, ..self }
    }

    /// The bucket a set with these statistics belongs to.  Weight bits are
    /// zero for weights the bound does not cover.
    fn bucket(&self) -> (u32, u16) {
        let bounded = (1e-250..=1e250).contains(&self.weight);
        let bits = self.weight.to_bits() >> (52 - MANTISSA_BITS);
        (self.group, if bounded { bits as u16 } else { 0 })
    }
}

/// The owner's answer about an occupied slot: where its set belongs now, its
/// profit by the reference expression at the ascent's `now`, and what orders
/// it among sets of equal profit.
pub(crate) struct Scored {
    pub(crate) spot: Spot,
    pub(crate) profit: Profit,
    pub(crate) tie: u64,
}

#[derive(Debug, Clone)]
struct Bucket {
    group: u32,
    weight_bits: u16,
    /// The least weight filed since the bucket was last empty.
    floor: f64,
    items: BTreeSet<(Timestamp, EntryId)>,
}

impl Bucket {
    fn bound(&self, anchor: Timestamp, now: Timestamp) -> Profit {
        Profit::new(self.floor * SLACK / now.saturating_since(anchor).max(1) as f64)
    }

    fn remove(&mut self, item: &(Timestamp, EntryId)) -> bool {
        let removed = self.items.remove(item);
        if self.items.is_empty() {
            self.floor = f64::INFINITY;
        }
        removed
    }
}

/// `(group, weight_bits, anchor)`: where a slot's item sits.
type Position = (u32, u16, Timestamp);
/// `(group, bound, bucket, anchor, slot)`: the oldest unreached item of a
/// bucket.
type Front = (u32, Profit, usize, Timestamp, EntryId);
/// `(group, profit, tie)`: a reached set's exact rank.
type Rank = (u32, Profit, u64);

/// See the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct DecayIndex {
    /// Ascending `(group, weight_bits)`.
    buckets: Vec<Bucket>,
    /// By slot; meaningless for a slot never filed.
    positions: Vec<Position>,
    items: usize,
    /// The latest `now` an ascent chose anchors at.
    anchored: Timestamp,
    /// Exact profit evaluations ascents have asked for.
    evaluations: u64,
    // Scratch of an ascent, kept for its allocations: the bucket fronts, the
    // reached sets by rank, and what was learnt about each (`true` once
    // handed out).
    fronts: BinaryHeap<Reverse<Front>>,
    reached: BinaryHeap<Reverse<(Rank, usize)>>,
    scored: Vec<(EntryId, Spot, Profit, bool)>,
}

impl DecayIndex {
    /// Files `slot`'s set where `spot` says, anchored at its oldest
    /// reference, in place of the slot's earlier item.
    pub(crate) fn file(&mut self, spot: &Spot, slot: EntryId) {
        self.place(spot, slot, None);
    }

    fn bucket_at(&self, key: (u32, u16)) -> Result<usize, usize> {
        self.buckets
            .binary_search_by_key(&key, |b| (b.group, b.weight_bits))
    }

    /// `scored` is the set's profit at the time given, when an ascent has
    /// just found it above the bound: the anchor moves up to where the bound
    /// meets it.
    fn place(&mut self, spot: &Spot, slot: EntryId, scored: Option<(Profit, Timestamp)>) {
        if self.positions.len() <= slot.index() {
            self.positions.resize(slot.index() + 1, Position::default());
        }
        let (group, weight_bits, anchor) = self.positions[slot.index()];
        if let Ok(at) = self.bucket_at((group, weight_bits)) {
            self.items -= usize::from(self.buckets[at].remove(&(anchor, slot)));
        }
        let (group, weight_bits) = spot.bucket();
        let at = self.bucket_at((group, weight_bits)).unwrap_or_else(|at| {
            let bucket = Bucket {
                group,
                weight_bits,
                floor: f64::INFINITY,
                items: BTreeSet::new(),
            };
            self.buckets.insert(at, bucket);
            at
        });
        let bucket = &mut self.buckets[at];
        let weight = if weight_bits == 0 { 0.0 } else { spot.weight };
        bucket.floor = bucket.floor.min(weight);
        let anchor = match scored {
            Some((profit, now)) if bucket.floor > 0.0 && profit > Profit::ZERO => {
                let age = ((bucket.floor / profit.value()) as u64).saturating_add(1);
                let met = Timestamp::from_micros(now.as_micros().saturating_sub(age));
                spot.oldest.max(met)
            }
            _ => spot.oldest,
        };
        self.items += usize::from(bucket.items.insert((anchor, slot)));
        self.positions[slot.index()] = (group, weight_bits, anchor);
    }

    /// Drops the dead items (and the buckets they leave empty) once they
    /// outnumber the `live` sets; `occupied` is whether a slot holds a set.
    pub(crate) fn sweep(&mut self, live: usize, occupied: impl Fn(EntryId) -> bool) {
        if self.items <= 2 * live + 32 {
            return;
        }
        let positions = &self.positions;
        for bucket in &mut self.buckets {
            let (group, weight_bits) = (bucket.group, bucket.weight_bits);
            bucket.items.retain(|&(anchor, slot)| {
                positions[slot.index()] == (group, weight_bits, anchor) && occupied(slot)
            });
        }
        self.buckets.retain(|b| !b.items.is_empty());
        self.items = self.buckets.iter().map(|b| b.items.len()).sum();
    }

    pub(crate) fn clear(&mut self) {
        self.buckets.clear();
        self.items = 0;
    }

    #[cfg(test)]
    pub(crate) fn evaluations(&self) -> u64 {
        self.evaluations
    }

    #[cfg(test)]
    pub(crate) fn occupied_buckets(&self) -> usize {
        self.buckets.iter().filter(|b| !b.items.is_empty()).count()
    }

    /// Starts handing out the filed sets in ascending `(group, profit, tie)`
    /// order at `now` — `(profit, tie)` order over all groups unless
    /// `by_group`.  With `below`, sets whose bound is not under it are never
    /// looked at: the ascent ends early, and is exact for every set whose
    /// profit is under `below`.  `decayed` is whether `now` is at or after
    /// every reference the owner has recorded.
    pub(crate) fn ascend(
        &mut self,
        now: Timestamp,
        decayed: bool,
        by_group: bool,
        below: Option<Profit>,
    ) -> Ascent<'_> {
        self.fronts.clear();
        self.reached.clear();
        self.scored.clear();
        let decayed = decayed && now >= self.anchored;
        if decayed {
            self.anchored = now;
        }
        Ascent {
            index: self,
            now,
            decayed,
            by_group,
            below,
            unloaded: 0,
        }
    }
}

/// An ascent in progress; dropping it re-files the sets it reached and kept.
pub(crate) struct Ascent<'a> {
    index: &'a mut DecayIndex,
    now: Timestamp,
    decayed: bool,
    by_group: bool,
    below: Option<Profit>,
    /// The first bucket whose front is not in the merge yet.
    unloaded: usize,
}

impl Ascent<'_> {
    /// The next set and its profit.  `probe` is asked about the slot of
    /// every item the merge reaches; `None` is an empty slot.
    pub(crate) fn next(
        &mut self,
        mut probe: impl FnMut(EntryId) -> Option<Scored>,
    ) -> Option<(EntryId, Profit)> {
        loop {
            // The least rank a set not reached yet can have.
            let horizon = match self.index.fronts.peek() {
                Some(&Reverse((group, bound, ..))) => Some((group, bound)),
                None => self.next_group().map(|group| (group, Profit::ZERO)),
            };
            if let Some(&Reverse(((group, profit, _), at))) = self.index.reached.peek() {
                if horizon.is_none_or(|h| (group, profit) < h) {
                    self.index.reached.pop();
                    let scored = &mut self.index.scored[at];
                    scored.3 = true;
                    return Some((scored.0, profit));
                }
            }
            match self.index.fronts.pop() {
                Some(Reverse(front)) => self.reach(front, &mut probe),
                None => self.load_group()?,
            }
        }
    }

    fn group_of(&self, group: u32) -> u32 {
        if self.by_group {
            group
        } else {
            0
        }
    }

    fn next_group(&self) -> Option<u32> {
        let bucket = self.index.buckets.get(self.unloaded)?;
        Some(self.group_of(bucket.group))
    }

    /// Adds the fronts of the next group's buckets to the merge.
    fn load_group(&mut self) -> Option<()> {
        let group = self.next_group()?;
        while self.next_group() == Some(group) {
            let at = self.unloaded;
            self.unloaded += 1;
            if let Some(&(anchor, slot)) = self.index.buckets[at].items.first() {
                self.push_front(at, anchor, slot);
            }
        }
        Some(())
    }

    fn push_front(&mut self, at: usize, anchor: Timestamp, slot: EntryId) {
        let bucket = &self.index.buckets[at];
        let bound = if self.decayed {
            bucket.bound(anchor, self.now)
        } else {
            Profit::ZERO
        };
        if self.below.is_none_or(|below| bound < below) {
            let front = (self.group_of(bucket.group), bound, at, anchor, slot);
            self.index.fronts.push(Reverse(front));
        }
    }

    fn reach(&mut self, front: Front, probe: &mut impl FnMut(EntryId) -> Option<Scored>) {
        let (_, _, at, anchor, slot) = front;
        let item = (anchor, slot);
        let bucket = &self.index.buckets[at];
        let position = (bucket.group, bucket.weight_bits, anchor);
        if let Some(&(anchor, slot)) = bucket.items.range((Excluded(item), Unbounded)).next() {
            self.push_front(at, anchor, slot);
        }
        let live = self.index.positions[slot.index()] == position;
        match if live { probe(slot) } else { None } {
            None => self.index.items -= usize::from(self.index.buckets[at].remove(&item)),
            Some(Scored { spot, profit, tie }) => {
                self.index.evaluations += 1;
                let rank = (self.group_of(spot.group), profit, tie);
                let at = self.index.scored.len();
                self.index.scored.push((slot, spot, profit, false));
                self.index.reached.push(Reverse((rank, at)));
            }
        }
    }
}

impl Drop for Ascent<'_> {
    fn drop(&mut self) {
        if !self.decayed {
            return;
        }
        // Re-filed only now: an item moved during the merge could land ahead
        // of its bucket's front and be reached a second time.
        let mut scored = std::mem::take(&mut self.index.scored);
        for (slot, spot, profit, handed_out) in scored.drain(..) {
            if !handed_out {
                self.index.place(&spot, slot, Some((profit, self.now)));
            }
        }
        self.index.scored = scored;
    }
}
