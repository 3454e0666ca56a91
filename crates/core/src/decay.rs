//! The decay index: sets in ascending profit order without re-scoring them.
//!
//! A set's profit (Eq. 2 with the Eq. 3 rate) is `w / (now − t_K)` with the
//! *weight* `w = samples·cost/size` and `t_K` its oldest retained reference.
//! It changes at every decision, but between two references of the set it
//! only decays, and it decays along a curve two numbers describe.  The index
//! files each set under a **bucket** — its Figure 1 sample-count group and
//! the top bits of `w` — and inside the bucket by `t_K`.  Every set filed in
//! a bucket from `t_K` on then has a profit at `now` of at least
//!
//! ```text
//! floor · (1 − 2⁻⁴⁰) / max(1, now − t_K)
//! ```
//!
//! where `floor` is the least weight filed in the bucket (the 2⁻⁴⁰ covers
//! the handful of f64 roundings between this expression and the reference
//! one).  [`DecayIndex::ascend`] merges the bucket fronts best-first by that
//! bound and has every set it reaches scored by the **unchanged reference
//! expression**; a set is handed out once no unreached set's bound is at or
//! below its exact rank.  The bound only decides *which sets are looked at*,
//! never how they compare, so the order is bit for bit the one a full
//! re-score and sort produces — at a cost of the buckets of one group plus
//! the sets whose profit lies within a bucket's width of the answer.
//!
//! # Stale and dead items
//!
//! Items are `(bucket, t_K, slot)`; the owner keeps each set's [`Filed`]
//! position beside the set.  Nothing here is touched when a set is
//! referenced or removed:
//!
//! * a reference can only raise a set's sample count and weight and move its
//!   `t_K` forward, so the position it was filed at remains a valid lower
//!   bound (a *stale* item).  When an ascent reaches it, the owner's probe
//!   reports where it belongs now and it is re-filed after the ascent.  The
//!   one change that can *lower* a profit — a new size or cost — must be
//!   re-[`file`](DecayIndex::file)d by the owner at once;
//! * a removed set leaves its item behind (a *dead* item: the slot is empty
//!   or filed elsewhere).  It is dropped when reached, and
//!   [`DecayIndex::sweep`] drops all of them once they outnumber the live
//!   ones.
//!
//! # When the bound is void
//!
//! The rate clamps `now` to a set's last reference, so a `now` earlier than a
//! reference the owner has already recorded (callers supply `now`) makes
//! profits *smaller* than the bound assumes.  The owner passes
//! `decayed = false` for such a call and every bound is zero: the ascent
//! degenerates into the full exact sort.  Weights outside `1e±250`, where a
//! profit could leave the normal f64 range, live in buckets whose floor is
//! zero for the same effect.

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

    /// The position a set with these statistics is filed at.
    pub(crate) fn filed(&self) -> Filed {
        let bounded = (1e-250..=1e250).contains(&self.weight);
        Filed {
            group: self.group,
            weight_bits: if bounded {
                (self.weight.to_bits() >> (52 - MANTISSA_BITS)) as u16
            } else {
                0
            },
            oldest: self.oldest,
        }
    }
}

/// Where a set's live item sits; an item that disagrees with its slot's
/// `Filed` is dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Filed {
    group: u32,
    /// Zero for weights the bound does not cover.
    weight_bits: u16,
    oldest: Timestamp,
}

/// The owner's answer about an item an ascent reached.
pub(crate) enum Probe {
    /// The slot is empty or its set is filed elsewhere.
    Dead,
    /// The set is this item's; `profit` is the reference expression at the
    /// ascent's `now`, `tie` orders sets of equal profit.
    Live {
        spot: Spot,
        profit: Profit,
        tie: u64,
    },
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
    fn bound(&self, oldest: Timestamp, now: Timestamp) -> Profit {
        Profit::new(self.floor * SLACK / now.saturating_since(oldest).max(1) as f64)
    }

    fn remove(&mut self, item: &(Timestamp, EntryId)) -> bool {
        let removed = self.items.remove(item);
        if self.items.is_empty() {
            self.floor = f64::INFINITY;
        }
        removed
    }
}

/// `(group, bound, bucket, t_K, slot)`: the oldest unreached item of a bucket.
type Front = (u32, Profit, usize, Timestamp, EntryId);
/// `(group, profit, tie)`: a reached set's exact rank.
type Rank = (u32, Profit, u64);

/// See the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct DecayIndex {
    /// Ascending `(group, weight_bits)`.
    buckets: Vec<Bucket>,
    items: usize,
    /// Exact profit evaluations ascents have asked for.
    evaluations: u64,
    // Scratch of an ascent, kept for its allocations.
    fronts: BinaryHeap<Reverse<Front>>,
    reached: BinaryHeap<Reverse<(Rank, EntryId)>>,
    refile: Vec<(Spot, EntryId)>,
}

impl DecayIndex {
    /// Files `slot` where `spot` says and returns the position for the owner
    /// to keep.  An earlier item of the slot becomes dead.
    pub(crate) fn file(&mut self, spot: &Spot, slot: EntryId) -> Filed {
        let filed = spot.filed();
        let key = (filed.group, filed.weight_bits);
        let at = match self
            .buckets
            .binary_search_by_key(&key, |b| (b.group, b.weight_bits))
        {
            Ok(at) => at,
            Err(at) => {
                let bucket = Bucket {
                    group: filed.group,
                    weight_bits: filed.weight_bits,
                    floor: f64::INFINITY,
                    items: BTreeSet::new(),
                };
                self.buckets.insert(at, bucket);
                at
            }
        };
        let bucket = &mut self.buckets[at];
        let weight = if filed.weight_bits == 0 {
            0.0
        } else {
            spot.weight
        };
        bucket.floor = bucket.floor.min(weight);
        self.items += usize::from(bucket.items.insert((filed.oldest, slot)));
        filed
    }

    /// Drops the dead items (and the buckets they leave empty) once they
    /// outnumber the `live` sets.
    pub(crate) fn sweep(&mut self, live: usize, is_live: impl Fn(EntryId, Filed) -> bool) {
        if self.items <= 2 * live + 32 {
            return;
        }
        for bucket in &mut self.buckets {
            let (group, weight_bits) = (bucket.group, bucket.weight_bits);
            bucket.items.retain(|&(oldest, slot)| {
                let filed = Filed {
                    group,
                    weight_bits,
                    oldest,
                };
                is_live(slot, filed)
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

/// An ascent in progress; dropping it re-files the stale sets it reached.
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
    /// The next set and its profit.  `probe` is asked about every item the
    /// merge reaches and must, for a live one, record `spot.filed()` as the
    /// set's position.
    pub(crate) fn next(
        &mut self,
        mut probe: impl FnMut(EntryId, Filed) -> Probe,
    ) -> Option<(EntryId, Profit)> {
        loop {
            // The least rank a set not reached yet can have.
            let horizon = match self.index.fronts.peek() {
                Some(&Reverse((group, bound, ..))) => Some((group, bound)),
                None => self.next_group().map(|group| (group, Profit::ZERO)),
            };
            if let Some(&Reverse(((group, profit, _), slot))) = self.index.reached.peek() {
                if horizon.is_none_or(|h| (group, profit) < h) {
                    self.index.reached.pop();
                    return Some((slot, profit));
                }
            }
            match self.index.fronts.pop() {
                Some(Reverse(front)) => self.reach(front, &mut probe),
                None => self.load_group()?,
            }
        }
    }

    fn group_of(&self, bucket: &Bucket) -> u32 {
        if self.by_group {
            bucket.group
        } else {
            0
        }
    }

    fn next_group(&self) -> Option<u32> {
        let bucket = self.index.buckets.get(self.unloaded)?;
        Some(self.group_of(bucket))
    }

    /// Adds the fronts of the next group's buckets to the merge.
    fn load_group(&mut self) -> Option<()> {
        let group = self.next_group()?;
        while self.next_group() == Some(group) {
            let at = self.unloaded;
            self.unloaded += 1;
            if let Some(&(oldest, slot)) = self.index.buckets[at].items.first() {
                self.push_front(at, oldest, slot);
            }
        }
        Some(())
    }

    fn push_front(&mut self, at: usize, oldest: Timestamp, slot: EntryId) {
        let bucket = &self.index.buckets[at];
        let bound = if self.decayed {
            bucket.bound(oldest, self.now)
        } else {
            Profit::ZERO
        };
        if self.below.is_none_or(|below| bound < below) {
            let front = (self.group_of(bucket), bound, at, oldest, slot);
            self.index.fronts.push(Reverse(front));
        }
    }

    fn reach(&mut self, front: Front, probe: &mut impl FnMut(EntryId, Filed) -> Probe) {
        let (_, _, at, oldest, slot) = front;
        let item = (oldest, slot);
        let bucket = &self.index.buckets[at];
        let filed = Filed {
            group: bucket.group,
            weight_bits: bucket.weight_bits,
            oldest,
        };
        if let Some(&(oldest, slot)) = bucket.items.range((Excluded(item), Unbounded)).next() {
            self.push_front(at, oldest, slot);
        }
        match probe(slot, filed) {
            Probe::Dead => {
                self.index.items -= usize::from(self.index.buckets[at].remove(&item));
            }
            Probe::Live { spot, profit, tie } => {
                self.index.evaluations += 1;
                let current = spot.filed();
                if current != filed {
                    // Re-filed when the ascent ends: an item inserted now
                    // could land ahead of its bucket's front and be reached
                    // a second time.
                    self.index.items -= usize::from(self.index.buckets[at].remove(&item));
                    self.index.refile.push((spot, slot));
                }
                let group = if self.by_group { current.group } else { 0 };
                self.index
                    .reached
                    .push(Reverse(((group, profit, tie), slot)));
            }
        }
    }
}

impl Drop for Ascent<'_> {
    fn drop(&mut self) {
        let mut refile = std::mem::take(&mut self.index.refile);
        for (spot, slot) in refile.drain(..) {
            self.index.file(&spot, slot);
        }
        self.index.refile = refile;
    }
}
