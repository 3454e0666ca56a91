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
//! the sets near them.  Each bucket keeps its front item at hand, so the
//! ascent loads a group into the merge with one heapify over the fronts of
//! its non-empty buckets and walks a tree only to step past an item it
//! reached.
//!
//! # The floors' second reader
//!
//! A floor is also a bound that does not decay: `floor/group` is at most
//! `cost/size` of every set filed in the bucket, because the weights filed
//! there are `group·cost/size`.  A set is filed in a group no higher than
//! its sample count, so the least such ratio over the groups up to `g`,
//! [`DecayIndex::least_ratio`], bounds `cost/size` of every set with at most
//! `g` samples; LNC-A uses it to reject a first-time set without selecting
//! its victims (see `crate::policy::lnc`).  Weights ascend within a group,
//! so only each group's first non-empty bucket is read.
//!
//! # Due buckets
//!
//! The two ascents every LNC-RA decision ends with — the least cached profit
//! and the §2.4 purge below it — look only for sets under a threshold that
//! seldom moves between decisions, yet a full ascent reads the front of every
//! bucket to find the few whose bound is under it.  So the index keeps, side
//! by side with the buckets, each bucket's **due time** against a threshold
//! θ: the first `now` at which its front's bound can be at or under θ,
//! `anchor + floor·SLACK²/θ`.  The second `SLACK` is a margin over the
//! roundings of this quotient and of the bound, so before its due time a
//! bucket's bound, as computed, is above θ.  An empty bucket is never due.
//!
//! [`key`](DecayIndex::key) sets θ after an ascent.  The next ascent may pass
//! a `within` at or under θ, vouching that it ends before any set above
//! `within` matters: the purge's `below` cuts off every bound at or above its
//! threshold, and the least cached profit is at most what it was last time
//! while that set stays cached and unreferenced (a certificate its owner
//! keeps).  That ascent loads only the buckets that are due.  A bucket that is
//! not due has a front bound above θ ≥ `within`: the full ascent would have
//! cut it off or never popped it, so the same sets are reached, scored and
//! handed out, and the evaluations do not change.  Without a `within`, or
//! with one above θ (the threshold rose), the ascent reads every front, and
//! keying re-keys every bucket; keying at or under θ re-keys only the buckets
//! the ascent loaded, as the rest are keyed against a θ at least as high.  Every
//! change to a bucket's front or floor — filing, re-filing, dropping a dead
//! item — re-keys that bucket at once.
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
//!   finds the slot empty, or its record no longer in this order).  It is
//!   dropped when reached or when the slot is filed again, whichever comes
//!   first; slots are reused, so there are never more dead items than the
//!   owner once held sets.
//!
//! The bound assumes what Eq. 3 assumes: the owner's `now` never steps back,
//! so no recorded reference and no chosen anchor lies after it.  Weights
//! outside `1e±250`, where a profit could leave the normal f64 range, live
//! in buckets whose floor is zero: their sets are always looked at.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::ops::Bound::{Excluded, Unbounded};

use crate::clock::Timestamp;
use crate::index::EntryId;
use crate::profit::Profit;
use crate::retained::RetainedInfo;

/// Mantissa bits of the weight that take part in the bucket key: a bucket
/// spans weights within 2⁻³ of each other.
const MANTISSA_BITS: u32 = 3;

/// The factor that keeps a bound below the reference expression's roundings.
const SLACK: f64 = 1.0 - 1.0 / (1u64 << 40) as f64;

/// What decides where a set is filed, read off the set as it is now.
#[derive(Debug, Clone, Copy)]
struct Spot {
    group: u32,
    weight: f64,
    oldest: Timestamp,
}

impl Spot {
    fn of(set: &RetainedInfo, grouped: bool) -> Spot {
        let samples = set.state.sample_count();
        let group = if grouped { samples } else { 0 };
        Spot {
            group: u32::try_from(group).unwrap_or(u32::MAX),
            weight: samples as f64 * set.cost.value() / set.size_bytes.max(1) as f64,
            oldest: set.state.oldest_reference().unwrap_or(Timestamp::ZERO),
        }
    }

    /// The bucket a set with these statistics belongs to.  Weight bits are
    /// zero for weights the bound does not cover.
    fn bucket(&self) -> (u32, u16) {
        let bounded = (1e-250..=1e250).contains(&self.weight);
        let bits = self.weight.to_bits() >> (52 - MANTISSA_BITS);
        (self.group, if bounded { bits as u16 } else { 0 })
    }
}

#[derive(Debug, Clone)]
struct Bucket {
    group: u32,
    weight_bits: u16,
    /// The least weight filed since the bucket was last empty.
    floor: f64,
    items: BTreeSet<Item>,
    /// `items.first()`, kept so that an ascent reads a front without
    /// walking the tree.
    front: Option<Item>,
}

impl Bucket {
    fn bound(&self, anchor: Timestamp, now: Timestamp) -> Profit {
        Profit::new(self.floor * SLACK / now.saturating_since(anchor).max(1) as f64)
    }

    /// The first `now` at which the front's bound can be at or under
    /// `keyed`: before it the bound is above it (see "Due buckets").
    fn due(&self, keyed: Option<Profit>) -> u64 {
        let Some((anchor, _)) = self.front else {
            return u64::MAX;
        };
        let Some(theta) = keyed else {
            return 0;
        };
        // Every age up to this one keeps the bound above θ; a zero floor
        // (NaN here) or an age under 1 µs is due at once.
        let age = self.floor * SLACK * SLACK / theta.value();
        if age >= 1.0 {
            anchor.as_micros().saturating_add(age as u64)
        } else {
            0
        }
    }

    fn insert(&mut self, item: Item) {
        self.items.insert(item);
        if self.front.is_none_or(|front| item < front) {
            self.front = Some(item);
        }
    }

    fn remove(&mut self, item: &Item) {
        self.items.remove(item);
        if self.front == Some(*item) {
            self.front = self.items.first().copied();
            if self.front.is_none() {
                self.floor = f64::INFINITY;
            }
        }
    }
}

/// `(anchor, slot)`: a set filed in a bucket.
type Item = (Timestamp, EntryId);
/// `(group, weight_bits, anchor)`: where a slot's item sits.
type Position = (u32, u16, Timestamp);
/// `(group, bound, bucket, anchor, slot)`: the oldest unreached item of a
/// bucket.
type Front = (u32, Profit, usize, Timestamp, EntryId);
/// `(group, profit, tie)`: a reached set's exact rank.
type Rank = (u32, Profit, u64);

/// The parameters of one ascent.
#[derive(Clone, Copy)]
struct Ascent {
    now: Timestamp,
    by_group: bool,
    below: Option<Profit>,
}

impl Ascent {
    fn group_of(&self, group: u32) -> u32 {
        if self.by_group {
            group
        } else {
            0
        }
    }
}

/// The victim order of LNC-R/LNC-RA and the order of its §2.4 retained
/// histories: see the module docs.
#[derive(Debug, Clone, Default)]
pub struct DecayIndex {
    /// Whether sets are filed by sample-count group; an owner that never
    /// ascends by group does with a fourth of the buckets.
    grouped: bool,
    /// Ascending `(group, weight_bits)`.
    buckets: Vec<Bucket>,
    /// By bucket: its due time against `keyed` (see "Due buckets"), kept
    /// apart so that an ascent scans these and not the buckets.
    due: Vec<u64>,
    /// The threshold the due times are keyed against; `None` until keyed.
    keyed: Option<Profit>,
    /// The buckets the last ascent loaded, by position.
    loaded: Vec<usize>,
    /// By slot; meaningless for a slot never filed.
    positions: Vec<Position>,
    /// Exact profit evaluations ascents have asked for.
    evaluations: u64,
    /// Bucket fronts ascents have loaded into their merge: across groups,
    /// and by group.
    fronts_loaded: [u64; 2],
    // Scratch of an ascent, kept for its allocations: the bucket fronts, the
    // reached sets by rank, and what was learnt about each (`true` once
    // handed out).
    fronts: BinaryHeap<Reverse<Front>>,
    reached: BinaryHeap<Reverse<(Rank, usize)>>,
    scored: Vec<(EntryId, Spot, Profit, bool)>,
}

impl DecayIndex {
    /// An index that can ascend by sample-count group.
    pub(crate) fn grouped() -> Self {
        DecayIndex {
            grouped: true,
            ..Self::default()
        }
    }

    /// Files `slot`'s `set` by what it is now, anchored at its oldest
    /// reference, in place of the slot's earlier item.
    pub(crate) fn file(&mut self, set: &RetainedInfo, slot: EntryId) {
        self.place(&Spot::of(set, self.grouped), slot, None);
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
            self.remove(at, &(anchor, slot));
        }
        let (group, weight_bits) = spot.bucket();
        let at = self.bucket_at((group, weight_bits)).unwrap_or_else(|at| {
            let bucket = Bucket {
                group,
                weight_bits,
                floor: f64::INFINITY,
                items: BTreeSet::new(),
                front: None,
            };
            self.buckets.insert(at, bucket);
            self.due.insert(at, u64::MAX);
            for loaded in self.loaded.iter_mut().filter(|loaded| **loaded >= at) {
                *loaded += 1;
            }
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
        bucket.insert((anchor, slot));
        self.due[at] = bucket.due(self.keyed);
        self.positions[slot.index()] = (group, weight_bits, anchor);
    }

    /// Drops `item` from bucket `at`, re-keying the bucket.
    fn remove(&mut self, at: usize, item: &Item) {
        let bucket = &mut self.buckets[at];
        bucket.remove(item);
        self.due[at] = bucket.due(self.keyed);
    }

    pub(crate) fn clear(&mut self) {
        self.buckets.clear();
        self.due.clear();
        self.loaded.clear();
    }

    /// Keys the due times against `theta`, which the owner vouches for as
    /// the `within` of a later ascent (see "Due buckets").  Lowering the key
    /// re-keys only the buckets the last ascent loaded.
    pub(crate) fn key(&mut self, theta: Profit) {
        let lowered = self.keyed.is_some_and(|keyed| theta <= keyed);
        self.keyed = Some(theta);
        if lowered {
            for &at in &self.loaded {
                self.due[at] = self.buckets[at].due(self.keyed);
            }
        } else {
            for (due, bucket) in self.due.iter_mut().zip(&self.buckets) {
                *due = bucket.due(self.keyed);
            }
        }
    }

    /// The least `floor/group` over the non-empty buckets of groups up to
    /// `groups` (see "The floors' second reader"); infinite for none.
    pub(crate) fn least_ratio(&self, groups: u32) -> f64 {
        debug_assert!(self.grouped, "an ungrouped floor bounds samples·cost/size");
        let (mut least, mut at) = (f64::INFINITY, 0);
        while let Some(bucket) = self.buckets.get(at).filter(|b| b.group <= groups) {
            if bucket.front.is_none() {
                at += 1;
                continue;
            }
            least = least.min(bucket.floor / f64::from(bucket.group));
            at += self.buckets[at..].partition_point(|b| b.group == bucket.group);
        }
        least
    }

    #[cfg(test)]
    pub(crate) fn evaluations(&self) -> u64 {
        self.evaluations
    }

    #[cfg(test)]
    pub(crate) fn fronts_loaded(&self, by_group: bool) -> u64 {
        self.fronts_loaded[usize::from(by_group)]
    }

    #[cfg(test)]
    pub(crate) fn occupied_buckets(&self) -> usize {
        self.buckets.iter().filter(|b| b.front.is_some()).count()
    }

    /// Hands the filed sets to `take` in ascending `(group, profit, tie)`
    /// order at `now` — `(profit, tie)` order over all groups unless
    /// `by_group` — until it returns `false`.  With `below`, sets whose bound
    /// is not under it are never looked at: the ascent ends early, and is
    /// exact for every set whose profit is under `below`.  With `within` at
    /// or under the key, only the buckets due at `now` are read (see "Due
    /// buckets").  `now` is at or after every earlier ascent's and every
    /// reference the owner recorded.  `probe` is asked for the set in the
    /// slot of every item the merge reaches (`None` is an empty slot) and for
    /// what orders it among sets of equal profit.
    pub(crate) fn ascend<'s>(
        &mut self,
        now: Timestamp,
        by_group: bool,
        below: Option<Profit>,
        within: Option<Profit>,
        mut probe: impl FnMut(EntryId) -> Option<(&'s RetainedInfo, u64)>,
        mut take: impl FnMut(EntryId, Profit) -> bool,
    ) {
        let ascent = Ascent {
            now,
            by_group,
            below,
        };
        let due_only = within.is_some_and(|within| self.keyed.is_some_and(|key| within <= key));
        self.fronts.clear();
        self.loaded.clear();
        self.reached.clear();
        self.scored.clear();
        // The first bucket whose front is not in the merge yet.
        let mut unloaded = 0;
        loop {
            // The least rank a set not reached yet can have.
            let horizon = match (self.fronts.peek(), self.buckets.get(unloaded)) {
                (Some(&Reverse((group, bound, ..))), _) => Some((group, bound)),
                (None, Some(bucket)) => Some((ascent.group_of(bucket.group), Profit::ZERO)),
                (None, None) => None,
            };
            if let Some(&Reverse(((group, profit, _), at))) = self.reached.peek() {
                if horizon.is_none_or(|h| (group, profit) < h) {
                    self.reached.pop();
                    self.scored[at].3 = true;
                    if take(self.scored[at].0, profit) {
                        continue;
                    }
                    break;
                }
            }
            match (self.fronts.pop(), horizon) {
                (Some(Reverse(front)), _) => self.reach(ascent, front, &mut probe),
                // Load the fronts of the next group's buckets into the (empty)
                // merge with one heapify.
                (None, Some((group, _))) => {
                    let end = if by_group {
                        let rest = &self.buckets[unloaded..];
                        unloaded + rest.partition_point(|b| b.group == group)
                    } else {
                        self.buckets.len()
                    };
                    let mut fronts = std::mem::take(&mut self.fronts).into_vec();
                    for at in unloaded..end {
                        if due_only && self.due[at] > now.as_micros() {
                            continue;
                        }
                        if let Some(item) = self.buckets[at].front {
                            self.loaded.push(at);
                            self.fronts_loaded[usize::from(by_group)] += 1;
                            fronts.extend(self.front_of(ascent, at, item));
                        }
                    }
                    unloaded = end;
                    self.fronts = BinaryHeap::from(fronts);
                }
                (None, None) => break,
            }
        }
        // The sets reached and kept are re-filed only now: an item moved
        // during the merge could land ahead of its bucket's front and be
        // reached a second time.
        for at in 0..self.scored.len() {
            let (slot, spot, profit, handed_out) = self.scored[at];
            if !handed_out {
                self.place(&spot, slot, Some((profit, now)));
            }
        }
    }

    /// The merge entry for bucket `at`'s `item`, unless its bound is not
    /// under the ascent's `below`.  Inlined: it runs once per merge step,
    /// and left to the compiler a call per step showed in LNC's decisions.
    #[inline]
    fn front_of(&self, ascent: Ascent, at: usize, (anchor, slot): Item) -> Option<Reverse<Front>> {
        let bucket = &self.buckets[at];
        let bound = bucket.bound(anchor, ascent.now);
        let front = (ascent.group_of(bucket.group), bound, at, anchor, slot);
        ascent
            .below
            .is_none_or(|below| bound < below)
            .then_some(Reverse(front))
    }

    fn reach<'s>(
        &mut self,
        ascent: Ascent,
        front: Front,
        probe: &mut impl FnMut(EntryId) -> Option<(&'s RetainedInfo, u64)>,
    ) {
        let (_, _, at, anchor, slot) = front;
        let item = (anchor, slot);
        let bucket = &self.buckets[at];
        let position = (bucket.group, bucket.weight_bits, anchor);
        if let Some(&next) = bucket.items.range((Excluded(item), Unbounded)).next() {
            self.fronts.extend(self.front_of(ascent, at, next));
        }
        let live = self.positions[slot.index()] == position;
        match if live { probe(slot) } else { None } {
            None => self.remove(at, &item),
            Some((set, tie)) => {
                self.evaluations += 1;
                let (spot, profit) = (Spot::of(set, self.grouped), set.profit(ascent.now));
                let rank = (ascent.group_of(spot.group), profit, tie);
                self.reached.push(Reverse((rank, self.scored.len())));
                self.scored.push((slot, spot, profit, false));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::history::ReferenceHistory;
    use crate::key::QueryKey;
    use crate::value::ExecutionCost;

    fn ts(us: u64) -> Timestamp {
        Timestamp::from_micros(us)
    }

    fn slot(index: usize) -> EntryId {
        EntryId::from_index_for_tests(index)
    }

    /// A 100-byte set of `cost` blocks referenced at `refs`.
    fn set(cost: f64, refs: &[u64]) -> RetainedInfo {
        let mut state = ReferenceHistory::new(4);
        for &at in refs {
            state.record(ts(at));
        }
        RetainedInfo {
            key: QueryKey::new("set"),
            size_bytes: 100,
            cost: ExecutionCost::from_block_reads(cost),
            state,
        }
    }

    /// What one ascent over the sets held by slot hands out, while `more`.
    fn hand_out(
        index: &mut DecayIndex,
        sets: &[Option<RetainedInfo>],
        now: Timestamp,
        (by_group, below, within): (bool, Option<Profit>, Option<Profit>),
        mut more: impl FnMut(Profit) -> bool,
    ) -> Vec<(EntryId, Profit)> {
        let mut handed = Vec::new();
        let probe = |id: EntryId| Some((sets.get(id.index())?.as_ref()?, id.index() as u64));
        index.ascend(now, by_group, below, within, probe, |id, profit| {
            handed.push((id, profit));
            more(profit)
        });
        handed
    }

    #[test]
    fn a_bucket_within_an_ulp_of_the_key_is_loaded() {
        // One set of weight 3 whose bucket's bound is `bound` after 2⁵³ µs,
        // an age at which one ulp of the due time's quotient is a whole
        // microsecond.  Keyed within an ulp of the bound, the bucket is due;
        // keyed at half of it, it is not.
        let (anchor, now) = (1_000, 1_000 + (1 << 53));
        let sets = [Some(set(300.0, &[anchor]))];
        let bound = 3.0 * SLACK / (now - anchor) as f64;
        let keys = [bound.next_up(), bound, bound.next_down(), bound / 2.0];
        for (theta, loaded) in keys.into_iter().zip([1, 1, 1, 0]) {
            let theta = Profit::new(theta);
            let mut index = DecayIndex::default();
            index.file(sets[0].as_ref().expect("held"), slot(0));
            index.key(theta);
            let purge = (false, Some(theta), Some(theta));
            hand_out(&mut index, &sets, ts(now), purge, |_| true);
            assert_eq!(index.fronts_loaded(false), loaded, "keyed at {theta}");
        }
    }

    /// One step of a trace over an index: 0–3 files a set in `slot` (a new
    /// one, or a refresh), 4 references it, 5 drops it, 6–7 purge, 8–9 ask
    /// for the least set, and the rest select a few.
    #[derive(Debug, Clone)]
    struct Step {
        action: u8,
        slot: usize,
        cost: u64,
        pick: u8,
        advance_us: u64,
    }

    fn step() -> impl Strategy<Value = Step> {
        (0u8..12, 0usize..24, 1u64..16, 0u8..255, 0u64..3_000).prop_map(
            |(action, slot, cost, pick, advance_us)| Step {
                action,
                slot,
                cost,
                pick,
                advance_us,
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Ascents that read only the due buckets — a purge within its
        /// threshold, the least within the certificate kept as the cache
        /// keeps it — hand out what ascents reading every bucket hand out,
        /// from as many evaluations.
        #[test]
        fn due_ascents_match_full_ascents(
            steps in proptest::collection::vec(step(), 1..200),
            grouped in 0u8..2,
        ) {
            let fresh = || if grouped == 1 { DecayIndex::grouped() } else { DecayIndex::default() };
            let (mut keyed, mut full) = (fresh(), fresh());
            let mut sets: Vec<Option<RetainedInfo>> = vec![None; 24];
            let mut certified: Option<(EntryId, Profit)> = None;
            let mut now = 1_000;
            for step in &steps {
                now += step.advance_us;
                let (at, id) = (ts(now), slot(step.slot));
                if certified.is_some_and(|(held, _)| held == id) && step.action <= 5 {
                    certified = None;
                }
                match step.action {
                    0..=3 => {
                        let refs: Vec<u64> = (0..=u64::from(step.pick % 3))
                            .rev()
                            .map(|back| now.saturating_sub(back * 500))
                            .collect();
                        let new = set(step.cost as f64 * 50.0, &refs);
                        keyed.file(&new, id);
                        full.file(&new, id);
                        sets[step.slot] = Some(new);
                    }
                    4 => {
                        if let Some(held) = &mut sets[step.slot] {
                            held.state.record_once(at);
                        }
                    }
                    5 => sets[step.slot] = None,
                    6 | 7 => {
                        // Thresholds at, beside and far from a held profit.
                        let mut held: Vec<Profit> = sets.iter().flatten().map(|s| s.profit(at)).collect();
                        held.sort();
                        let near = held.get(usize::from(step.pick) % held.len().max(1)).map_or(1.0, |p| p.value());
                        let factor = [0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 4.0][usize::from(step.pick) % 5];
                        let theta = Profit::new(near * factor);
                        let under = |profit| profit < theta;
                        let dropped = hand_out(&mut keyed, &sets, at, (false, Some(theta), Some(theta)), under);
                        keyed.key(theta);
                        let expected = hand_out(&mut full, &sets, at, (false, Some(theta), None), under);
                        assert_eq!(dropped, expected, "purge at {theta}");
                        for (gone, _) in dropped.into_iter().filter(|&(_, profit)| under(profit)) {
                            sets[gone.index()] = None;
                            if certified.is_some_and(|(held, _)| held == gone) {
                                certified = None;
                            }
                        }
                    }
                    8 | 9 => {
                        let within = certified.map(|(_, price)| price);
                        let least = hand_out(&mut keyed, &sets, at, (false, None, within), |_| false);
                        let expected = hand_out(&mut full, &sets, at, (false, None, None), |_| false);
                        assert_eq!(least, expected, "least within {within:?}");
                        certified = least.first().copied();
                        if let Some((_, price)) = certified {
                            keyed.key(price);
                        }
                    }
                    _ => {
                        let (wanted, by_group) = (usize::from(step.pick % 4) + 1, grouped == 1);
                        let first = || {
                            let mut taken = 0;
                            move |_| {
                                taken += 1;
                                taken < wanted
                            }
                        };
                        let victims = hand_out(&mut keyed, &sets, at, (by_group, None, None), first());
                        let expected = hand_out(&mut full, &sets, at, (by_group, None, None), first());
                        assert_eq!(victims, expected, "selection of {wanted}");
                    }
                }
                assert_eq!(keyed.evaluations(), full.evaluations(), "after {step:?}");
            }
        }
    }
}
