//! Profit-aware capacity rebalancing between shards.
//!
//! The engine hash-partitions the keyspace across N shards and, by default,
//! splits the configured capacity statically `total/N`.  On a skewed keyspace
//! that starves hot shards: the shards holding the frequently re-referenced
//! retrieved sets run out of room (rejecting and evicting profitable sets)
//! while cold shards idle with free or low-value bytes.
//!
//! WATCHMAN's own premise (paper §2) says cache space should follow *profit*
//! `λ·c/s`, so the engine can be configured to apply the same idea one level
//! up: on every pass of its **background rebalance task** (scheduled every
//! [`RebalanceConfig::period`] on the engine's runtime — never on a session's
//! request path) it prices, for every shard, what donating one step of
//! capacity would cost
//! ([`QueryCache::shrink_loss`]: the aggregate Eq. 5 profit of the victims
//! the shard's own policy would pick) and what receiving one step could win
//! back ([`QueryCache::grow_gain`]: the aggregate profit of the densest
//! packing of sets the shard denied residency, reconstructed from §2.4
//! retained reference information).  A step then moves from the
//! cheapest-to-shrink shard to the most starved one whenever the gain
//! clearly exceeds the loss, shrinking the donor through the policy's own
//! victim selection so the displaced sets are its lowest-profit residents
//! and real eviction events are emitted.
//!
//! Two invariants hold at every observable point (enforced by holding both
//! shard locks for the transfer, and checked by the engine's property tests):
//!
//! * **conservation** — Σ per-shard capacity == configured total;
//! * **occupancy** — every shard's `used_bytes <= capacity_bytes`.
//!
//! Each pass moves at most one step of 5% of a shard's fair share
//! (`total/N`), and no shard shrinks below half its fair share, so a
//! temporarily idle shard is never starved to zero and can win capacity back
//! when its keys heat up.

use crate::policy::QueryCache;
use crate::profit::Profit;

/// Configures profit-aware capacity rebalancing between the shards of a
/// [`Watchman`](crate::engine::Watchman) engine: only *when* passes run.
///
/// What a pass may move is fixed.  A step is 5% of a shard's fair share
/// (`total/N`).  Steps stay small because the gain-vs-loss comparison
/// driving each move is a *marginal* argument (it prices the next victims),
/// so a large step would evict far past the sets the signal priced, and
/// small steps let a misjudged move be corrected cheaply on a later pass.
/// No shard drops below half its fair share.
///
/// The **profit signal** driving each pass has three components:
///
/// * *gain* — the shard's [`grow_gain`] over one step: the aggregate Eq. 5
///   profit of the most valuable sets it denied residency (evicted or
///   rejected) that would fit into the received step, reconstructed from
///   §2.4 retained reference information.
/// * *loss* — the shard's [`shrink_loss`] over one step: the aggregate
///   profit of the victims its own replacement policy would evict to donate
///   the step.
/// * *pressure* — rejections + evictions accumulated since the last pass.
///   Pressure gates eligibility to *receive* (a shard that sheds nothing
///   cannot benefit from growing) and is the fallback ranking for policies
///   that retain no reference information.
///
/// Each pass grows the highest-gain pressured shard at the expense of the
/// lowest-loss shard, and only when the gain clearly exceeds the loss — the
/// across-shard analogue of the paper's admission test (Eq. 4): admit more
/// capacity into a shard only if the sets it will keep are worth more than
/// the sets the donor must give up.  Gains and losses are exponentially
/// smoothed across passes, so transient profit spikes do not move capacity;
/// a balanced engine sits at a fixed point instead of oscillating.
///
/// [`shrink_loss`]: crate::policy::QueryCache::shrink_loss
/// [`grow_gain`]: crate::policy::QueryCache::grow_gain
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceConfig {
    /// How often the engine's background task runs a rebalance pass.
    /// Clamped to at least one millisecond.  `None` disables the background
    /// task entirely: passes then run only when a driver explicitly calls
    /// [`rebalance_now`](crate::engine::Watchman::rebalance_now) — the mode
    /// deterministic replays (the simulator's shard sweep) use.  Passes
    /// never run on a session's request path in either mode.
    pub period: Option<std::time::Duration>,
}

/// The fraction of a shard's fair share (`total/N`) below which its capacity
/// never drops.
const MIN_SHARD_FRACTION: f64 = 0.5;

/// The fraction of a shard's fair share one pass moves.
const STEP_FRACTION: f64 = 0.05;

impl RebalanceConfig {
    /// The default: a background pass every 50 ms.
    pub fn new() -> Self {
        RebalanceConfig {
            period: Some(std::time::Duration::from_millis(50)),
        }
    }

    /// Returns the configuration with a different background-pass period.
    pub fn with_period(mut self, period: std::time::Duration) -> Self {
        self.period = Some(period);
        self
    }

    /// Disables the background task: passes run only when the driver calls
    /// [`rebalance_now`](crate::engine::Watchman::rebalance_now) explicitly.
    /// Deterministic replays (the simulator) schedule passes this way.
    pub fn manual(mut self) -> Self {
        self.period = None;
        self
    }

    /// The configuration with its period clamped to at least one
    /// millisecond (applied once at engine build time).
    pub(crate) fn sanitized(mut self) -> Self {
        self.period = self
            .period
            .map(|period| period.max(std::time::Duration::from_millis(1)));
        self
    }
}

/// The smallest capacity any shard may hold, given the configured total and
/// shard count.
pub(crate) fn floor_bytes(total_capacity: u64, shards: usize) -> u64 {
    let fair_share = total_capacity as f64 / shards.max(1) as f64;
    (MIN_SHARD_FRACTION * fair_share).floor() as u64
}

/// The number of bytes one pass moves (at least one).
pub(crate) fn step_bytes(total_capacity: u64, shards: usize) -> u64 {
    let fair_share = total_capacity as f64 / shards.max(1) as f64;
    ((STEP_FRACTION * fair_share).round() as u64).max(1)
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// The per-shard signal a rebalance pass compares (see [`RebalanceConfig`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ShardSignal {
    /// Rejections + evictions accumulated since the previous pass.
    pub pressure: u64,
    /// The shard's *loss*: the aggregate profit (Eq. 5) of the sets it would
    /// evict to donate one step of capacity.  [`Profit::ZERO`] when the
    /// shard is empty or the step fits in free space.
    pub loss: Profit,
    /// The shard's *gain*: the aggregate profit of the densest packing of
    /// denied-residency sets (§2.4 retained information) that would fit into
    /// one received step of capacity.  `None` when the policy retains no
    /// such information — the planner then falls back to pressure.
    pub gain: Option<Profit>,
    /// Current capacity in bytes.
    pub capacity_bytes: u64,
}

impl ShardSignal {
    /// Reads the signal from a locked shard cache, pricing a transfer of
    /// `step_bytes`.
    pub fn observe<V>(
        cache: &mut dyn QueryCache<V>,
        last_pressure: u64,
        step_bytes: u64,
        now: crate::clock::Timestamp,
    ) -> Self
    where
        V: crate::value::CachePayload,
    {
        let stats = cache.stats();
        let cumulative = stats.rejections + stats.evictions;
        let loss = cache
            .shrink_loss(step_bytes, now)
            .or_else(|| cache.min_cached_profit(now))
            .unwrap_or(Profit::ZERO);
        ShardSignal {
            pressure: cumulative.saturating_sub(last_pressure),
            loss,
            gain: cache.grow_gain(step_bytes, now),
            capacity_bytes: cache.capacity_bytes(),
        }
    }
}

/// The outcome of one rebalance pass, for diagnostics and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceOutcome {
    /// The shard that gave up capacity.
    pub donor: usize,
    /// The shard that received it.
    pub recipient: usize,
    /// Bytes moved.
    pub moved_bytes: u64,
    /// Keys the donor evicted to shrink into its new capacity.
    pub evicted: Vec<crate::key::QueryKey>,
}

/// Picks the (donor, recipient, amount) for one pass, or `None` when the
/// signals do not justify a move.
///
/// `signals[i]` is shard *i*'s observation; `floor` the minimum capacity any
/// shard may keep; `step` the most bytes one pass may move.
///
/// The recipient is the shard whose received step would win the most: the
/// aggregate profit of the densest packing of sets it denied residency
/// ([`gain`](ShardSignal::gain), from §2.4 retained information), falling
/// back to raw pressure for policies that retain nothing.  The donor is the
/// shard whose donated step costs the least ([`loss`](ShardSignal::loss):
/// the aggregate profit of the victims its own replacement policy would
/// pick).  Capacity moves only when the recipient's gain strictly exceeds
/// the donor's loss with a hysteresis margin — the across-shard analogue of
/// the paper's admission rule Eq. 4: admit a capacity step into a shard only
/// if the sets it will keep are worth more than the sets the donor must give
/// up.  A shard with no pressure never receives (more capacity cannot help a
/// shard that is not shedding anything), so a balanced engine sits at a
/// fixed point.
pub(crate) fn plan_transfer(
    signals: &[ShardSignal],
    floor: u64,
    step: u64,
) -> Option<(usize, usize, u64)> {
    if signals.len() < 2 || step == 0 {
        return None;
    }
    let supported = signals.iter().any(|s| s.gain.is_some());
    let recipient = if supported {
        signals
            .iter()
            .enumerate()
            .filter(|(_, s)| s.pressure > 0)
            .max_by(|a, b| {
                (a.1.gain.unwrap_or(Profit::ZERO))
                    .cmp(&b.1.gain.unwrap_or(Profit::ZERO))
                    .then(a.1.pressure.cmp(&b.1.pressure))
                    .then(b.0.cmp(&a.0))
            })?
            .0
    } else {
        signals
            .iter()
            .enumerate()
            .filter(|(_, s)| s.pressure > 0)
            .max_by(|a, b| a.1.pressure.cmp(&b.1.pressure).then(b.0.cmp(&a.0)))?
            .0
    };
    // The donor is the cheapest-to-shrink shard still above the floor.
    let donor = signals
        .iter()
        .enumerate()
        .filter(|(i, s)| *i != recipient && s.capacity_bytes > floor)
        .min_by(|a, b| {
            (a.1.loss)
                .cmp(&b.1.loss)
                .then(a.1.pressure.cmp(&b.1.pressure))
                .then(a.0.cmp(&b.0))
        })?
        .0;
    if supported {
        // Eq. 4 across shards, with a hysteresis margin: profits are noisy
        // estimates, and paying real evictions for a move that prices as a
        // wash is how a rebalancer starts thrashing.
        const HYSTERESIS: f64 = 1.25;
        let gain = signals[recipient].gain.unwrap_or(Profit::ZERO);
        if gain.value() <= signals[donor].loss.value() * HYSTERESIS || gain == Profit::ZERO {
            return None;
        }
        // The move must not be symmetric: when the donor's own denied sets
        // are worth about as much as the recipient's, the reverse transfer
        // would price as a win too, and executing both directions in
        // alternation just pays evictions to stand still.
        const ASYMMETRY: f64 = 4.0;
        let donor_gain = signals[donor].gain.unwrap_or(Profit::ZERO);
        if gain.value() <= donor_gain.value() * ASYMMETRY {
            return None;
        }
    } else if signals[recipient].pressure <= signals[donor].pressure {
        // No retained-information signal anywhere (non-LNC policies): fall
        // back to pure pressure comparison.
        return None;
    }
    let amount = step.min(signals[donor].capacity_bytes - floor);
    if amount == 0 {
        return None;
    }
    Some((donor, recipient, amount))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal(pressure: u64, loss: f64, gain: f64, capacity: u64) -> ShardSignal {
        ShardSignal {
            pressure,
            loss: Profit::new(loss),
            gain: Some(Profit::new(gain)),
            capacity_bytes: capacity,
        }
    }

    fn unpriced(pressure: u64, capacity: u64) -> ShardSignal {
        ShardSignal {
            pressure,
            loss: Profit::ZERO,
            gain: None,
            capacity_bytes: capacity,
        }
    }

    #[test]
    fn config_sanitization_clamps_domains() {
        let config = RebalanceConfig::new()
            .with_period(std::time::Duration::ZERO)
            .sanitized();
        assert_eq!(config.period, Some(std::time::Duration::from_millis(1)));
        let manual = RebalanceConfig::new().manual().sanitized();
        assert_eq!(manual.period, None, "manual mode survives sanitization");
    }

    #[test]
    fn floor_scales_with_fair_share() {
        assert_eq!(floor_bytes(1_000, 4), 125);
        assert_eq!(floor_bytes(1_000, 1), 500);
        assert_eq!(floor_bytes(0, 4), 0);
    }

    #[test]
    fn transfer_moves_from_cheap_victims_to_valuable_denials() {
        // Shard 1 keeps turning away a high-profit set (denied 5.0); shard 0's
        // next victim is nearly worthless (marginal 0.1): grow 1 at 0's cost.
        let signals = [
            signal(0, 0.1, 0.0, 250),
            signal(9, 2.0, 5.0, 250),
            signal(2, 1.0, 0.5, 250),
        ];
        let (donor, recipient, amount) = plan_transfer(&signals, 50, 100).unwrap();
        assert_eq!(donor, 0);
        assert_eq!(recipient, 1);
        assert_eq!(amount, 100);
    }

    #[test]
    fn pressureless_shards_never_receive() {
        // Shard 0 denies the most valuable sets but sheds nothing this
        // period: only shard 1 is eligible to receive, and its gain (1.0)
        // does not beat shard 0's marginal loss (9.0).  No move either way.
        let signals = [signal(0, 9.0, 20.0, 250), signal(5, 1.0, 1.0, 250)];
        assert_eq!(plan_transfer(&signals, 0, 100), None);
    }

    #[test]
    fn transfer_respects_the_floor() {
        let signals = [signal(0, 0.1, 0.0, 60), signal(9, 2.0, 5.0, 440)];
        // Donor has only 10 bytes above the floor: the step is truncated.
        let (donor, _, amount) = plan_transfer(&signals, 50, 100).unwrap();
        assert_eq!(donor, 0);
        assert_eq!(amount, 10);
        // At the floor exactly, no donor qualifies.
        let at_floor = [signal(0, 0.1, 0.0, 50), signal(9, 2.0, 5.0, 450)];
        assert_eq!(plan_transfer(&at_floor, 50, 100), None);
    }

    #[test]
    fn balanced_signals_reach_a_fixed_point() {
        // Gains equal losses everywhere: growing any shard would displace
        // sets worth exactly as much as it would admit.
        let signals = [signal(3, 1.0, 1.0, 250), signal(3, 1.0, 1.0, 250)];
        assert_eq!(plan_transfer(&signals, 0, 100), None);
    }

    #[test]
    fn gain_must_exceed_the_donors_loss() {
        // Shard 1's best denied set (0.5) is worth less than shard 0's next
        // victim (1.0): shrinking 0 to grow 1 would lose saved cost.
        let signals = [signal(2, 1.0, 0.2, 250), signal(8, 0.8, 0.5, 250)];
        assert_eq!(plan_transfer(&signals, 0, 100), None);
    }

    #[test]
    fn pressure_fallback_when_nothing_is_priced() {
        // Policies without retained information (gain unavailable
        // everywhere): capacity follows raw rejection/eviction pressure.
        let signals = [unpriced(0, 250), unpriced(7, 250)];
        let (donor, recipient, _) = plan_transfer(&signals, 0, 50).unwrap();
        assert_eq!(donor, 0);
        assert_eq!(recipient, 1);
        // Equal pressure: no move.
        let balanced = [unpriced(4, 250), unpriced(4, 250)];
        assert_eq!(plan_transfer(&balanced, 0, 50), None);
    }

    #[test]
    fn comparable_gain_and_loss_do_not_move() {
        // Gain 1.1 vs loss 1.0 is within the hysteresis margin: pricing a
        // wash as a win is how thrashing starts.
        let signals = [signal(2, 1.0, 0.9, 250), signal(8, 1.2, 1.1, 250)];
        assert_eq!(plan_transfer(&signals, 0, 100), None);
    }

    #[test]
    fn single_shard_never_transfers() {
        assert_eq!(plan_transfer(&[signal(9, 1.0, 1.0, 500)], 0, 100), None);
    }
}
