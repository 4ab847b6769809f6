//! Poisson clocks.
//!
//! Each sensor's clock is a unit-rate Poisson process, independent across
//! sensors (Section 2 of the paper). Equivalently there is a single global
//! clock that is Poisson with rate `n`, each tick being assigned to a sensor
//! chosen uniformly at random; the simulator uses this equivalent global view
//! because it is what the analysis (and the `t`-th "global clock tick"
//! notation) refers to.
//!
//! Two implementations share the identical draw sequence:
//! [`GlobalPoissonClock`] computes exact per-tick times, and
//! [`BatchedPoissonClock`] (the engine's hot-path clock) defers the gap
//! arithmetic into block reductions while staying bit-identical on the final
//! time and on every RNG draw.

use geogossip_geometry::point::NodeId;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A single clock tick: the absolute time at which it fires and the sensor it
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tick {
    /// Absolute simulation time of the tick.
    pub time: f64,
    /// Global tick index (1-based; the `t` of `x(t)` in the paper).
    pub index: u64,
    /// The sensor whose clock ticked.
    pub node: NodeId,
}

/// The global rate-`n` Poisson clock.
///
/// Inter-tick gaps are `Exp(n)`-distributed and each tick is assigned to a
/// node drawn uniformly at random, which is distributionally identical to `n`
/// independent unit-rate per-node clocks.
///
/// # Example
///
/// ```
/// use geogossip_sim::GlobalPoissonClock;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
/// let mut rng = ChaCha8Rng::seed_from_u64(9);
/// let mut clock = GlobalPoissonClock::new(10);
/// let a = clock.next_tick(&mut rng);
/// let b = clock.next_tick(&mut rng);
/// assert!(b.time > a.time);
/// assert_eq!(b.index, a.index + 1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlobalPoissonClock {
    n: usize,
    now: f64,
    ticks: u64,
}

impl GlobalPoissonClock {
    /// Creates the clock for a network of `n` sensors.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero — a network with no sensors has no clock.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a Poisson clock needs at least one sensor");
        GlobalPoissonClock {
            n,
            now: 0.0,
            ticks: 0,
        }
    }

    /// Number of sensors whose clocks are multiplexed onto this global clock.
    pub fn population(&self) -> usize {
        self.n
    }

    /// Current simulation time (time of the last tick, 0 before any tick).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of ticks drawn so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Draws the next tick: advances time by an `Exp(n)` gap and assigns the
    /// tick to a uniformly random sensor.
    pub fn next_tick<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Tick {
        let gap = geogossip_geometry::sampling::exponential(self.n as f64, rng);
        self.now += gap;
        self.ticks += 1;
        Tick {
            time: self.now,
            index: self.ticks,
            node: NodeId(rng.gen_range(0..self.n)),
        }
    }

    /// Resets the clock to time zero without changing the population.
    pub fn reset(&mut self) {
        self.now = 0.0;
        self.ticks = 0;
    }
}

/// Number of pending uniform draws a [`BatchedPoissonClock`] accumulates
/// before reducing them to elapsed time in one pass.
const GAP_BLOCK: usize = 1024;

/// The global Poisson clock with block-deferred gap reduction — the engine's
/// hot-path clock.
///
/// Draws the **same RNG stream in the same order** as
/// [`GlobalPoissonClock::next_tick`] (one uniform for the `Exp(n)` gap, then
/// the tick's node), so a protocol sharing the RNG with the clock sees
/// bit-identical randomness. What is deferred is only the *arithmetic* on the
/// gap draws: instead of computing `-(ln(1 − u)) / n` and accumulating it on
/// every tick, the raw uniforms are buffered and reduced `GAP_BLOCK` at a
/// time in a tight loop over contiguous memory, keeping the transcendental
/// call and the serial floating-point accumulation off the per-tick critical
/// path. Because the reduction performs exactly the per-tick operations in
/// exactly the per-tick order, [`BatchedPoissonClock::now`] is **bit-identical**
/// to the sequential clock's time after any number of ticks (pinned by tests
/// below and by the engine parity suite).
///
/// The deferral has one observable consequence: the `time` field of the
/// [`Tick`]s this clock hands out is the exact simulation time *as of the last
/// completed block reduction* (coarse, always ≤ the true tick time), not the
/// per-tick time. No protocol in the workspace reads per-tick time — the
/// engine reports only the final [`BatchedPoissonClock::now`], which flushes —
/// but a driver that needs exact per-tick times should use
/// [`GlobalPoissonClock`] instead.
#[derive(Debug, Clone)]
pub struct BatchedPoissonClock {
    n: usize,
    rate: f64,
    /// Exact simulation time through the last reduced block.
    flushed: f64,
    ticks: u64,
    /// Raw uniform gap draws awaiting reduction, in draw order.
    pending: Vec<f64>,
}

impl BatchedPoissonClock {
    /// Creates the clock for a network of `n` sensors.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero — a network with no sensors has no clock.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a Poisson clock needs at least one sensor");
        BatchedPoissonClock {
            n,
            rate: n as f64,
            flushed: 0.0,
            ticks: 0,
            pending: Vec::with_capacity(GAP_BLOCK),
        }
    }

    /// Number of sensors whose clocks are multiplexed onto this global clock.
    pub fn population(&self) -> usize {
        self.n
    }

    /// Number of ticks drawn so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Draws the next tick: buffers the `Exp(n)` gap draw for block reduction
    /// and assigns the tick to a uniformly random sensor.
    ///
    /// The returned [`Tick::time`] is the coarse block-boundary time (see the
    /// type-level docs); `index` and `node` are exact.
    pub fn next_tick<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Tick {
        // Same draw order as `GlobalPoissonClock::next_tick`: gap uniform
        // first (the draw `sampling::exponential` performs), then the node.
        let u: f64 = rng.gen::<f64>();
        self.pending.push(u);
        if self.pending.len() == GAP_BLOCK {
            self.reduce_pending();
        }
        self.ticks += 1;
        Tick {
            time: self.flushed,
            index: self.ticks,
            node: NodeId(rng.gen_range(0..self.n)),
        }
    }

    /// Reduces the buffered gap draws into `flushed`, replicating the
    /// sequential clock's per-tick arithmetic (`-(ln(1 − u)) / n`, accumulated
    /// left to right) so the running time stays bit-identical.
    fn reduce_pending(&mut self) {
        for &u in &self.pending {
            // Inverse-CDF sampling; `1 - u` avoids ln(0). This expression
            // must match `geogossip_geometry::sampling::exponential` exactly.
            self.flushed += -(1.0 - u).ln() / self.rate;
        }
        self.pending.clear();
    }

    /// Current simulation time (time of the last tick, 0 before any tick).
    /// Flushes any pending gap draws first, so the result is exact.
    pub fn now(&mut self) -> f64 {
        self.reduce_pending();
        self.flushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn time_is_strictly_increasing() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut clock = GlobalPoissonClock::new(50);
        let mut prev = 0.0;
        for _ in 0..1000 {
            let t = clock.next_tick(&mut rng);
            assert!(t.time > prev);
            prev = t.time;
        }
        assert_eq!(clock.ticks(), 1000);
    }

    #[test]
    fn mean_gap_is_one_over_n() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let n = 200;
        let mut clock = GlobalPoissonClock::new(n);
        let ticks = 50_000;
        for _ in 0..ticks {
            clock.next_tick(&mut rng);
        }
        let mean_gap = clock.now() / ticks as f64;
        assert!((mean_gap - 1.0 / n as f64).abs() < 0.1 / n as f64);
    }

    #[test]
    fn ticks_are_assigned_roughly_uniformly() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let n = 20;
        let mut clock = GlobalPoissonClock::new(n);
        let mut counts = vec![0usize; n];
        let draws = 40_000;
        for _ in 0..draws {
            counts[clock.next_tick(&mut rng).node.index()] += 1;
        }
        let expected = draws as f64 / n as f64;
        for &c in &counts {
            assert!(
                (c as f64 - expected).abs() < 0.15 * expected,
                "count {c} far from {expected}"
            );
        }
    }

    #[test]
    fn reset_rewinds_time_and_counter() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut clock = GlobalPoissonClock::new(5);
        clock.next_tick(&mut rng);
        clock.reset();
        assert_eq!(clock.now(), 0.0);
        assert_eq!(clock.ticks(), 0);
        assert_eq!(clock.population(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one sensor")]
    fn zero_population_rejected() {
        let _ = GlobalPoissonClock::new(0);
    }

    #[test]
    fn same_seed_gives_same_schedule() {
        let mut a = GlobalPoissonClock::new(30);
        let mut b = GlobalPoissonClock::new(30);
        let mut ra = ChaCha8Rng::seed_from_u64(7);
        let mut rb = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_tick(&mut ra), b.next_tick(&mut rb));
        }
    }

    /// The batched clock must consume the identical RNG stream and reduce to
    /// the identical time as the sequential clock — across block boundaries
    /// (the tick counts straddle multiples of the internal block size).
    #[test]
    fn batched_clock_is_bit_identical_to_sequential() {
        for &(n, ticks) in &[(1usize, 10u64), (7, 1000), (30, 1024), (64, 5000)] {
            let mut sequential = GlobalPoissonClock::new(n);
            let mut batched = BatchedPoissonClock::new(n);
            let mut rs = ChaCha8Rng::seed_from_u64(1234 ^ ticks);
            let mut rb = rs.clone();
            for _ in 0..ticks {
                let s = sequential.next_tick(&mut rs);
                let b = batched.next_tick(&mut rb);
                assert_eq!(s.index, b.index);
                assert_eq!(s.node, b.node);
                // Coarse time trails the exact time but never exceeds it.
                assert!(b.time <= s.time);
            }
            // Same RNG consumption: the two generators are in the same state.
            assert_eq!(
                rand::RngCore::next_u64(&mut rs),
                rand::RngCore::next_u64(&mut rb)
            );
            // Same accumulated time, bit for bit (the deferred reduction
            // performs the identical operations in the identical order).
            assert_eq!(batched.now().to_bits(), sequential.now().to_bits());
            assert_eq!(batched.ticks(), sequential.ticks());
        }
    }

    #[test]
    fn batched_clock_now_is_idempotent_and_population_is_kept() {
        let mut clock = BatchedPoissonClock::new(9);
        assert_eq!(clock.population(), 9);
        assert_eq!(clock.now(), 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        clock.next_tick(&mut rng);
        let t1 = clock.now();
        assert!(t1 > 0.0);
        assert_eq!(clock.now(), t1);
    }

    #[test]
    #[should_panic(expected = "at least one sensor")]
    fn batched_zero_population_rejected() {
        let _ = BatchedPoissonClock::new(0);
    }
}
