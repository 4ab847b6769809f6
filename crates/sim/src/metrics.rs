//! Transmission accounting and convergence traces.
//!
//! The paper's cost model counts one-hop radio transmissions: a direct
//! neighbor exchange costs 2 (one packet each way), a geographically routed
//! exchange costs the number of hops of each leg, and flooding a cell costs
//! one transmission per member. Every protocol in the workspace charges its
//! communication to a [`TransmissionCounter`], and periodically records the
//! current ℓ₂ error into a [`ConvergenceTrace`]; all experiment tables and
//! figures are derived from these traces.

use serde::{Deserialize, Serialize};

/// Categorised counter of one-hop transmissions.
///
/// # Example
///
/// ```
/// use geogossip_sim::TransmissionCounter;
/// let mut tx = TransmissionCounter::new();
/// tx.charge_local(2);
/// tx.charge_routing(17);
/// tx.charge_control(5);
/// assert_eq!(tx.total(), 24);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransmissionCounter {
    local: u64,
    routing: u64,
    control: u64,
}

impl TransmissionCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `count` transmissions spent on one-hop neighbor exchanges
    /// (the `Near` subroutine and the Boyd baseline).
    pub fn charge_local(&mut self, count: u64) {
        self.local += count;
    }

    /// Charges `count` transmissions spent on multi-hop geographic routing
    /// (the `Far` subroutine and the Dimakis baseline).
    pub fn charge_routing(&mut self, count: u64) {
        self.routing += count;
    }

    /// Charges `count` transmissions spent on control traffic
    /// (`Activate.square` / `Deactivate.square` flooding and leader signalling).
    pub fn charge_control(&mut self, count: u64) {
        self.control += count;
    }

    /// Transmissions spent on local neighbor exchanges.
    pub fn local(&self) -> u64 {
        self.local
    }

    /// Transmissions spent on geographic routing.
    pub fn routing(&self) -> u64 {
        self.routing
    }

    /// Transmissions spent on control traffic.
    pub fn control(&self) -> u64 {
        self.control
    }

    /// Total transmissions across all categories.
    pub fn total(&self) -> u64 {
        self.local + self.routing + self.control
    }

    /// Adds another counter's totals into this one.
    pub fn absorb(&mut self, other: &TransmissionCounter) {
        self.local += other.local;
        self.routing += other.routing;
        self.control += other.control;
    }
}

/// One sample of a convergence trace: cost spent so far and error remaining.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TracePoint {
    /// Total transmissions charged when the sample was taken.
    pub transmissions: u64,
    /// Global clock ticks elapsed when the sample was taken.
    pub ticks: u64,
    /// Relative ℓ₂ error `‖x(t) − x̄·1‖ / ‖x(0) − x̄·1‖` at the sample.
    pub relative_error: f64,
}

/// A time series of [`TracePoint`]s describing one protocol run.
///
/// The trace is what experiment E3 plots (error vs transmissions) and what
/// experiment E4 reduces to a single "transmissions to reach ε" number.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceTrace {
    points: Vec<TracePoint>,
}

impl ConvergenceTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample. Samples should be pushed in non-decreasing
    /// transmission order; this is asserted in debug builds.
    pub fn push(&mut self, point: TracePoint) {
        debug_assert!(
            self.points
                .last()
                .is_none_or(|p| p.transmissions <= point.transmissions),
            "trace samples must be pushed in cost order"
        );
        self.points.push(point);
    }

    /// The recorded samples in order.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the trace has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The last recorded relative error, or `None` for an empty trace.
    pub fn final_error(&self) -> Option<f64> {
        self.points.last().map(|p| p.relative_error)
    }

    /// The smallest transmission count at which the relative error was at or
    /// below `epsilon`, or `None` if the trace never got there.
    pub fn transmissions_to_reach(&self, epsilon: f64) -> Option<u64> {
        self.points
            .iter()
            .find(|p| p.relative_error <= epsilon)
            .map(|p| p.transmissions)
    }

    /// The smallest tick count at which the relative error was at or below
    /// `epsilon`, or `None` if the trace never got there.
    pub fn ticks_to_reach(&self, epsilon: f64) -> Option<u64> {
        self.points
            .iter()
            .find(|p| p.relative_error <= epsilon)
            .map(|p| p.ticks)
    }

    /// Drops every sample whose tick index is not a multiple of `stride`,
    /// in place.
    ///
    /// This is the run kernel's trace-capping primitive: when a long run
    /// would accumulate unbounded [`TracePoint`]s, the kernel doubles its
    /// sampling stride and thins the already-recorded samples to match, so
    /// the trace always looks as if it had been sampled at the final stride
    /// from the start. The initial sample (tick 0) is always retained.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn thin_to_stride(&mut self, stride: u64) {
        assert!(stride > 0, "thinning stride must be positive");
        self.points.retain(|p| p.ticks.is_multiple_of(stride));
    }

    /// Renders the trace as a three-column table (`ticks`, `transmissions`,
    /// `relative-error`) for CSV/Markdown emission — the shape
    /// `geogossip run --trace-csv` writes, one file per trial, so the
    /// stride-thinned engine traces are plottable outside the report JSON.
    /// Errors use Rust's shortest-round-trip float formatting (parse back
    /// exactly).
    pub fn to_table(&self) -> geogossip_analysis::Table {
        let mut table =
            geogossip_analysis::Table::new(vec!["ticks", "transmissions", "relative-error"]);
        for point in &self.points {
            table.add_row(vec![
                point.ticks.to_string(),
                point.transmissions.to_string(),
                format!("{}", point.relative_error),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> ConvergenceTrace {
        let mut t = ConvergenceTrace::new();
        for i in 0..10u64 {
            t.push(TracePoint {
                transmissions: i * 100,
                ticks: i * 10,
                relative_error: 1.0 / (1.0 + i as f64),
            });
        }
        t
    }

    #[test]
    fn counter_categories_sum_to_total() {
        let mut tx = TransmissionCounter::new();
        tx.charge_local(5);
        tx.charge_routing(7);
        tx.charge_control(11);
        assert_eq!(tx.local(), 5);
        assert_eq!(tx.routing(), 7);
        assert_eq!(tx.control(), 11);
        assert_eq!(tx.total(), 23);
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = TransmissionCounter::new();
        a.charge_local(1);
        let mut b = TransmissionCounter::new();
        b.charge_routing(2);
        b.charge_control(3);
        a.absorb(&b);
        assert_eq!(a.total(), 6);
    }

    #[test]
    fn transmissions_to_reach_finds_first_crossing() {
        let t = sample_trace();
        // error 1/(1+i) <= 0.25 first at i = 3 → 300 transmissions.
        assert_eq!(t.transmissions_to_reach(0.25), Some(300));
        assert_eq!(t.ticks_to_reach(0.25), Some(30));
        assert_eq!(t.transmissions_to_reach(1e-6), None);
    }

    #[test]
    fn final_error_is_last_sample() {
        let t = sample_trace();
        assert!((t.final_error().unwrap() - 0.1).abs() < 1e-12);
        assert!(ConvergenceTrace::new().final_error().is_none());
    }

    #[test]
    fn thin_to_stride_keeps_multiples_and_the_origin() {
        let mut t = sample_trace(); // ticks 0, 10, 20, …, 90
        t.thin_to_stride(20);
        let ticks: Vec<u64> = t.points().iter().map(|p| p.ticks).collect();
        assert_eq!(ticks, vec![0, 20, 40, 60, 80]);
        // Thinning again at a doubled stride composes as expected.
        t.thin_to_stride(40);
        let ticks: Vec<u64> = t.points().iter().map(|p| p.ticks).collect();
        assert_eq!(ticks, vec![0, 40, 80]);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn thin_to_stride_rejects_zero() {
        sample_trace().thin_to_stride(0);
    }

    #[test]
    fn trace_table_has_one_row_per_point_and_round_trips_errors() {
        let t = sample_trace();
        let table = t.to_table();
        assert_eq!(table.len(), t.len());
        assert_eq!(
            table.headers(),
            &[
                "ticks".to_string(),
                "transmissions".into(),
                "relative-error".into()
            ]
        );
        // Every rendered error parses back to the exact stored bits.
        for (row, point) in table.rows().iter().zip(t.points()) {
            assert_eq!(row[0].parse::<u64>().unwrap(), point.ticks);
            assert_eq!(row[1].parse::<u64>().unwrap(), point.transmissions);
            assert_eq!(
                row[2].parse::<f64>().unwrap().to_bits(),
                point.relative_error.to_bits()
            );
        }
        let csv = table.to_csv();
        assert!(csv.starts_with("ticks,transmissions,relative-error\n"));
    }

    #[test]
    fn empty_trace_behaviour() {
        let t = ConvergenceTrace::new();
        assert!(t.is_empty());
        assert_eq!(t.transmissions_to_reach(0.5), None);
    }
}
