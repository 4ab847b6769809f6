//! Streaming aggregation over results-log records: per-cell summaries,
//! per-axis power-law fits, and scaling-law verdicts.
//!
//! The aggregator consumes [`CellRecord`]s one at a time — per-cell
//! statistics stream through [`Summary`] (mean/CI) and [`P2Quantile`]
//! (median/p95) without buffering trial vectors, and only `(n, mean cost)`
//! points per fit series are retained — so a log far larger than memory
//! could still aggregate. `finish()` fits `cost ≈ C·n^k` per
//! `(protocol, coordinates)` series in log–log space
//! ([`fit_power_law_detailed`]) and derives the verdicts: the headline
//! exponent claims the paper's comparison is about, then the degradation
//! claims, each a row checked along every ladder of its axis.
//!
//! This is the repo's one fit of the scaling law and its one judge of the
//! paper's ordering. The sweep reports read it, and so does experiment E4:
//! it pushes its same-instance reports through [`SweepAggregator`] and
//! prints each fit's [`GroupFit::exponent_text`] and each [`Verdict`] as
//! `report.md` does.

use crate::log::{nonzero_parts, CellCoords, CellRecord, FaultLevel};
use geogossip_analysis::{
    fit_power_law_detailed, ConfidenceInterval, P2Quantile, PowerLawFitDetail, Summary,
};
use std::cmp::Ordering;
use std::fmt;

/// z-score of the reports' 95% confidence intervals.
pub const REPORT_Z: f64 = 1.96;

/// Aggregate statistics of one sweep cell, reduced from its trials.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// Cell index in expansion order.
    pub index: u64,
    /// Cell name.
    pub name: String,
    /// Protocol key (registry name + params).
    pub protocol: String,
    /// Every other axis coordinate but `n`: the fit-grouping key, and the
    /// rung the degradation ladders place the cell on.
    pub coords: CellCoords,
    /// Network size.
    pub n: usize,
    /// Stop target.
    pub epsilon: f64,
    /// Trials recorded.
    pub trials: u64,
    /// Trials that reached the target.
    pub converged: u64,
    /// Mean total transmissions ("messages").
    pub mean_transmissions: f64,
    /// 95% CI around the transmission mean.
    pub ci_transmissions: ConfidenceInterval,
    /// Streaming median of total transmissions (P², exact for ≤ 5 trials).
    pub median_transmissions: f64,
    /// Streaming p95 of total transmissions.
    pub p95_transmissions: f64,
    /// Mean routed one-hop transmissions ("hops").
    pub mean_hops: f64,
    /// 95% CI around the hop mean.
    pub ci_hops: ConfidenceInterval,
    /// Mean engine ticks.
    pub mean_ticks: f64,
    /// 95% CI around the tick mean.
    pub ci_ticks: ConfidenceInterval,
    /// Streaming median of engine ticks.
    pub median_ticks: f64,
    /// Mean protocol rounds.
    pub mean_rounds: f64,
    /// Mean final relative error; +∞ when any trial diverged.
    pub mean_final_error: f64,
    /// Mean whole-trial wall-clock seconds (timing — kept out of the
    /// equality-checked report files).
    pub mean_seconds: f64,
    /// Mean engine wall-clock seconds.
    pub mean_engine_seconds: f64,
}

impl CellSummary {
    fn new(record: &CellRecord) -> Self {
        let mut tx = Summary::new();
        let mut hops = Summary::new();
        let mut ticks = Summary::new();
        let mut rounds = Summary::new();
        let mut error = Summary::new();
        let mut seconds = Summary::new();
        let mut engine_seconds = Summary::new();
        let mut tx_median = P2Quantile::new(0.5);
        let mut tx_p95 = P2Quantile::new(0.95);
        let mut ticks_median = P2Quantile::new(0.5);
        let mut converged = 0u64;
        for trial in &record.trials {
            tx.push(trial.transmissions as f64);
            hops.push(trial.routing as f64);
            ticks.push(trial.ticks as f64);
            rounds.push(trial.rounds as f64);
            error.push(trial.final_error);
            seconds.push(trial.seconds);
            engine_seconds.push(trial.engine_seconds);
            tx_median.push(trial.transmissions as f64);
            tx_p95.push(trial.transmissions as f64);
            ticks_median.push(trial.ticks as f64);
            if trial.converged {
                converged += 1;
            }
        }
        CellSummary {
            index: record.index,
            name: record.name.clone(),
            protocol: record.protocol.clone(),
            coords: record.coords.clone(),
            n: record.n,
            epsilon: record.epsilon,
            trials: record.trials.len() as u64,
            converged,
            mean_transmissions: tx.mean(),
            ci_transmissions: tx.confidence_interval(REPORT_Z),
            median_transmissions: tx_median.value().unwrap_or(0.0),
            p95_transmissions: tx_p95.value().unwrap_or(0.0),
            mean_hops: hops.mean(),
            ci_hops: hops.confidence_interval(REPORT_Z),
            mean_ticks: ticks.mean(),
            ci_ticks: ticks.confidence_interval(REPORT_Z),
            median_ticks: ticks_median.value().unwrap_or(0.0),
            mean_rounds: rounds.mean(),
            mean_final_error: error.mean(),
            mean_seconds: seconds.mean(),
            mean_engine_seconds: engine_seconds.mean(),
        }
    }
}

/// A fitted power law `mean transmissions ≈ C·n^k` for one
/// `(protocol, coordinates)` series of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupFit {
    /// Protocol key of the series.
    pub protocol: String,
    /// The coordinates every cell of the series shares; only `n` varies.
    pub coords: CellCoords,
    /// Number of `(n, cost)` points fitted.
    pub points: usize,
    /// Cells of this series excluded from the fit because not every trial
    /// converged — their transmission counts are cap-saturated, not
    /// cost-to-ε, and would flatten the exponent.
    pub excluded: usize,
    /// The detailed fit (exponent, prefactor, R², exponent stderr).
    pub detail: PowerLawFitDetail,
    /// 95% confidence interval around the exponent.
    pub interval: ConfidenceInterval,
}

impl GroupFit {
    /// The exponent's 95% interval as the reports print it,
    /// `{prefix}[lower, upper]`. A fit through two sizes has no residual
    /// degree of freedom, so it reads `no CI: 2 points` instead of a
    /// zero-width interval.
    pub(crate) fn interval_text(&self, prefix: &str) -> String {
        if self.detail.dof == 0 {
            return "no CI: 2 points".into();
        }
        format!(
            "{prefix}[{:.3}, {:.3}]",
            self.interval.lower, self.interval.upper
        )
    }

    /// The exponent as verdicts and E4 print it, with its interval and R²:
    /// `k = 1.328 (95% CI [1.244, 1.411], R² = 0.998)`.
    pub fn exponent_text(&self) -> String {
        format!(
            "k = {:.3} ({}, R² = {:.3})",
            self.detail.fit.exponent,
            self.interval_text("95% CI "),
            self.detail.fit.r_squared
        )
    }
}

/// One machine-checked claim about the fitted exponents.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The claim, in words.
    pub claim: String,
    /// Whether the sweep's numbers support it.
    pub holds: bool,
    /// The numbers behind the call.
    pub details: String,
}

/// The verdict line of `report.md` and E4: `PASS **claim** — details`.
impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let call = if self.holds { "PASS" } else { "FAIL" };
        write!(f, "{call} **{}** — {}", self.claim, self.details)
    }
}

/// The paper's predicted exponent window for plain geographic gossip
/// (`~n^{3/2}√log n` ⇒ a log–log fit lands near 1.5).
pub const GEOGRAPHIC_EXPONENT_RANGE: (f64, f64) = (1.3, 1.7);

/// A `(protocol, coordinates)` series key.
type SeriesKey = (String, CellCoords);

/// The accumulating `(n, cost)` points of one series, plus how many cells
/// were left out of the fit.
#[derive(Debug, Default)]
struct SeriesPoints {
    points: Vec<(f64, f64)>,
    excluded: usize,
}

/// Streaming aggregator: push records, then [`SweepAggregator::finish`].
#[derive(Debug, Default)]
pub struct SweepAggregator {
    cells: Vec<CellSummary>,
    // (protocol, coordinates) → (n, mean transmissions) points,
    // insertion-ordered.
    series: Vec<(SeriesKey, SeriesPoints)>,
}

impl SweepAggregator {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one record into the running aggregate. Only cells whose trials
    /// **all converged** contribute fit points: a cell that hit its
    /// tick/transmission cap reports the cap, not the cost-to-ε, and would
    /// silently flatten the fitted exponent. Excluded cells are counted per
    /// series ([`GroupFit::excluded`]) so the report can say so.
    pub fn push(&mut self, record: &CellRecord) {
        let summary = CellSummary::new(record);
        let key = (summary.protocol.clone(), summary.coords.clone());
        let series = match self.series.iter_mut().find(|(k, _)| *k == key) {
            Some((_, series)) => series,
            None => {
                self.series.push((key, SeriesPoints::default()));
                &mut self.series.last_mut().expect("just pushed").1
            }
        };
        if summary.trials > 0 && summary.converged == summary.trials {
            series
                .points
                .push((summary.n as f64, summary.mean_transmissions));
        } else {
            series.excluded += 1;
        }
        self.cells.push(summary);
    }

    /// Completes the aggregation: sorts each series by `n`, fits the power
    /// laws, and derives the verdicts.
    pub fn finish(mut self) -> SweepAggregate {
        self.cells.sort_by_key(|c| c.index);
        let mut fits = Vec::new();
        for ((protocol, coords), mut series) in self.series {
            series
                .points
                .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("n is finite"));
            let xs: Vec<f64> = series.points.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = series.points.iter().map(|p| p.1).collect();
            if let Some(detail) = fit_power_law_detailed(&xs, &ys) {
                fits.push(GroupFit {
                    protocol,
                    coords,
                    points: series.points.len(),
                    excluded: series.excluded,
                    interval: detail.exponent_interval(REPORT_Z),
                    detail,
                });
            }
        }
        let mut verdicts = derive_verdicts(&fits);
        verdicts.extend(degradation_verdicts(&self.cells));
        SweepAggregate {
            cells: self.cells,
            fits,
            verdicts,
        }
    }
}

/// The finished aggregate: per-cell summaries, per-series fits, verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAggregate {
    /// Per-cell summaries in cell order.
    pub cells: Vec<CellSummary>,
    /// Per-`(protocol, coordinates)` power-law fits.
    pub fits: Vec<GroupFit>,
    /// Machine-checked scaling claims.
    pub verdicts: Vec<Verdict>,
}

/// Derives the headline scaling verdicts from the fitted exponents, each
/// claim naming the protocol key of every series it compares:
///
/// * plain geographic gossip lands in the paper's predicted window
///   [`GEOGRAPHIC_EXPONENT_RANGE`];
/// * every affine variant scales **strictly below** geographic gossip on the
///   same axis combination;
/// * geographic gossip scales strictly below pairwise gossip (the
///   `n^{3/2}` vs `n²` separation of Dimakis et al.).
fn derive_verdicts(fits: &[GroupFit]) -> Vec<Verdict> {
    fn base_name(protocol: &str) -> &str {
        protocol.split('{').next().unwrap_or(protocol)
    }
    let geographic: Vec<&GroupFit> = fits
        .iter()
        .filter(|f| base_name(&f.protocol) == "geographic")
        .collect();
    let mut verdicts = Vec::new();
    for fit in &geographic {
        let (lo, hi) = GEOGRAPHIC_EXPONENT_RANGE;
        verdicts.push(Verdict {
            claim: format!(
                "{} gossip exponent within [{lo}, {hi}] ({})",
                fit.protocol, fit.coords
            ),
            holds: (lo..=hi).contains(&fit.detail.fit.exponent),
            details: format!("fitted {}", fit.exponent_text()),
        });
    }
    // The claim that `lower`, named `lower_name`, scales below `upper`.
    let below = |lower: &GroupFit, lower_name: String, upper: &GroupFit| {
        let (kl, ku) = (lower.detail.fit.exponent, upper.detail.fit.exponent);
        Verdict {
            claim: format!(
                "{lower_name} scales strictly below {} gossip ({})",
                upper.protocol, upper.coords
            ),
            holds: kl < ku,
            details: format!(
                "k[{}] = {kl:.3} ({}) vs k[{}] = {ku:.3} ({})",
                lower.protocol,
                lower.interval_text("95% CI "),
                upper.protocol,
                upper.interval_text("95% CI ")
            ),
        }
    };
    for geo in &geographic {
        for other in fits.iter().filter(|f| f.coords == geo.coords) {
            let name = base_name(&other.protocol);
            if name.starts_with("affine") {
                verdicts.push(below(other, other.protocol.clone(), geo));
            } else if name == "pairwise" {
                verdicts.push(below(geo, format!("{} gossip", geo.protocol), other));
            }
        }
    }
    verdicts
}

/// Slack factor of the degradation verdicts: error floors must be monotone in
/// fault severity and cost inflation bounded by `1/(1-p)` — each up to this
/// multiplicative tolerance, absorbing trial noise without hiding regressions.
pub const DEGRADATION_SLACK: f64 = 1.5;

/// Upper drop rate below which convergence must still be reached: losing up
/// to half of all transmissions slows gossip but cannot stall it, because
/// every surviving exchange still contracts the error.
pub const CONVERGENCE_DROP_CEILING: f64 = 0.5;

/// Upper bound on transmission-cost inflation across a latency ladder,
/// relative to the ladder's lowest rung (its zero-latency rung when it has
/// one): message delay staleness wastes some exchanges but must not blow the
/// cost up by more than this factor at the mean latencies the committed
/// sweeps probe (≲ a few clock slots).
pub const LATENCY_COST_CEILING: f64 = 3.0;

/// Upper drop rate below which an unreliable wire with retries must still
/// reach convergence: with the default retry budget a message's end-to-end
/// loss probability at `p = 0.3` is `p⁴ < 1%`, so nearly every round
/// completes and gossip keeps contracting.
pub const RELIABILITY_DROP_CEILING: f64 = 0.3;

/// The coordinate a degradation ladder climbs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Axis {
    /// Injected faults, by stale fraction (it moves the floor), then drop
    /// rate (it moves the cost), then churn.
    Faults,
    /// Mean message latency on a lossless wire, from the shared-memory
    /// engine up.
    Latency,
    /// Wire loss, by drop (it costs retransmissions and rounds), then
    /// duplication (it only wastes uncharged copies).
    Loss,
}

impl Axis {
    /// The cell's coordinates with this axis at its baseline — no faults,
    /// the shared-memory engine, a lossless wire — which every rung of the
    /// cell's ladder shares. `None` keeps a lossy wire off the latency axis:
    /// it climbs the loss axis.
    fn rest(self, coords: &CellCoords) -> Option<CellCoords> {
        let mut rest = coords.clone();
        match self {
            Axis::Faults => rest.faults = FaultLevel::default(),
            Axis::Latency if coords.wire.is_some_and(|w| w.is_lossy()) => return None,
            Axis::Latency => rest.wire = None,
            Axis::Loss => {
                if let Some(wire) = &mut rest.wire {
                    (wire.drop, wire.dup) = (0.0, 0.0);
                }
            }
        }
        Some(rest)
    }

    /// Where the rung sits on the axis, compared lexicographically.
    fn severity(self, coords: &CellCoords) -> [f64; 3] {
        let [mean, drop, dup] = wire_values(coords);
        match self {
            Axis::Faults => [
                coords.faults.stale,
                coords.faults.drop,
                coords.faults.churn as f64,
            ],
            Axis::Latency => [mean, 0.0, 0.0],
            Axis::Loss => [drop, dup, 0.0],
        }
    }

    /// The rung's loss rate when loss is all that degrades it along this
    /// axis: a fault level without stale nodes or churn, any wire.
    fn pure_loss(self, coords: &CellCoords) -> Option<f64> {
        let faults = coords.faults;
        match self {
            Axis::Faults => (faults.stale == 0.0 && faults.churn == 0).then_some(faults.drop),
            Axis::Latency => None,
            Axis::Loss => Some(wire_values(coords)[1]),
        }
    }

    /// How verdict details name the rung (`none`, `lat=0.01`, `drop=0.3`…).
    fn rung(self, coords: &CellCoords) -> String {
        let [mean, drop, dup] = wire_values(coords);
        match self {
            Axis::Faults => coords.faults.to_string(),
            Axis::Latency if coords.wire.is_none() => "shared-memory".into(),
            Axis::Latency => format!("lat={mean}"),
            Axis::Loss => nonzero_parts(&[("drop", drop), ("dup", dup)], "lossless"),
        }
    }

    /// How verdict details name the rung a ladder's costs are held against.
    fn baseline(self) -> &'static str {
        match self {
            Axis::Faults => "baseline",
            Axis::Latency => "zero-latency baseline",
            Axis::Loss => "lossless baseline",
        }
    }
}

/// A wire's mean latency, drop and duplication; zeros on shared memory.
fn wire_values(coords: &CellCoords) -> [f64; 3] {
    coords
        .wire
        .map_or([0.0; 3], |w| [w.latency.mean(), w.drop, w.dup])
}

/// A per-rung quantity a [`Check::Monotone`] claim follows up a ladder.
#[derive(Debug, Clone, Copy)]
enum Metric {
    /// Mean final relative error, printed `err(rung) = 0.0480`.
    Error,
    /// Mean total transmissions, printed `tx(rung) = 1000`.
    Transmissions,
}

impl Metric {
    /// The rung's value, and how verdict details print it.
    fn of(self, axis: Axis, cell: &CellSummary) -> (f64, String) {
        let rung = axis.rung(&cell.coords);
        match self {
            Metric::Error => (
                cell.mean_final_error,
                format!("err({rung}) = {:.4}", cell.mean_final_error),
            ),
            Metric::Transmissions => (
                cell.mean_transmissions,
                format!("tx({rung}) = {:.0}", cell.mean_transmissions),
            ),
        }
    }
}

/// What a degradation claim checks along one ladder.
#[derive(Debug, Clone, Copy)]
enum Check {
    /// Climbing a rung never lowers the metric by more than
    /// [`DEGRADATION_SLACK`]: degradation can only hurt. A rung whose value
    /// is not finite (a diverged trial) fails the check outright.
    Monotone(Metric),
    /// Every rung converged on all of its trials: every rung whose pure loss
    /// rate is at most the ceiling, or every rung at all.
    Converged(Option<f64>),
    /// A pure-loss rung at rate `p > 0` costs at most
    /// `baseline · DEGRADATION_SLACK / (1-p)^power`, one `1/(1-p)` factor per
    /// way loss wastes transmissions. No verdict without such a rung.
    LossBound(i32),
    /// No rung costs more than this factor times the first, the axis
    /// baseline when the ladder has one.
    Ceiling(f64),
}

impl Check {
    /// Whether the ladder upholds the check and the numbers behind the call,
    /// or `None` when the check has nothing to judge.
    fn run(self, axis: Axis, rungs: &[&CellSummary]) -> Option<(bool, String)> {
        let mut holds = true;
        let mut details = Vec::new();
        match self {
            Check::Monotone(metric) => {
                for pair in rungs.windows(2) {
                    let (lo, lo_text) = metric.of(axis, pair[0]);
                    let (hi, hi_text) = metric.of(axis, pair[1]);
                    if hi * DEGRADATION_SLACK < lo || !lo.is_finite() || !hi.is_finite() {
                        holds = false;
                    }
                    details.push(format!("{lo_text} → {hi_text}"));
                }
            }
            Check::Converged(ceiling) => {
                for cell in rungs {
                    let pure_loss = axis.pure_loss(&cell.coords);
                    if ceiling.is_some_and(|max| pure_loss.is_none_or(|p| p > max)) {
                        continue;
                    }
                    holds &= cell.trials > 0 && cell.converged == cell.trials;
                    let rung = axis.rung(&cell.coords);
                    let (converged, trials) = (cell.converged, cell.trials);
                    details.push(format!("{rung}: {converged}/{trials} trials converged"));
                }
            }
            Check::LossBound(power) => {
                let lossy: Vec<(f64, &CellSummary)> = rungs
                    .iter()
                    .filter_map(|cell| Some((axis.pure_loss(&cell.coords)?, *cell)))
                    .filter(|(p, _)| *p > 0.0)
                    .collect();
                if lossy.is_empty() {
                    return None;
                }
                let Some(baseline) = rungs
                    .iter()
                    .find(|cell| axis.rest(&cell.coords).as_ref() == Some(&cell.coords))
                    .map(|cell| cell.mean_transmissions)
                else {
                    return Some((false, format!("no {} rung in the ladder", axis.baseline())));
                };
                for (p, cell) in lossy {
                    let bound = baseline * DEGRADATION_SLACK / (1.0 - p).powi(power);
                    let (tx, tx_text) = Metric::Transmissions.of(axis, cell);
                    if tx > bound {
                        holds = false;
                    }
                    let name = axis.baseline();
                    details.push(format!(
                        "{tx_text} vs bound {bound:.0} ({name} {baseline:.0})"
                    ));
                }
            }
            Check::Ceiling(factor) => {
                let baseline = rungs[0].mean_transmissions;
                let bound = baseline * factor;
                let worst = rungs
                    .iter()
                    .map(|cell| cell.mean_transmissions)
                    .fold(f64::NEG_INFINITY, f64::max);
                holds = worst <= bound;
                // A ladder without a zero-severity rung holds its costs
                // against its lowest rung: name that rung, not the baseline.
                let name = if axis.severity(&rungs[0].coords) == [0.0; 3] {
                    axis.baseline().to_string()
                } else {
                    format!("lowest rung {}:", axis.rung(&rungs[0].coords))
                };
                details.push(format!(
                    "worst rung {worst:.0} tx vs bound {bound:.0} ({name} {baseline:.0})"
                ));
            }
        }
        Some((holds, details.join("; ")))
    }
}

/// The degradation claims in report order; each is checked along every
/// ladder of its axis. Degradation can only hurt, so neither the error
/// floor nor the cost may fall as a ladder climbs. Dropping a `p`-fraction
/// of activations wastes their cost without compounding: one `1/(1-p)`. A
/// lossy wire adds a second, for rounds stalled behind retry timeouts, to
/// the first, for charged attempts per delivered message.
#[rustfmt::skip]
fn claims() -> [(Axis, String, Check); 9] {
    use Axis::{Faults, Latency, Loss};
    use Check::{Ceiling, Converged, LossBound, Monotone};
    use Metric::{Error, Transmissions};
    [
        (Faults, "error floor monotone in fault severity".into(), Monotone(Error)),
        (Faults, format!("convergence retained at drop rates ≤ {CONVERGENCE_DROP_CEILING}"),
            Converged(Some(CONVERGENCE_DROP_CEILING))),
        (Faults, "transmission cost inflation bounded by 1/(1-p)".into(), LossBound(1)),
        (Latency, "convergence retained at every latency rung".into(), Converged(None)),
        (Latency, "transmission cost monotone in mean latency".into(), Monotone(Transmissions)),
        (Latency, format!("transmission cost inflation bounded by {LATENCY_COST_CEILING}x at \
                           every latency rung"), Ceiling(LATENCY_COST_CEILING)),
        (Loss, format!("convergence retained with retries at drop rates ≤ \
                        {RELIABILITY_DROP_CEILING}"), Converged(Some(RELIABILITY_DROP_CEILING))),
        (Loss, "retransmission cost inflation bounded by 1/(1-p)\u{b2}".into(), LossBound(2)),
        (Loss, "error floor monotone in wire loss severity".into(), Monotone(Error)),
    ]
}

/// A ladder's protocol key, `n`, and coordinates at the axis baseline.
type LadderKey<'a> = (&'a str, usize, CellCoords);

/// The ladders along `axis`, each under its label: the cells that share
/// protocol key, `n` and every coordinate but the axis, in severity order
/// (ties keep cell order). A ladder is kept when it has at least two rungs
/// and one of them is off the axis's baseline.
fn ladders(cells: &[CellSummary], axis: Axis) -> Vec<(String, Vec<&CellSummary>)> {
    let mut ladders: Vec<(LadderKey, Vec<&CellSummary>)> = Vec::new();
    for cell in cells {
        let Some(rest) = axis.rest(&cell.coords) else {
            continue;
        };
        let key = (cell.protocol.as_str(), cell.n, rest);
        match ladders.iter_mut().find(|(k, _)| *k == key) {
            Some((_, rungs)) => rungs.push(cell),
            None => ladders.push((key, vec![cell])),
        }
    }
    ladders
        .into_iter()
        .filter(|((.., rest), rungs)| rungs.len() >= 2 && rungs.iter().any(|c| c.coords != *rest))
        .map(|((protocol, n, rest), mut rungs)| {
            rungs.sort_by(|a, b| {
                let (a, b) = (axis.severity(&a.coords), axis.severity(&b.coords));
                let mut order = a.iter().zip(&b).map(|(x, y)| x.total_cmp(y));
                order.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
            });
            (format!("{protocol}, {rest}, n={n}"), rungs)
        })
        .collect()
}

/// Checks every degradation claim along every ladder of its axis: the fault
/// ladders first, then latency, then loss, each ladder's claims together.
fn degradation_verdicts(cells: &[CellSummary]) -> Vec<Verdict> {
    let claims = claims();
    let mut verdicts = Vec::new();
    for axis in [Axis::Faults, Axis::Latency, Axis::Loss] {
        for (label, rungs) in ladders(cells, axis) {
            for (_, claim, check) in claims.iter().filter(|(a, ..)| *a == axis) {
                if let Some((holds, details)) = check.run(axis, &rungs) {
                    verdicts.push(Verdict {
                        claim: format!("{claim} ({label})"),
                        holds,
                        details,
                    });
                }
            }
        }
    }
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::TrialOutcome;

    fn trial(transmissions: u64, ticks: u64) -> TrialOutcome {
        TrialOutcome {
            converged: true,
            transmissions,
            routing: transmissions / 2,
            local: transmissions - transmissions / 2,
            control: 0,
            rounds: ticks,
            ticks,
            final_error: 0.04,
            seconds: 0.1,
            engine_seconds: 0.08,
        }
    }

    fn record(index: u64, protocol: &str, n: usize, cost: u64) -> CellRecord {
        CellRecord {
            index,
            name: format!("s/c{index:04}-{protocol}-n{n}"),
            protocol: protocol.into(),
            coords: CellCoords::parse("unit-square/uniform-square/cc=1.5/eps=0.05").unwrap(),
            n,
            epsilon: 0.05,
            trials: vec![trial(cost - 10, 100), trial(cost + 10, 120)],
        }
    }

    /// Synthetic records with exact power-law mean costs.
    fn power_law_records(protocol: &str, k: f64, start_index: u64) -> Vec<CellRecord> {
        [64usize, 128, 256, 512]
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let cost = (3.0 * (n as f64).powf(k)).round() as u64;
                record(start_index + i as u64, protocol, n, cost)
            })
            .collect()
    }

    #[test]
    fn cell_summaries_compute_means_cis_and_quantiles() {
        let mut agg = SweepAggregator::new();
        agg.push(&record(0, "pairwise", 64, 1000));
        let result = agg.finish();
        let cell = &result.cells[0];
        assert_eq!(cell.trials, 2);
        assert_eq!(cell.converged, 2);
        assert!((cell.mean_transmissions - 1000.0).abs() < 1e-9);
        assert!((cell.median_transmissions - 1000.0).abs() < 1e-9);
        assert!(cell.ci_transmissions.contains(1000.0));
        assert!((cell.mean_ticks - 110.0).abs() < 1e-9);
        assert!((cell.mean_hops - 500.0).abs() < 1.0);
        assert!((cell.mean_seconds - 0.1).abs() < 1e-12);
        // One cell alone cannot support a fit.
        assert!(result.fits.is_empty());
    }

    #[test]
    fn fits_recover_planted_exponents_with_intervals() {
        let mut agg = SweepAggregator::new();
        for r in power_law_records("geographic", 1.5, 0) {
            agg.push(&r);
        }
        for r in power_law_records("affine-idealized", 1.05, 4) {
            agg.push(&r);
        }
        for r in power_law_records("pairwise", 2.0, 8) {
            agg.push(&r);
        }
        let result = agg.finish();
        assert_eq!(result.fits.len(), 3);
        for fit in &result.fits {
            let expected = match fit.protocol.as_str() {
                "geographic" => 1.5,
                "affine-idealized" => 1.05,
                "pairwise" => 2.0,
                other => panic!("unexpected series {other}"),
            };
            assert!(
                (fit.detail.fit.exponent - expected).abs() < 0.02,
                "{}: fitted {} expected {expected}",
                fit.protocol,
                fit.detail.fit.exponent
            );
            // The CI is symmetric around the fitted exponent (the planted
            // value can fall just outside it: integer-rounding the costs
            // biases the fit while leaving a near-zero stderr).
            assert!(fit.interval.contains(fit.detail.fit.exponent));
            assert!(fit.interval.width() >= 0.0);
            assert_eq!(fit.points, 4);
        }
    }

    #[test]
    fn verdicts_cover_the_headline_claims_and_hold_on_planted_data() {
        let mut agg = SweepAggregator::new();
        for r in power_law_records("geographic", 1.5, 0) {
            agg.push(&r);
        }
        for r in power_law_records("affine-idealized", 1.05, 4) {
            agg.push(&r);
        }
        for r in power_law_records("pairwise", 2.0, 8) {
            agg.push(&r);
        }
        let result = agg.finish();
        assert_eq!(result.verdicts.len(), 3);
        assert!(
            result.verdicts.iter().all(|v| v.holds),
            "{:#?}",
            result.verdicts
        );
        assert!(result
            .verdicts
            .iter()
            .any(|v| v.claim.contains("within [1.3, 1.7]")));
        assert!(result
            .verdicts
            .iter()
            .any(|v| v.claim.contains("strictly below geographic")));
        assert!(result
            .verdicts
            .iter()
            .any(|v| v.claim.contains("strictly below pairwise")));
    }

    /// Each affine variant is judged against geographic gossip on its own, in
    /// fit order: one that breaks the ordering fails while the other passes.
    /// The verdict line and a two-size exponent read as the reports print
    /// them.
    #[test]
    fn every_affine_variant_gets_its_own_verdict() {
        let mut agg = SweepAggregator::new();
        let planted = [
            ("geographic", 1.5),
            ("affine-idealized", 1.05),
            ("affine-recursive", 2.2),
        ];
        for (i, (protocol, k)) in planted.into_iter().enumerate() {
            for r in power_law_records(protocol, k, 4 * i as u64) {
                agg.push(&r);
            }
        }
        let result = agg.finish();
        let below: Vec<&Verdict> = result
            .verdicts
            .iter()
            .filter(|v| v.claim.contains("scales strictly below geographic gossip"))
            .collect();
        assert_eq!(below.len(), 2, "{:#?}", result.verdicts);
        assert!(below[0].holds, "{}", below[0]);
        assert!(
            below[0].claim.starts_with("affine-idealized "),
            "{}",
            below[0]
        );
        let line = below[1].to_string();
        assert!(
            line.starts_with("FAIL **affine-recursive scales strictly below"),
            "{line}"
        );
        assert!(
            line.contains("k[affine-recursive] = 2.200 (95% CI ["),
            "{line}"
        );

        let mut two_sizes = SweepAggregator::new();
        for (index, n) in [64u64, 128].into_iter().enumerate() {
            let cost = (3.0 * (n as f64).powf(1.5)).round() as u64;
            two_sizes.push(&record(index as u64, "geographic", n as usize, cost));
        }
        let fits = two_sizes.finish().fits;
        assert_eq!(
            fits[0].exponent_text(),
            "k = 1.500 (no CI: 2 points, R² = 1.000)"
        );
    }

    #[test]
    fn verdicts_flag_violations() {
        let mut agg = SweepAggregator::new();
        // Geographic planted at k = 2.5: outside the window, and *below*
        // nothing — an affine series planted above it must fail the
        // strictly-below verdict.
        for r in power_law_records("geographic", 2.5, 0) {
            agg.push(&r);
        }
        for r in power_law_records("affine-idealized", 2.8, 4) {
            agg.push(&r);
        }
        let result = agg.finish();
        assert!(
            result.verdicts.iter().all(|v| !v.holds),
            "{:#?}",
            result.verdicts
        );
    }

    #[test]
    fn non_converged_cells_are_excluded_from_fits_and_counted() {
        let mut agg = SweepAggregator::new();
        let mut records = power_law_records("geographic", 1.5, 0);
        // Saturate the largest-n cell at a cap: one trial fails to converge
        // and its cost is far off the power law.
        let last = records.last_mut().unwrap();
        last.trials[0].converged = false;
        last.trials[0].transmissions = 1_000_000_000;
        for r in &records {
            agg.push(r);
        }
        let result = agg.finish();
        assert_eq!(result.fits.len(), 1);
        let fit = &result.fits[0];
        assert_eq!(fit.points, 3, "the saturated cell must not be fitted");
        assert_eq!(fit.excluded, 1);
        assert!(
            (fit.detail.fit.exponent - 1.5).abs() < 0.02,
            "exponent distorted by a cap-saturated cell: {}",
            fit.detail.fit.exponent
        );
        // The excluded cell still appears in the per-cell summaries.
        assert_eq!(result.cells.len(), 4);
        assert_eq!(result.cells[3].converged, 1);
    }

    /// A record at one rung of a degradation ladder: `tail` follows the
    /// base key (empty for a fault-free shared-memory cell).
    fn rung_record(
        index: u64,
        tail: &str,
        cost: u64,
        final_error: f64,
        converged: bool,
    ) -> CellRecord {
        let key = format!("unit-square/uniform-square/cc=1.5/eps=0.05/{tail}");
        let mut t = trial(cost, 100);
        t.final_error = final_error;
        t.converged = converged;
        CellRecord {
            index,
            name: format!("s/c{index:04}-pairwise-n96"),
            protocol: "pairwise".into(),
            coords: CellCoords::parse(key.trim_end_matches('/')).expect("a key the lab writes"),
            n: 96,
            epsilon: 0.05,
            trials: vec![t],
        }
    }

    #[test]
    fn degradation_verdicts_pass_on_a_well_behaved_ladder() {
        let mut agg = SweepAggregator::new();
        agg.push(&rung_record(0, "", 1000, 0.048, true));
        agg.push(&rung_record(1, "drop=0.1", 1100, 0.047, true));
        agg.push(&rung_record(2, "drop=0.3", 1400, 0.049, true));
        agg.push(&rung_record(3, "drop=0.1+stale=0.05", 1200, 0.09, false));
        let result = agg.finish();
        let degradation: Vec<&Verdict> = result
            .verdicts
            .iter()
            .filter(|v| !v.claim.contains("exponent"))
            .collect();
        assert_eq!(degradation.len(), 3, "{:#?}", result.verdicts);
        assert!(
            degradation.iter().all(|v| v.holds),
            "{:#?}",
            result.verdicts
        );
        assert!(degradation
            .iter()
            .any(|v| v.claim.contains("error floor monotone")));
        assert!(degradation
            .iter()
            .any(|v| v.claim.contains("convergence retained")));
        assert!(degradation
            .iter()
            .any(|v| v.claim.contains("cost inflation bounded")));
    }

    #[test]
    fn degradation_verdicts_flag_each_failure_mode() {
        // Error floor *collapsing* under faults (nonsense → fail), a
        // non-converged pure-drop cell below the ceiling, and runaway cost.
        let mut agg = SweepAggregator::new();
        agg.push(&rung_record(0, "", 1000, 0.048, true));
        agg.push(&rung_record(1, "drop=0.3", 9000, 0.002, false));
        let result = agg.finish();
        let degradation: Vec<&Verdict> = result
            .verdicts
            .iter()
            .filter(|v| !v.claim.contains("exponent"))
            .collect();
        assert_eq!(degradation.len(), 3);
        assert!(
            degradation.iter().all(|v| !v.holds),
            "{:#?}",
            result.verdicts
        );
    }

    #[test]
    fn a_diverged_trial_fails_its_ladders_error_floor() {
        // A fault ladder whose floor falls from 0.048 to 0.02 behind a rung
        // holding a diverged trial, and one whose last rung holds one.
        let ladders: [[&[f64]; 3]; 2] = [
            [&[0.048], &[f64::INFINITY, 0.06], &[0.02]],
            [&[0.048], &[0.05], &[0.06, f64::INFINITY]],
        ];
        for (errors, diverged) in ladders.iter().zip(["drop=0.1", "drop=0.3"]) {
            let mut agg = SweepAggregator::new();
            for (index, (tail, errors)) in
                ["", "drop=0.1", "drop=0.3"].iter().zip(errors).enumerate()
            {
                let mut record = rung_record(index as u64, tail, 1000, 0.0, true);
                record.trials = errors
                    .iter()
                    .map(|&final_error| TrialOutcome {
                        final_error,
                        converged: final_error <= 0.05,
                        ..trial(1000, 100)
                    })
                    .collect();
                agg.push(&record);
            }
            let result = agg.finish();
            let cell = result
                .cells
                .iter()
                .find(|c| c.coords.faults.to_string() == diverged);
            assert_eq!(cell.map(|c| c.mean_final_error), Some(f64::INFINITY));
            let floor = result
                .verdicts
                .iter()
                .find(|v| v.claim.contains("error floor monotone"))
                .expect("the ladder gets an error-floor verdict");
            assert!(!floor.holds, "{floor:#?}");
            assert!(
                floor.details.contains(&format!("err({diverged}) = inf")),
                "{floor:#?}"
            );
        }
    }

    #[test]
    fn degradation_verdicts_need_at_least_two_fault_levels() {
        let mut agg = SweepAggregator::new();
        agg.push(&rung_record(0, "", 1000, 0.048, true));
        let result = agg.finish();
        assert!(result.verdicts.is_empty(), "{:#?}", result.verdicts);
    }

    #[test]
    fn latency_verdicts_pass_on_a_well_behaved_ladder() {
        let mut agg = SweepAggregator::new();
        agg.push(&rung_record(0, "", 1000, 0.048, true));
        agg.push(&rung_record(1, "lat=instant", 1000, 0.048, true));
        agg.push(&rung_record(2, "lat=fixed:0.005", 1200, 0.047, true));
        agg.push(&rung_record(3, "lat=exp:0.01", 1600, 0.049, true));
        let result = agg.finish();
        let latency: Vec<&Verdict> = result
            .verdicts
            .iter()
            .filter(|v| v.claim.contains("latency"))
            .collect();
        assert_eq!(latency.len(), 3, "{:#?}", result.verdicts);
        assert!(latency.iter().all(|v| v.holds), "{:#?}", result.verdicts);
        assert!(latency.iter().any(|v| v
            .claim
            .contains("convergence retained at every latency rung")));
        assert!(latency
            .iter()
            .any(|v| v.claim.contains("cost monotone in mean latency")));
        assert!(latency
            .iter()
            .any(|v| v.claim.contains("cost inflation bounded")));
        // No fault-degradation verdicts piggy-back on a pure latency ladder.
        assert_eq!(result.verdicts.len(), 3, "{:#?}", result.verdicts);
    }

    #[test]
    fn latency_verdicts_flag_each_failure_mode() {
        // A rung that fails to converge, costs *less* than a lower rung by
        // more than slack, and blows through the inflation ceiling.
        let mut agg = SweepAggregator::new();
        agg.push(&rung_record(0, "lat=instant", 9000, 0.048, true));
        agg.push(&rung_record(1, "lat=exp:0.01", 1000, 0.2, false));
        let mut failing = rung_record(2, "lat=exp:0.02", 40000, 0.3, true);
        failing.trials[0].transmissions = 40000;
        agg.push(&failing);
        let result = agg.finish();
        let latency: Vec<&Verdict> = result
            .verdicts
            .iter()
            .filter(|v| v.claim.contains("latency"))
            .collect();
        assert_eq!(latency.len(), 3);
        assert!(latency.iter().all(|v| !v.holds), "{:#?}", result.verdicts);
    }

    #[test]
    fn latency_ceiling_names_the_rung_its_bound_comes_from() {
        let ceiling = |tails: [&str; 2]| {
            let mut agg = SweepAggregator::new();
            agg.push(&rung_record(0, tails[0], 1910, 0.048, true));
            agg.push(&rung_record(1, tails[1], 2026, 0.048, true));
            let verdicts = agg.finish().verdicts.into_iter();
            let mut ceiling = verdicts.filter(|v| v.claim.contains("inflation bounded by 3x"));
            ceiling.next().expect("a ceiling verdict").details
        };
        assert_eq!(
            ceiling(["lat=fixed:0.002", "lat=exp:0.004"]),
            "worst rung 2026 tx vs bound 5730 (lowest rung lat=0.002: 1910)"
        );
        assert_eq!(
            ceiling(["lat=instant", "lat=exp:0.004"]),
            "worst rung 2026 tx vs bound 5730 (zero-latency baseline 1910)"
        );
    }

    #[test]
    fn latency_verdicts_need_a_transported_rung() {
        // Two shared-memory cells in the same group never form a ladder
        // (they are one cell's group in real sweeps anyway), and a single
        // transported cell has nothing to compare against.
        let mut agg = SweepAggregator::new();
        agg.push(&rung_record(0, "lat=instant", 1000, 0.048, true));
        let result = agg.finish();
        assert!(result.verdicts.is_empty(), "{:#?}", result.verdicts);
    }

    /// A rung of a reliability ladder: the instant wire, plus `rel_tail`.
    fn reliability_record(
        index: u64,
        rel_tail: &str,
        cost: u64,
        final_error: f64,
        converged: bool,
    ) -> CellRecord {
        let tail = format!("lat=instant/{rel_tail}");
        rung_record(index, &tail, cost, final_error, converged)
    }

    #[test]
    fn reliability_verdicts_pass_on_a_well_behaved_ladder() {
        let mut agg = SweepAggregator::new();
        agg.push(&reliability_record(0, "", 1000, 0.048, true));
        agg.push(&reliability_record(
            1,
            "rel=drop:0.1+dup:0",
            1150,
            0.048,
            true,
        ));
        agg.push(&reliability_record(
            2,
            "rel=drop:0.3+dup:0",
            1500,
            0.049,
            true,
        ));
        agg.push(&reliability_record(
            3,
            "rel=drop:0.3+dup:0.05",
            1550,
            0.049,
            true,
        ));
        let result = agg.finish();
        let reliability: Vec<&Verdict> = result
            .verdicts
            .iter()
            .filter(|v| {
                v.claim.contains("retries")
                    || v.claim.contains("retransmission")
                    || v.claim.contains("wire loss")
            })
            .collect();
        assert_eq!(reliability.len(), 3, "{:#?}", result.verdicts);
        assert!(
            reliability.iter().all(|v| v.holds),
            "{:#?}",
            result.verdicts
        );
        assert!(reliability
            .iter()
            .any(|v| v.claim.contains("convergence retained with retries")));
        assert!(reliability
            .iter()
            .any(|v| v.claim.contains("cost inflation bounded by 1/(1-p)")));
        assert!(reliability.iter().any(|v| v
            .claim
            .contains("error floor monotone in wire loss severity")));
        // The lossless rungs do not double as a latency ladder.
        assert_eq!(result.verdicts.len(), 3, "{:#?}", result.verdicts);
    }

    #[test]
    fn reliability_verdicts_flag_each_failure_mode() {
        // A below-ceiling rung that fails to converge, costs far beyond the
        // 1/(1-p) bound, and *improves* the error floor by more than slack.
        let mut agg = SweepAggregator::new();
        agg.push(&reliability_record(0, "", 1000, 0.048, true));
        agg.push(&reliability_record(
            1,
            "rel=drop:0.3+dup:0",
            10_000,
            0.01,
            false,
        ));
        let result = agg.finish();
        let reliability: Vec<&Verdict> = result
            .verdicts
            .iter()
            .filter(|v| {
                v.claim.contains("retries")
                    || v.claim.contains("retransmission")
                    || v.claim.contains("wire loss")
            })
            .collect();
        assert_eq!(reliability.len(), 3, "{:#?}", result.verdicts);
        assert!(
            reliability.iter().all(|v| !v.holds),
            "{:#?}",
            result.verdicts
        );
    }

    #[test]
    fn reliability_verdicts_need_a_lossy_rung() {
        let mut agg = SweepAggregator::new();
        agg.push(&reliability_record(0, "", 1000, 0.048, true));
        let result = agg.finish();
        assert!(result.verdicts.is_empty(), "{:#?}", result.verdicts);
    }

    /// Two parameterised variants of one protocol are two series: they form
    /// no degradation ladder, and every claim names the variants it judged.
    #[test]
    fn parameterised_variants_are_told_apart() {
        let geographic = [
            "geographic{selector=nearest-position}",
            "geographic{selector=uniform-index}",
        ];
        let affine = "affine-idealized{coefficient-fraction=0.3}";
        let mut agg = SweepAggregator::new();
        for (i, (protocol, k)) in [(geographic[0], 1.5), (geographic[1], 1.4), (affine, 1.1)]
            .into_iter()
            .enumerate()
        {
            for (j, n) in [64usize, 128].into_iter().enumerate() {
                let cost = (3.0 * (n as f64).powf(k)).round() as u64;
                agg.push(&record((2 * i + j) as u64, protocol, n, cost));
            }
        }
        let result = agg.finish();
        assert_eq!(result.fits.len(), 3);
        let claims: Vec<&str> = result.verdicts.iter().map(|v| v.claim.as_str()).collect();
        assert_eq!(claims.len(), 4, "{claims:#?}");
        let coords = "(unit-square/uniform-square/cc=1.5/eps=0.05)";
        for variant in geographic {
            let exponent = format!("{variant} gossip exponent within [1.3, 1.7] {coords}");
            let below = format!("{affine} scales strictly below {variant} gossip {coords}");
            assert!(claims.contains(&exponent.as_str()), "{claims:#?}");
            assert!(claims.contains(&below.as_str()), "{claims:#?}");
        }
    }

    #[test]
    fn push_order_does_not_change_the_aggregate() {
        let mut forward = SweepAggregator::new();
        let mut reverse = SweepAggregator::new();
        let records = power_law_records("geographic", 1.5, 0);
        for r in &records {
            forward.push(r);
        }
        for r in records.iter().rev() {
            reverse.push(r);
        }
        let a = forward.finish();
        let b = reverse.finish();
        assert_eq!(a.cells, b.cells);
        assert_eq!(a.fits, b.fits);
        assert_eq!(a.verdicts, b.verdicts);
    }
}
