//! Loosely synchronized physical clocks.
//!
//! The paper's model (Section II-A): every replica has a physical clock
//! providing monotonically increasing timestamps, kept loosely in sync by a
//! protocol such as NTP. Clock-RSM's *correctness never depends on the
//! synchronization precision* — only its latency does — and the test suite
//! exploits this model to run the protocol under both sub-millisecond and
//! multi-second skews.
//!
//! Beyond the steady-state model, a clock can be scripted with
//! [`ClockAnomaly`] events at absolute virtual times — steps (forward or
//! backward), freezes (VM pauses), and drift bursts (a misbehaving
//! oscillator or an aggressive NTP slew). The chaos fuzzer composes these
//! into searched fault schedules; whatever the anomaly, observed reads
//! stay strictly monotonic (the `MonotonicStamper` guard), exactly like a
//! process using `CLOCK_MONOTONIC`-derived timestamps under a stepping
//! wall clock.

use rsm_core::time::{Micros, MonotonicStamper};

/// Parameters describing how one replica's physical clock deviates from
/// true (simulation) time.
///
/// The effective offset at true time `t` is
/// `clamp(offset_us + drift_ppm·t, -sync_bound_us, +sync_bound_us)`:
/// a fixed initial offset, linear drift, and an NTP-like bound that models
/// the synchronization daemon steering the clock back once it strays too
/// far. The clamp also captures the worst case — a clock pinned at the
/// bound.
///
/// # Examples
///
/// ```
/// use simnet::ClockModel;
/// let m = ClockModel::ntp(1_000); // |offset| ≤ 1 ms, like a good NTP sync
/// assert_eq!(m.sync_bound_us, 1_000);
/// let skewed = ClockModel::fixed_offset(-250);
/// assert_eq!(skewed.offset_us, -250);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockModel {
    /// Initial offset from true time, microseconds (may be negative).
    pub offset_us: i64,
    /// Drift rate in parts per million of elapsed true time.
    pub drift_ppm: f64,
    /// Bound enforced by the synchronization protocol: the effective offset
    /// never exceeds ±`sync_bound_us`.
    pub sync_bound_us: u64,
}

impl ClockModel {
    /// A perfect clock: zero offset, zero drift.
    pub fn perfect() -> Self {
        ClockModel {
            offset_us: 0,
            drift_ppm: 0.0,
            sync_bound_us: 0,
        }
    }

    /// An NTP-synchronized clock whose offset stays within
    /// ±`bound_us`, with no deliberate initial offset or drift. Drivers
    /// typically add per-replica initial offsets inside the bound.
    pub fn ntp(bound_us: u64) -> Self {
        ClockModel {
            offset_us: 0,
            drift_ppm: 0.0,
            sync_bound_us: bound_us,
        }
    }

    /// A clock with a constant offset and no drift; the bound is set to
    /// accommodate the offset exactly.
    pub fn fixed_offset(offset_us: i64) -> Self {
        ClockModel {
            offset_us,
            drift_ppm: 0.0,
            sync_bound_us: offset_us.unsigned_abs(),
        }
    }

    /// Adds drift in parts per million (positive = fast clock).
    pub fn with_drift_ppm(mut self, ppm: f64) -> Self {
        assert!(
            ppm > -500_000.0,
            "drift must keep the clock monotonic (> -500000 ppm)"
        );
        self.drift_ppm = ppm;
        self
    }
}

impl Default for ClockModel {
    fn default() -> Self {
        ClockModel::perfect()
    }
}

/// A scripted clock misbehaviour, applied at an absolute virtual time.
///
/// Anomalies mutate the clock's deviation model when their scheduled time
/// passes (lazily, at the next read). All of them widen the sync bound as
/// needed — an anomalous clock has, by definition, escaped its
/// synchronization daemon's steering for a while.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClockAnomaly {
    /// Step the clock by `delta_us` microseconds — positive (operator fat
    /// finger, leap smear gone wrong) or negative (NTP step correction; a
    /// backward step, through the monotonicity guard, pins the observed
    /// clock until true time catches back up).
    Step(i64),
    /// Pin the clock at its current value for the given duration — a VM
    /// pause or a stop-the-world event. When the freeze lifts, the clock
    /// resumes from the pinned value, permanently behind by the freeze
    /// duration (until the model's own drift/steering says otherwise).
    Freeze(Micros),
    /// Add `ppm` to the drift rate for `dur_us` of true time — a thermal
    /// excursion or an aggressive slew. The offset accumulated during the
    /// burst persists after it ends.
    DriftBurst {
        /// Drift delta in parts per million (positive = faster clock).
        ppm: f64,
        /// Burst length in microseconds of true time.
        dur_us: Micros,
    },
}

/// A replica's physical clock: deterministic deviation from simulation time
/// plus a strict-monotonicity guarantee on reads.
///
/// # Examples
///
/// ```
/// use simnet::{ClockModel, PhysicalClock};
/// let mut c = PhysicalClock::new(ClockModel::fixed_offset(500));
/// let a = c.read(10_000);
/// assert_eq!(a, 10_500);
/// let b = c.read(10_000); // same instant: strictly monotonic reads
/// assert!(b > a);
/// ```
#[derive(Debug, Clone)]
pub struct PhysicalClock {
    model: ClockModel,
    stamper: MonotonicStamper,
    /// Scripted anomalies not yet applied, sorted by time ascending.
    /// Applied lazily by [`read`](PhysicalClock::read) once their time
    /// passes.
    pending: Vec<(Micros, ClockAnomaly)>,
    /// An active freeze window, if any.
    frozen: Option<Freeze>,
}

/// An active freeze: the clock is pinned at `pinned` from `started` until
/// `until` (true time); thawing debits the lost interval from the offset.
#[derive(Debug, Clone, Copy)]
struct Freeze {
    started: Micros,
    until: Micros,
    pinned: Micros,
}

impl PhysicalClock {
    /// Creates a clock from its deviation model.
    pub fn new(model: ClockModel) -> Self {
        PhysicalClock {
            model,
            stamper: MonotonicStamper::new(),
            pending: Vec::new(),
            frozen: None,
        }
    }

    /// Creates a clock with a scripted anomaly schedule: each entry is
    /// applied once true time reaches it (at the next read). Entries need
    /// not be sorted.
    pub fn with_anomalies(model: ClockModel, anomalies: Vec<(Micros, ClockAnomaly)>) -> Self {
        let mut clock = PhysicalClock::new(model);
        for (at, a) in anomalies {
            clock.schedule_anomaly(at, a);
        }
        clock
    }

    /// Schedules an anomaly to strike at absolute true time `at`. Equal
    /// times apply in insertion order.
    pub fn schedule_anomaly(&mut self, at: Micros, anomaly: ClockAnomaly) {
        let pos = self.pending.partition_point(|&(t, _)| t <= at);
        self.pending.insert(pos, (at, anomaly));
    }

    /// The steady-state model value at true time `now` — offset, drift,
    /// and the sync-bound clamp, plus any active freeze pin. Scripted
    /// anomalies whose time has passed but that no mutable read has
    /// processed yet are not reflected.
    pub fn raw(&self, now: Micros) -> Micros {
        if let Some(f) = &self.frozen {
            if now < f.until {
                return f.pinned;
            }
        }
        self.model_value(now)
    }

    /// The pure deviation-model value at `now`, ignoring freezes.
    fn model_value(&self, now: Micros) -> Micros {
        let drift = self.model.drift_ppm * now as f64 / 1e6;
        let eff = (self.model.offset_us as f64 + drift)
            .clamp(
                -(self.model.sync_bound_us as f64),
                self.model.sync_bound_us as f64,
            )
            .round() as i64;
        // Clocks never go below zero at the start of the simulation.
        (now as i64 + eff).max(0) as Micros
    }

    /// Widens the sync bound to accommodate the current offset — an
    /// anomalous clock has, for a while, escaped its daemon's steering.
    fn widen_bound(&mut self) {
        self.model.sync_bound_us = self
            .model
            .sync_bound_us
            .max(self.model.offset_us.unsigned_abs());
    }

    /// Changes the drift rate at true time `at`, adjusting the offset so
    /// the model value is continuous at the switch point.
    fn set_drift(&mut self, at: Micros, new_ppm: f64) {
        let old = self.model.drift_ppm;
        self.model.offset_us += ((old - new_ppm) * at as f64 / 1e6).round() as i64;
        self.model.drift_ppm = new_ppm;
        self.widen_bound();
    }

    /// Applies every scripted anomaly (and freeze thaw) due at or before
    /// `now`, in chronological order.
    fn advance(&mut self, now: Micros) {
        loop {
            let next_at = self.pending.first().map(|&(t, _)| t).filter(|&t| t <= now);
            let thaw_at = self.frozen.map(|f| f.until).filter(|&t| t <= now);
            match (next_at, thaw_at) {
                (Some(a), Some(t)) if t <= a => self.thaw(),
                (_, Some(_)) if next_at.is_none() => self.thaw(),
                (Some(_), _) => {
                    let (at, anomaly) = self.pending.remove(0);
                    self.apply(at, anomaly);
                }
                (None, None) => return,
                _ => unreachable!("covered above"),
            }
        }
    }

    /// Ends the active freeze: the clock resumes from its pinned value,
    /// so the frozen interval is debited from the offset. (The drift
    /// accrued inside the window is not re-derived — sub-ppm error over
    /// the freeze, dwarfed by the freeze itself.)
    fn thaw(&mut self) {
        let f = self.frozen.take().expect("thaw without a freeze");
        self.model.offset_us -= (f.until - f.started) as i64;
        self.widen_bound();
    }

    fn apply(&mut self, at: Micros, anomaly: ClockAnomaly) {
        match anomaly {
            ClockAnomaly::Step(delta_us) => {
                self.model.offset_us += delta_us;
                self.widen_bound();
            }
            ClockAnomaly::Freeze(dur_us) => match &mut self.frozen {
                // Overlapping freezes merge into one longer window.
                Some(f) => f.until = f.until.max(at + dur_us),
                None => {
                    self.frozen = Some(Freeze {
                        started: at,
                        until: at + dur_us,
                        pinned: self.model_value(at),
                    });
                }
            },
            ClockAnomaly::DriftBurst { ppm, dur_us } => {
                // Pre-widen the bound by the drift the burst will
                // accumulate, so the clamp does not silently erase it.
                let accrued = (ppm.abs() * dur_us as f64 / 1e6).round() as u64;
                self.model.sync_bound_us = self.model.sync_bound_us.saturating_add(accrued);
                self.set_drift(at, self.model.drift_ppm + ppm);
                if dur_us > 0 {
                    // The burst's end is just the inverse drift change;
                    // the accumulated offset persists through it.
                    self.schedule_anomaly(
                        at + dur_us,
                        ClockAnomaly::DriftBurst {
                            ppm: -ppm,
                            dur_us: 0,
                        },
                    );
                }
            }
        }
    }

    /// Reads the clock at true time `now`. Successive reads return strictly
    /// increasing values even within the same simulated instant, matching
    /// the paper's use of `clock_gettime` monotonic timestamps. Readings
    /// are at least 1, so a zero timestamp can serve as a "never" sentinel.
    /// Scripted anomalies due by `now` are applied first, in order.
    pub fn read(&mut self, now: Micros) -> Micros {
        self.advance(now);
        let raw = self.raw(now).max(1);
        self.stamper.stamp(raw)
    }

    /// The deviation model this clock follows.
    pub fn model(&self) -> ClockModel {
        self.model
    }

    /// Shifts the clock's offset by `delta_us` (and widens the sync bound
    /// to accommodate it) — fault injection for a clock step, e.g. an
    /// operator fixing a misconfigured timezone or a VM migration. Reads
    /// remain strictly monotonic regardless of the jump direction.
    pub fn jump(&mut self, delta_us: i64) {
        self.model.offset_us += delta_us;
        self.widen_bound();
    }

    /// Starts a freeze at true time `now` for `dur_us` — immediate-mode
    /// fault injection (the event-driven twin of scheduling
    /// [`ClockAnomaly::Freeze`]).
    pub fn freeze(&mut self, now: Micros, dur_us: Micros) {
        self.advance(now);
        self.apply(now, ClockAnomaly::Freeze(dur_us));
    }

    /// Starts a drift burst at true time `now`: `ppm` extra drift for
    /// `dur_us` of true time, the accumulated offset persisting after.
    pub fn drift_burst(&mut self, now: Micros, ppm: f64, dur_us: Micros) {
        self.advance(now);
        self.apply(now, ClockAnomaly::DriftBurst { ppm, dur_us });
    }
}

impl rsm_core::node::Clock for PhysicalClock {
    fn read(&mut self, now: Micros) -> Micros {
        PhysicalClock::read(self, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clock_tracks_true_time() {
        let mut c = PhysicalClock::new(ClockModel::perfect());
        assert_eq!(c.read(1_000), 1_000);
        assert_eq!(c.read(2_000), 2_000);
    }

    #[test]
    fn offset_applies() {
        let mut fast = PhysicalClock::new(ClockModel::fixed_offset(300));
        let mut slow = PhysicalClock::new(ClockModel::fixed_offset(-300));
        assert_eq!(fast.read(10_000), 10_300);
        assert_eq!(slow.read(10_000), 9_700);
    }

    #[test]
    fn negative_clock_clamps_to_one_not_below() {
        let mut c = PhysicalClock::new(ClockModel::fixed_offset(-5_000));
        assert_eq!(c.read(1_000), 1, "reads never return the zero sentinel");
        assert_eq!(c.raw(1_000), 0, "the raw model may still floor at zero");
    }

    #[test]
    fn drift_accumulates_until_bound() {
        // 100 ppm fast, bound 1ms: after 1s the clock is +100us; after 20s
        // it would be +2ms but the NTP bound pins it at +1ms.
        let m = ClockModel::ntp(1_000).with_drift_ppm(100.0);
        let c = PhysicalClock::new(m);
        assert_eq!(c.raw(1_000_000), 1_000_100);
        assert_eq!(c.raw(20_000_000), 20_001_000);
    }

    #[test]
    fn reads_strictly_monotonic_at_same_instant() {
        let mut c = PhysicalClock::new(ClockModel::perfect());
        let a = c.read(500);
        let b = c.read(500);
        let d = c.read(500);
        assert!(a < b && b < d);
    }

    #[test]
    fn reads_monotonic_even_when_model_steps_back() {
        // A clock at the positive bound with negative drift would read
        // backwards without the stamper; reads must still increase.
        let m = ClockModel {
            offset_us: 1_000,
            drift_ppm: -200.0,
            sync_bound_us: 1_000,
        };
        let mut c = PhysicalClock::new(m);
        let mut prev = c.read(0);
        for t in (0..10_000_000).step_by(1_000_000) {
            let v = c.read(t);
            assert!(v > prev);
            prev = v;
        }
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn absurd_negative_drift_rejected() {
        let _ = ClockModel::perfect().with_drift_ppm(-600_000.0);
    }

    /// Reads every `step` micros up to `end`, asserting strict monotonicity
    /// throughout; returns the last observed value.
    fn assert_monotonic_sweep(c: &mut PhysicalClock, end: Micros, step: Micros) -> Micros {
        let mut prev = 0;
        let mut t = 0;
        while t <= end {
            let v = c.read(t);
            assert!(v > prev, "read({t}) = {v} not above previous {prev}");
            prev = v;
            t += step;
        }
        prev
    }

    #[test]
    fn scheduled_forward_step_applies_at_its_time() {
        let mut c = PhysicalClock::with_anomalies(
            ClockModel::perfect(),
            vec![(5_000, ClockAnomaly::Step(2_000))],
        );
        assert_eq!(c.read(4_999), 4_999, "before the step: true time");
        assert_eq!(c.read(5_000), 7_000, "at the step: +2ms");
        assert_eq!(c.read(6_000), 8_000, "offset persists");
    }

    #[test]
    fn scheduled_backward_step_pins_observed_clock() {
        let mut c = PhysicalClock::with_anomalies(
            ClockModel::perfect(),
            vec![(5_000, ClockAnomaly::Step(-2_000))],
        );
        let before = c.read(4_000);
        assert_eq!(before, 4_000);
        // Raw model is now behind true time, but observed reads only creep
        // forward (monotonicity guard) until true time catches up.
        let pinned = c.read(5_000);
        assert_eq!(pinned, before + 1, "observed clock pinned, +1 per read");
        assert_eq!(c.read(6_000), pinned + 1);
        // After true time passes the old observed value + step, raw wins again.
        assert_eq!(c.read(9_000), 7_000);
    }

    #[test]
    fn freeze_pins_then_resumes_behind() {
        let mut c = PhysicalClock::with_anomalies(
            ClockModel::perfect(),
            vec![(10_000, ClockAnomaly::Freeze(3_000))],
        );
        assert_eq!(c.read(9_000), 9_000);
        // Inside the window the raw clock is pinned at its freeze-start
        // value; the stamper turns repeated reads into +1 increments.
        assert_eq!(c.read(10_000), 10_000);
        assert_eq!(c.read(11_000), 10_001, "frozen: +1 per read");
        assert_eq!(c.read(12_999), 10_002, "still frozen");
        // Thawed: permanently behind by the 3ms freeze. Observed reads stay
        // monotonic and rejoin raw once it passes the pinned watermark.
        assert_eq!(c.read(14_000), 11_000);
        assert_eq!(c.read(20_000), 17_000);
    }

    #[test]
    fn drift_burst_accumulates_and_persists() {
        // +100000 ppm (10%) for 1s of true time → +100ms accumulated.
        let mut c = PhysicalClock::with_anomalies(
            ClockModel::perfect(),
            vec![(
                1_000_000,
                ClockAnomaly::DriftBurst {
                    ppm: 100_000.0,
                    dur_us: 1_000_000,
                },
            )],
        );
        assert_eq!(c.read(1_000_000), 1_000_000, "continuous at burst start");
        assert_eq!(c.read(1_500_000), 1_550_000, "half the burst: +50ms");
        assert_eq!(c.read(2_000_000), 2_100_000, "burst end: +100ms");
        assert_eq!(c.read(3_000_000), 3_100_000, "accumulated offset persists");
    }

    #[test]
    fn anomalies_apply_lazily_in_chronological_order() {
        // Scheduled out of order; a read far past both applies both, in time
        // order (step then freeze), ending behind by freeze − step.
        let mut c = PhysicalClock::new(ClockModel::perfect());
        c.schedule_anomaly(8_000, ClockAnomaly::Freeze(4_000));
        c.schedule_anomaly(2_000, ClockAnomaly::Step(1_000));
        assert_eq!(c.read(20_000), 17_000, "+1ms step, −4ms freeze");
    }

    #[test]
    fn reads_monotonic_across_every_anomaly_kind() {
        let mut c = PhysicalClock::with_anomalies(
            ClockModel::ntp(500).with_drift_ppm(40.0),
            vec![
                (100_000, ClockAnomaly::Step(250_000)),
                (400_000, ClockAnomaly::Freeze(300_000)),
                (
                    900_000,
                    ClockAnomaly::DriftBurst {
                        ppm: -80_000.0,
                        dur_us: 500_000,
                    },
                ),
                (1_600_000, ClockAnomaly::Step(-700_000)),
                // Overlapping freezes merge.
                (2_000_000, ClockAnomaly::Freeze(200_000)),
                (2_100_000, ClockAnomaly::Freeze(400_000)),
            ],
        );
        assert_monotonic_sweep(&mut c, 4_000_000, 7_919);
    }

    #[test]
    fn immediate_freeze_and_drift_burst_match_scheduled() {
        let mut scheduled = PhysicalClock::with_anomalies(
            ClockModel::perfect(),
            vec![
                (10_000, ClockAnomaly::Freeze(5_000)),
                (
                    30_000,
                    ClockAnomaly::DriftBurst {
                        ppm: 50_000.0,
                        dur_us: 10_000,
                    },
                ),
            ],
        );
        let mut immediate = PhysicalClock::new(ClockModel::perfect());
        immediate.read(5_000);
        scheduled.read(5_000);
        // Immediate calls model sim events firing AT that virtual time, so
        // they interleave with reads in time order.
        immediate.freeze(10_000, 5_000);
        for t in (10_000..30_000).step_by(1_000) {
            assert_eq!(scheduled.read(t), immediate.read(t), "diverged at {t}");
        }
        immediate.drift_burst(30_000, 50_000.0, 10_000);
        for t in (30_000..60_000).step_by(1_000) {
            assert_eq!(scheduled.read(t), immediate.read(t), "diverged at {t}");
        }
    }
}
