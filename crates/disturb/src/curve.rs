//! Monotone factor curves anchored to the paper's measurements.
//!
//! The disturbance model expresses every parameter response (aggressor
//! on-time, timing delays, temperature, …) as a piecewise-linear curve in
//! log–log space through anchor points taken directly from the paper. This
//! guarantees the reproduction hits the published factors exactly at the
//! published parameter values and interpolates smoothly between them.

use std::sync::Mutex;

/// A piecewise-linear interpolation in log–log space.
///
/// Evaluation clamps outside the anchored range (no extrapolation), so a
/// curve is also a statement of the validated parameter range.
#[derive(Debug, Clone, PartialEq)]
pub struct LogLogCurve {
    // (ln(x), ln(y)) pairs, ascending in x.
    points: Vec<(f64, f64)>,
}

impl LogLogCurve {
    /// Builds a curve through `(x, y)` anchors.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two anchors are given, any coordinate is not
    /// strictly positive and finite, or the `x` values are not strictly
    /// ascending.
    pub fn new(anchors: &[(f64, f64)]) -> LogLogCurve {
        assert!(anchors.len() >= 2, "a curve needs at least two anchors");
        let mut points = Vec::with_capacity(anchors.len());
        let mut last_x = f64::NEG_INFINITY;
        for &(x, y) in anchors {
            assert!(
                x.is_finite() && x > 0.0 && y.is_finite() && y > 0.0,
                "anchors must be positive and finite, got ({x}, {y})"
            );
            let lx = x.ln();
            assert!(lx > last_x, "anchor x values must be strictly ascending");
            last_x = lx;
            points.push((lx, y.ln()));
        }
        LogLogCurve { points }
    }

    /// Evaluates the curve at `x`, clamping outside the anchored range.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not strictly positive and finite.
    pub fn eval(&self, x: f64) -> f64 {
        assert!(x.is_finite() && x > 0.0, "curve input must be positive");
        let lx = x.ln();
        let first = self.points[0];
        let last = *self.points.last().expect("curve has anchors");
        if lx <= first.0 {
            return first.1.exp();
        }
        if lx >= last.0 {
            return last.1.exp();
        }
        // Invariant: first.0 < lx < last.0, so a bracketing segment exists.
        let idx = self
            .points
            .windows(2)
            .position(|w| lx <= w[1].0)
            .expect("bracketing segment exists");
        let (x0, y0) = self.points[idx];
        let (x1, y1) = self.points[idx + 1];
        let t = (lx - x0) / (x1 - x0);
        (y0 + t * (y1 - y0)).exp()
    }

    /// The anchored input range `(min_x, max_x)`.
    pub fn domain(&self) -> (f64, f64) {
        (
            self.points[0].0.exp(),
            self.points.last().expect("curve has anchors").0.exp(),
        )
    }
}

/// Solves for `mu` such that `E[1 / (1 + exp(mu + sigma * Z))] = target`
/// with `Z` standard normal.
///
/// Used to calibrate the shifted-log-normal susceptibility factors so the
/// fleet-average HC_first ratios match Table 2 (see `pud-disturb::vuln`).
/// The expectation is computed with a 400-interval trapezoid rule over
/// `z ∈ [-6, 6]`, which is exact enough (<1e-6) for the smooth integrand,
/// and `mu` is found by bisection on `[-60, 60]`.
///
/// The inputs depend only on a module family, so each distinct
/// `(target, sigma)` pair is solved once per process and later calls
/// return the memoized bits. Cold solves are counted under
/// `disturb.calibration_solves`.
///
/// # Panics
///
/// Panics unless `0 < target < 1` and `sigma > 0`.
pub fn solve_mu_for_inverse_mean(target: f64, sigma: f64) -> f64 {
    assert!(
        target > 0.0 && target < 1.0,
        "target mean of 1/(1+LN) must be in (0,1), got {target}"
    );
    assert!(sigma > 0.0, "sigma must be positive");
    // A family roster has a few dozen distinct inputs; a linear scan of
    // them costs nothing next to one solve. Solving under the lock makes
    // each key's solve happen exactly once. The only update is one push
    // of a finished entry, so a poisoned memo is still valid.
    static MEMO: Mutex<Vec<((u64, u64), f64)>> = Mutex::new(Vec::new());
    let key = (target.to_bits(), sigma.to_bits());
    let mut memo = MEMO.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&(_, mu)) = memo.iter().find(|(k, _)| *k == key) {
        return mu;
    }
    let mu = bisect_mu(target, sigma);
    pud_observe::counter("disturb.calibration_solves").incr();
    memo.push((key, mu));
    mu
}

/// `E[1 / (1 + exp(mu + sigma * Z))]`: trapezoid rule on `z ∈ [-6, 6]`.
fn inverse_mean(mu: f64, sigma: f64) -> f64 {
    let n = 400;
    let (a, b) = (-6.0f64, 6.0f64);
    let h = (b - a) / n as f64;
    let f = |z: f64| {
        let phi = (-0.5 * z * z).exp() / (std::f64::consts::TAU).sqrt();
        phi / (1.0 + (mu + sigma * z).exp())
    };
    let mut s = 0.5 * (f(a) + f(b));
    for i in 1..n {
        s += f(a + h * i as f64);
    }
    s * h
}

/// Bisects `inverse_mean(mu, sigma) = target` for at most 200 steps.
///
/// Each step is a function of the bracket alone, so the first step that
/// leaves `(lo, hi)` bit-for-bit unchanged is a fixed point: every later
/// step would repeat it, and stopping there returns exactly what all 200
/// steps would (at most 88 steps over the calibration inputs).
pub(crate) fn bisect_mu(target: f64, sigma: f64) -> f64 {
    // inverse_mean(mu) is strictly decreasing in mu.
    let (mut lo, mut hi) = (-60.0f64, 60.0f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let (next_lo, next_hi) = if inverse_mean(mid, sigma) > target {
            (mid, hi)
        } else {
            (lo, mid)
        };
        if next_lo.to_bits() == lo.to_bits() && next_hi.to_bits() == hi.to_bits() {
            break;
        }
        (lo, hi) = (next_lo, next_hi);
    }
    0.5 * (lo + hi)
}

/// The reference solve: no memo, 200 unconditional bisection steps, and
/// its own copy of the quadrature. Tests hold [`solve_mu_for_inverse_mean`]
/// and [`bisect_mu`] to it bit for bit.
#[cfg(test)]
pub(crate) fn solve_mu_reference(target: f64, sigma: f64) -> f64 {
    let mean = |mu: f64| -> f64 {
        let n = 400;
        let (a, b) = (-6.0f64, 6.0f64);
        let h = (b - a) / n as f64;
        let f = |z: f64| {
            let phi = (-0.5 * z * z).exp() / (std::f64::consts::TAU).sqrt();
            phi / (1.0 + (mu + sigma * z).exp())
        };
        let mut s = 0.5 * (f(a) + f(b));
        for i in 1..n {
            s += f(a + h * i as f64);
        }
        s * h
    };
    let (mut lo, mut hi) = (-60.0f64, 60.0f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mean(mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_hits_anchors_exactly() {
        let c = LogLogCurve::new(&[(36.0, 1.0), (144.0, 2.0), (7800.0, 12.0), (70200.0, 31.15)]);
        assert!((c.eval(36.0) - 1.0).abs() < 1e-12);
        assert!((c.eval(144.0) - 2.0).abs() < 1e-12);
        assert!((c.eval(70200.0) - 31.15).abs() < 1e-9);
    }

    #[test]
    fn curve_interpolates_monotonically() {
        let c = LogLogCurve::new(&[(1.0, 1.0), (10.0, 10.0)]);
        // log-log linear through (1,1),(10,10) is the identity.
        for x in [2.0, 3.0, 5.0, 7.0] {
            assert!((c.eval(x) - x).abs() < 1e-9, "x={x} y={}", c.eval(x));
        }
        let mut prev = 0.0;
        for i in 1..100 {
            let y = c.eval(i as f64 / 10.0 + 0.9);
            assert!(y >= prev);
            prev = y;
        }
    }

    #[test]
    fn curve_clamps_outside_domain() {
        let c = LogLogCurve::new(&[(2.0, 5.0), (4.0, 7.0)]);
        assert_eq!(c.eval(0.5), c.eval(2.0));
        assert_eq!(c.eval(100.0), c.eval(4.0));
        assert_eq!(c.domain(), (2.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn curve_rejects_unsorted_anchors() {
        let _ = LogLogCurve::new(&[(2.0, 1.0), (1.0, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn curve_rejects_nonpositive() {
        let _ = LogLogCurve::new(&[(0.0, 1.0), (1.0, 2.0)]);
    }

    #[test]
    fn mu_solver_recovers_known_values() {
        // For mu very negative the LN term vanishes and the mean → 1; for mu
        // large the mean → 0. Spot-check a midpoint against direct
        // simulation.
        let sigma = 1.2;
        let mu = solve_mu_for_inverse_mean(0.5, sigma);
        let n = 200_000u64;
        let est: f64 = (0..n)
            .map(|i| 1.0 / (1.0 + crate::rng::lognormal(&[99, i], mu, sigma)))
            .sum::<f64>()
            / n as f64;
        assert!((est - 0.5).abs() < 0.01, "est {est}");
    }

    #[test]
    fn fixed_point_stop_matches_the_200_step_reference_bit_for_bit() {
        // Targets span the clamps VulnModel applies (1e-6 .. 0.999999)
        // with a denser middle; sigmas cover the calibration constants.
        let mut targets = vec![1e-6, 1e-4, 1e-3, 0.02, 0.5, 0.985, 0.99, 0.999_999];
        targets.extend((1..40).map(|i| f64::from(i) / 40.0 + 0.0031));
        for sigma in [0.05, 0.25, 0.35, 0.6, 1.0, 1.7, 3.0] {
            for &target in &targets {
                assert_eq!(
                    bisect_mu(target, sigma).to_bits(),
                    solve_mu_reference(target, sigma).to_bits(),
                    "target {target} sigma {sigma}"
                );
            }
        }
    }

    #[test]
    fn memo_hits_return_the_cold_bits_for_each_sigma() {
        // One target under several sigmas: the memo must key on both, and
        // a hit must return the bits the cold solve produced. The inputs
        // are private to this test, so the first call is the cold one.
        let target = 0.417_3;
        for sigma in [0.31, 0.77, 1.93] {
            let cold = solve_mu_for_inverse_mean(target, sigma);
            let hit = solve_mu_for_inverse_mean(target, sigma);
            let reference = solve_mu_reference(target, sigma);
            assert_eq!(cold.to_bits(), reference.to_bits(), "sigma {sigma}");
            assert_eq!(hit.to_bits(), cold.to_bits(), "sigma {sigma}");
        }
    }

    #[test]
    fn mu_solver_is_monotone() {
        let a = solve_mu_for_inverse_mean(0.2, 1.0);
        let b = solve_mu_for_inverse_mean(0.4, 1.0);
        let c = solve_mu_for_inverse_mean(0.8, 1.0);
        assert!(a > b && b > c);
    }
}
