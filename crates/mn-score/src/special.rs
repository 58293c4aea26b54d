//! Special functions needed by the Bayesian scores.
//!
//! Only `ln Γ` is required (the normal-gamma marginal likelihood is a
//! ratio of gamma functions). Implemented with the Lanczos
//! approximation (g = 7, 9 terms) rather than adding a numerics
//! dependency; accuracy is ~15 significant digits over the positive
//! axis, verified against exact factorials and half-integer identities
//! in the tests below.

use std::f64::consts::PI;

/// Lanczos coefficients for g = 7, n = 9 (Godfrey's values).
const LANCZOS_G: f64 = 7.0;
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the reflection formula for `x < 0.5` (needed only for
/// completeness; the scores call this with `x ≥ 0.5`).
///
/// # Panics
/// Panics on non-finite input or on non-positive integers (poles).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x.is_finite(), "ln_gamma of non-finite {x}");
    if x <= 0.0 && x == x.floor() {
        panic!("ln_gamma pole at {x}");
    }
    if x < 0.5 {
        // Reflection: Γ(x) Γ(1-x) = π / sin(πx).
        let sin_pi_x = (PI * x).sin();
        return PI.ln() - sin_pi_x.abs().ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS[0];
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Memo table of `ln Γ(α₀ + k/2)` for integer `k ≥ 0`.
///
/// Every `ln Γ` argument on the scoring hot path has the half-integer
/// offset form `α₀ + N/2` for the run's fixed prior shape `α₀` and an
/// integer count `N` (see [`crate::NormalGamma::log_marginal`]:
/// `α_N = α₀ + ½·N`). The table memoizes the *same* Lanczos evaluation
/// ([`ln_gamma`]) indexed by `k = N`, so cached values are bit-identical
/// to direct calls **by construction**: the cell for `k` is filled with
/// `ln_gamma(alpha0 + 0.5 * (k as f64))`, the exact f64 expression the
/// direct path evaluates, and `ln_gamma` is a pure deterministic
/// function. No approximation, rounding, or alternative recurrence is
/// involved anywhere — only call-count changes — so the determinism
/// contract needs no A/B toggle.
///
/// The table is lazily grown (dense, from 0 up) behind an [`RwLock`](std::sync::RwLock):
/// steady-state lookups take the read lock only. One table is scoped to
/// one *checkpoint unit* (a module-tree build, one Gibbs sweep), never
/// to a whole run, so counter deltas replayed on resume are identical
/// to the uninterrupted run's.
///
/// The table intentionally does **not** count its own hits/misses:
/// under the thread engine several workers may race to first-fill the
/// same cell, which would make such counts scheduling-dependent.
/// Callers account calls/hits analytically in replicated control flow
/// (`score.ln_gamma_calls` / `score.ln_gamma_table_hits`).
#[derive(Debug)]
pub struct LnGammaTable {
    alpha0: f64,
    base: f64,
    cells: std::sync::RwLock<Vec<f64>>,
}

impl LnGammaTable {
    /// Create an empty table for prior shape `alpha0 > 0`.
    ///
    /// `ln Γ(α₀)` itself (the `k = 0` cell, subtracted in every
    /// marginal) is computed eagerly and served lock-free via
    /// [`LnGammaTable::base`].
    pub fn new(alpha0: f64) -> Self {
        assert!(
            alpha0.is_finite() && alpha0 > 0.0,
            "table prior shape must be positive and finite, got {alpha0}"
        );
        Self {
            alpha0,
            base: ln_gamma(alpha0),
            cells: std::sync::RwLock::new(Vec::new()),
        }
    }

    /// The prior shape this table is keyed to.
    #[inline]
    pub fn alpha0(&self) -> f64 {
        self.alpha0
    }

    /// `ln Γ(α₀)` — the half of every marginal's gamma ratio that does
    /// not depend on the data, hoisted out of the lock.
    #[inline]
    pub fn base(&self) -> f64 {
        self.base
    }

    /// `ln Γ(α₀ + k/2)`, bit-identical to
    /// `ln_gamma(alpha0 + 0.5 * (k as f64))`.
    ///
    /// Serves from the memo when present; otherwise densely fills
    /// through `k` under the write lock (idempotent under races — every
    /// filler computes the same pure values).
    pub fn get(&self, k: usize) -> f64 {
        {
            let cells = self.cells.read().expect("ln-gamma table poisoned");
            if let Some(&v) = cells.get(k) {
                return v;
            }
        }
        self.fill_through(k)
    }

    /// Pre-fill the table through index `kmax`, so subsequent
    /// [`LnGammaTable::get`] calls up to `kmax` take only the read
    /// lock. Returns the number of newly computed cells.
    pub fn warm(&self, kmax: usize) -> usize {
        let before = self.len();
        if before <= kmax {
            self.fill_through(kmax);
        }
        self.len() - before
    }

    /// Number of memoized cells (indices `0..len()` are filled).
    pub fn len(&self) -> usize {
        self.cells.read().expect("ln-gamma table poisoned").len()
    }

    /// Whether no cell has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn fill_through(&self, k: usize) -> f64 {
        let mut cells = self.cells.write().expect("ln-gamma table poisoned");
        for i in cells.len()..=k {
            cells.push(ln_gamma(self.alpha0 + 0.5 * (i as f64)));
        }
        cells[k]
    }
}

/// `ln B(a, b) = ln Γ(a) + ln Γ(b) - ln Γ(a+b)`.
pub fn ln_beta(a: f64, b: f64) -> f64 {
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

/// `ln Γ(x + delta) - ln Γ(x)` computed directly; exposed because the
/// incremental scorer uses gamma-ratio differences heavily and tests
/// assert it agrees with the two-call form.
pub fn ln_gamma_ratio(x: f64, delta: f64) -> f64 {
    ln_gamma(x + delta) - ln_gamma(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_match_factorials() {
        // Γ(k) = (k-1)!
        let mut factorial = 1.0f64;
        for k in 1..=20u32 {
            if k > 1 {
                factorial *= (k - 1) as f64;
            }
            let got = ln_gamma(k as f64);
            let want = factorial.ln();
            assert!(
                (got - want).abs() < 1e-10 * want.abs().max(1.0),
                "k={k}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn half_integers() {
        // Γ(1/2) = √π; Γ(x+1) = x Γ(x).
        let want = PI.sqrt().ln();
        assert!((ln_gamma(0.5) - want).abs() < 1e-12);
        let want_3_2 = (0.5 * PI.sqrt()).ln();
        assert!((ln_gamma(1.5) - want_3_2).abs() < 1e-12);
        let want_5_2 = (0.75 * PI.sqrt()).ln();
        assert!((ln_gamma(2.5) - want_5_2).abs() < 1e-12);
    }

    #[test]
    fn recurrence_holds() {
        // ln Γ(x+1) = ln x + ln Γ(x) across a wide range.
        for &x in &[0.1, 0.7, 1.3, 2.9, 10.0, 123.456, 1e4, 1e8] {
            let lhs = ln_gamma(x + 1.0);
            let rhs = x.ln() + ln_gamma(x);
            assert!(
                (lhs - rhs).abs() < 1e-9 * rhs.abs().max(1.0),
                "x={x}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn large_arguments_match_stirling() {
        // For large x, ln Γ(x) ≈ x ln x - x - ½ ln(x / 2π).
        let x: f64 = 1e6;
        let stirling = x * x.ln() - x - 0.5 * (x / (2.0 * PI)).ln();
        let got = ln_gamma(x);
        assert!((got - stirling).abs() / stirling.abs() < 1e-7);
    }

    #[test]
    fn reflection_region() {
        // Γ(0.25) ≈ 3.625609908.
        let got = ln_gamma(0.25);
        let want = 3.625_609_908_221_908_f64.ln();
        assert!((got - want).abs() < 1e-10, "{got} vs {want}");
    }

    #[test]
    #[should_panic(expected = "pole")]
    fn pole_panics() {
        ln_gamma(0.0);
    }

    #[test]
    fn beta_identity() {
        // B(a, b) = Γ(a)Γ(b)/Γ(a+b); B(1,1) = 1, B(2,3) = 1/12.
        assert!(ln_beta(1.0, 1.0).abs() < 1e-12);
        assert!((ln_beta(2.0, 3.0) - (1.0f64 / 12.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn ratio_matches_difference() {
        for &(x, d) in &[(1.0, 0.5), (10.0, 3.0), (100.0, 0.25)] {
            let a = ln_gamma_ratio(x, d);
            let b = ln_gamma(x + d) - ln_gamma(x);
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn table_serves_exact_bits() {
        let table = LnGammaTable::new(0.1);
        for k in [0usize, 1, 2, 3, 40, 1000] {
            let direct = ln_gamma(0.1 + 0.5 * (k as f64));
            assert_eq!(table.get(k).to_bits(), direct.to_bits(), "k={k}");
        }
        assert_eq!(table.base().to_bits(), ln_gamma(0.1).to_bits());
        assert_eq!(table.base().to_bits(), table.get(0).to_bits());
    }

    #[test]
    fn table_warm_reports_fill_counts() {
        let table = LnGammaTable::new(2.5);
        assert!(table.is_empty());
        assert_eq!(table.warm(9), 10);
        assert_eq!(table.len(), 10);
        assert_eq!(table.warm(9), 0);
        assert_eq!(table.warm(11), 2);
        assert_eq!(table.len(), 12);
    }

    #[test]
    fn table_is_shareable_across_threads() {
        // Racing first-fills are idempotent: every thread observes the
        // same bit pattern as the direct call.
        let table = std::sync::Arc::new(LnGammaTable::new(0.1));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let table = std::sync::Arc::clone(&table);
                std::thread::spawn(move || {
                    for k in (0..256usize).skip(t % 3) {
                        let direct = ln_gamma(0.1 + 0.5 * (k as f64));
                        assert_eq!(table.get(k).to_bits(), direct.to_bits());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker panicked");
        }
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn table_rejects_nonpositive_shape() {
        LnGammaTable::new(0.0);
    }

    proptest::proptest! {
        #[test]
        fn prop_table_bits_equal_direct_lanczos(
            alpha0 in 1e-3f64..50.0,
            ks in proptest::collection::vec(0usize..4000, 1..40),
        ) {
            // The tentpole contract: for EVERY half-integer-offset
            // argument the table can serve, the memoized value is
            // exactly (`==` on bits) the direct Lanczos call.
            let table = LnGammaTable::new(alpha0);
            for &k in &ks {
                let direct = ln_gamma(alpha0 + 0.5 * (k as f64));
                proptest::prop_assert_eq!(table.get(k).to_bits(), direct.to_bits());
                // And a second lookup (guaranteed memo hit) is stable.
                proptest::prop_assert_eq!(table.get(k).to_bits(), direct.to_bits());
            }
        }
    }
}
