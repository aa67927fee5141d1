//! Gaussian-process regression for Bayesian-optimization tuners.
//!
//! The paper's ecosystem uses GP-based Bayesian optimization for GPU
//! autotuning (Willemsen et al., reference \[22\]); this module provides the
//! model side: an exact GP with RBF or Matérn-5/2 kernel, trained by
//! maximizing the log-marginal likelihood over a deterministic
//! hyperparameter grid.
//!
//! Inputs are normalized per-dimension to the unit cube and targets are
//! standardized internally, so the same hyperparameter grid works across
//! benchmarks whose parameter magnitudes differ by orders of magnitude
//! (`VWM ∈ {1..8}` vs `loop_unroll_factor_channel ∈ {0..1536}`).
//!
//! ## Cost and summation order
//!
//! Every floating-point result is bit-identical to the textbook
//! per-entry loops: each dot product (a `K⁻¹` row, a posterior mean, a
//! `vᵀv`) starts at `0.0` and adds its terms in index order, one multiply
//! and one add per term. What changes is how many independent entries are
//! in flight at once:
//! - [`GaussianProcess::fit`] computes the pairwise squared distances once
//!   and builds each lengthscale's `K` from them; each noise value is
//!   factored straight from `K` with the shift added on the diagonal.
//! - [`GaussianProcess::refit`] with the previous model's hyperparameters
//!   appends the new rows to its Cholesky factor (packed storage, see
//!   [`crate::linalg`]) instead of refactoring: O(m·n²) for `m` new rows.
//! - [`GaussianProcess::predict_many`] scores candidates in blocks of 16:
//!   one `n × 16` block of `k*` columns, means accumulated column-wise
//!   with `α`, and one forward substitution for all 16 columns at once.
//!   [`GaussianProcess::predict`] is a block of one.

use crate::linalg::{row_start, sq_dist, Cholesky};

/// Candidates per block in [`GaussianProcess::predict_many`]: the forward
/// substitution carries one independent accumulator per candidate, and
/// the `n × BLOCK` block of `k*` columns (~19 KB at n = 150) stays in the
/// L1 cache while every row of `L` streams past it once. Measured against
/// 8, 32 and 64 on a 250-candidate pool at n = 150, 16 was fastest.
const BLOCK: usize = 16;

/// Covariance function family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Squared-exponential: smooth, infinitely differentiable.
    Rbf,
    /// Matérn ν = 5/2: the default in autotuning BO (ref \[22\]) — rough
    /// enough for discrete landscapes, smooth enough for a usable gradient.
    Matern52,
}

impl KernelKind {
    /// Covariance at squared distance `d2` between two normalized points,
    /// at lengthscale `ell` (unit signal variance).
    #[inline]
    fn at_d2(self, d2: f64, ell: f64) -> f64 {
        let (pre, arg) = self.parts(d2, ell);
        pre * arg.exp()
    }

    /// The covariance as `pre · exp(arg)`: everything but the `exp`, so a
    /// block of candidates can compute the square roots and divisions
    /// together. For RBF `pre` is `1.0`, and multiplying by it is exact.
    #[inline]
    fn parts(self, d2: f64, ell: f64) -> (f64, f64) {
        match self {
            KernelKind::Rbf => (1.0, -0.5 * d2 / (ell * ell)),
            KernelKind::Matern52 => {
                let r = d2.sqrt() / ell;
                let s = 5.0_f64.sqrt() * r;
                (1.0 + s + 5.0 * d2 / (3.0 * ell * ell), -s)
            }
        }
    }

    /// Covariance of two normalized points at lengthscale `ell`.
    #[cfg(test)]
    fn eval(self, a: &[f64], b: &[f64], ell: f64) -> f64 {
        self.at_d2(sq_dist(a, b), ell)
    }
}

/// GP fitting options.
#[derive(Debug, Clone)]
pub struct GpParams {
    /// Kernel family.
    pub kernel: KernelKind,
    /// Candidate lengthscales (on normalized inputs).
    pub lengthscales: Vec<f64>,
    /// Candidate noise variances (on standardized targets).
    pub noises: Vec<f64>,
}

impl Default for GpParams {
    fn default() -> Self {
        GpParams {
            kernel: KernelKind::Matern52,
            lengthscales: vec![0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.5],
            noises: vec![1e-6, 1e-4, 1e-3, 1e-2, 5e-2, 1e-1],
        }
    }
}

impl GpParams {
    /// Fix the hyperparameters instead of grid-searching.
    pub fn fixed(kernel: KernelKind, lengthscale: f64, noise: f64) -> Self {
        GpParams {
            kernel,
            lengthscales: vec![lengthscale],
            noises: vec![noise],
        }
    }
}

/// Prediction: posterior mean and (latent) variance in target units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpPrediction {
    /// Posterior mean.
    pub mean: f64,
    /// Posterior variance of the latent function (≥ 0).
    pub variance: f64,
}

impl GpPrediction {
    /// Posterior standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.max(0.0).sqrt()
    }
}

/// A fitted exact Gaussian process.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    kernel: KernelKind,
    lengthscale: f64,
    noise: f64,
    /// Normalized training inputs, row-major `n × d`.
    x: Vec<f64>,
    d: usize,
    /// Per-dimension (min, max) of the raw training inputs.
    ranges: Vec<(f64, f64)>,
    /// Target mean/std used for standardization.
    y_mean: f64,
    y_std: f64,
    /// `α = K⁻¹ y` on standardized targets.
    alpha: Vec<f64>,
    chol: Cholesky,
    lml: f64,
}

/// Training inputs normalized to the unit cube.
struct Inputs {
    n: usize,
    d: usize,
    ranges: Vec<(f64, f64)>,
    /// Row-major `n × d`.
    x: Vec<f64>,
}

impl Inputs {
    fn new(rows: &[Vec<f64>], y: &[f64]) -> Self {
        assert!(!rows.is_empty(), "GP needs at least one observation");
        assert_eq!(rows.len(), y.len(), "row/target count mismatch");
        let n = rows.len();
        let d = rows[0].len();
        let mut ranges = vec![(f64::INFINITY, f64::NEG_INFINITY); d];
        for r in rows {
            assert_eq!(r.len(), d, "ragged rows");
            for (j, &v) in r.iter().enumerate() {
                ranges[j].0 = ranges[j].0.min(v);
                ranges[j].1 = ranges[j].1.max(v);
            }
        }
        let mut x = Vec::with_capacity(n * d);
        for r in rows {
            for (j, &v) in r.iter().enumerate() {
                x.push(normalize(v, ranges[j]));
            }
        }
        Inputs { n, d, ranges, x }
    }

    fn row(&self, i: usize) -> &[f64] {
        &self.x[i * self.d..(i + 1) * self.d]
    }

    /// Squared distances of rows `from..n` to rows `0..=i`, packed as
    /// lower-triangle rows `from..n` (see [`crate::linalg`]).
    fn sq_dists(&self, from: usize) -> Vec<f64> {
        let mut d2 = Vec::with_capacity(row_start(self.n) - row_start(from));
        for i in from..self.n {
            let xi = self.row(i);
            d2.extend((0..=i).map(|j| sq_dist(xi, self.row(j))));
        }
        d2
    }
}

/// Standardized targets: `(mean, std, (y − mean) / std)`.
fn standardize(y: &[f64]) -> (f64, f64, Vec<f64>) {
    let n = y.len();
    let y_mean = y.iter().sum::<f64>() / n as f64;
    let var = y.iter().map(|v| (v - y_mean) * (v - y_mean)).sum::<f64>() / n as f64;
    let y_std = if var > 1e-24 { var.sqrt() } else { 1.0 };
    let ys = y.iter().map(|v| (v - y_mean) / y_std).collect();
    (y_mean, y_std, ys)
}

/// `α = K⁻¹ y` and the log-marginal likelihood of a factored `K`.
fn posterior(chol: &Cholesky, ys: &[f64]) -> (Vec<f64>, f64) {
    let alpha = chol.solve(ys);
    let fit: f64 = ys.iter().zip(&alpha).map(|(a, b)| a * b).sum();
    let lml = -0.5 * fit
        - 0.5 * chol.log_det()
        - 0.5 * ys.len() as f64 * (2.0 * std::f64::consts::PI).ln();
    (alpha, lml)
}

/// The diagonal shift of a noise value: its variance plus jitter.
fn diagonal_shift(noise: f64) -> f64 {
    noise + 1e-10
}

fn same_bits(a: impl IntoIterator<Item = f64>, b: impl IntoIterator<Item = f64>) -> bool {
    a.into_iter()
        .map(f64::to_bits)
        .eq(b.into_iter().map(f64::to_bits))
}

impl GaussianProcess {
    /// Fit a GP to `(rows, y)`, selecting the hyperparameter pair with the
    /// highest log-marginal likelihood from the grids in `params`.
    ///
    /// # Panics
    /// If `rows` is empty or ragged.
    pub fn fit(rows: &[Vec<f64>], y: &[f64], params: &GpParams) -> Self {
        Self::fit_inputs(Inputs::new(rows, y), y, params)
    }

    fn fit_inputs(inputs: Inputs, y: &[f64], params: &GpParams) -> Self {
        let (y_mean, y_std, ys) = standardize(y);
        // Grid search over (lengthscale, noise) maximizing the LML. The
        // distances are shared by every lengthscale, `K` by every noise.
        let d2 = inputs.sq_dists(0);
        let mut k = vec![0.0; d2.len()];
        let mut best: Option<(f64, f64, f64, Cholesky, Vec<f64>)> = None;
        for &ell in &params.lengthscales {
            for (kv, &dv) in k.iter_mut().zip(&d2) {
                *kv = params.kernel.at_d2(dv, ell);
            }
            for &noise in &params.noises {
                let mut chol = Cholesky::with_capacity(inputs.n);
                if chol.extend(&k, diagonal_shift(noise)).is_err() {
                    continue;
                }
                let (alpha, lml) = posterior(&chol, &ys);
                if best.as_ref().is_none_or(|b| lml > b.0) {
                    best = Some((lml, ell, noise, chol, alpha));
                }
            }
        }
        let (lml, lengthscale, noise, chol, alpha) =
            best.expect("at least one grid point must factor; jitter guarantees it");

        GaussianProcess {
            kernel: params.kernel,
            lengthscale,
            noise,
            x: inputs.x,
            d: inputs.d,
            ranges: inputs.ranges,
            y_mean,
            y_std,
            alpha,
            chol,
            lml,
        }
    }

    /// Fit to `(rows, y)` like [`GaussianProcess::fit`], reusing this
    /// model's Cholesky factor where that is exact.
    ///
    /// The factor is extended instead of recomputed when `params` is this
    /// model's own single (kernel, lengthscale, noise) and `rows` starts
    /// with this model's training rows: same per-dimension ranges and same
    /// normalized prefix rows, bit for bit (checked in O(n·d)). Only the
    /// new rows of `K` and `L` are computed, plus `α` and the likelihood.
    /// Otherwise this is a full fit. The result is bit-identical to
    /// [`GaussianProcess::fit`] either way.
    ///
    /// # Panics
    /// As [`GaussianProcess::fit`].
    pub fn refit(mut self, rows: &[Vec<f64>], y: &[f64], params: &GpParams) -> Self {
        let inputs = Inputs::new(rows, y);
        if !self.extends_to(&inputs, params) {
            return Self::fit_inputs(inputs, y, params);
        }
        let n0 = self.n_observations();
        let mut k = inputs.sq_dists(n0);
        for kv in &mut k {
            *kv = self.kernel.at_d2(*kv, self.lengthscale);
        }
        if self.chol.extend(&k, diagonal_shift(self.noise)).is_err() {
            // The same rows fail the same way from scratch; let the full
            // fit report it.
            return Self::fit_inputs(inputs, y, params);
        }
        let (y_mean, y_std, ys) = standardize(y);
        let (alpha, lml) = posterior(&self.chol, &ys);
        GaussianProcess {
            x: inputs.x,
            y_mean,
            y_std,
            alpha,
            lml,
            ..self
        }
    }

    /// Whether fitting `inputs` with `params` may extend this model's
    /// factor: same single hyperparameter pair, same ranges, and this
    /// model's normalized rows as a prefix, all bit for bit.
    fn extends_to(&self, inputs: &Inputs, params: &GpParams) -> bool {
        let n0 = self.n_observations();
        let same_hyper = params.kernel == self.kernel
            && matches!(
                (params.lengthscales.as_slice(), params.noises.as_slice()),
                ([ell], [noise]) if same_bits([*ell, *noise], [self.lengthscale, self.noise])
            );
        same_hyper
            && inputs.d == self.d
            && inputs.n >= n0
            && same_bits(
                inputs.ranges.iter().flat_map(|&(lo, hi)| [lo, hi]),
                self.ranges.iter().flat_map(|&(lo, hi)| [lo, hi]),
            )
            && same_bits(
                inputs.x[..n0 * self.d].iter().copied(),
                self.x.iter().copied(),
            )
    }

    /// Number of training observations.
    pub fn n_observations(&self) -> usize {
        self.alpha.len()
    }

    /// Selected lengthscale (normalized-input units).
    pub fn lengthscale(&self) -> f64 {
        self.lengthscale
    }

    /// Selected noise variance (standardized-target units).
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// Log-marginal likelihood of the selected hyperparameters.
    pub fn log_marginal_likelihood(&self) -> f64 {
        self.lml
    }

    /// Posterior mean and latent variance at `row` (raw input units): a
    /// [`GaussianProcess::predict_many`] block of one.
    pub fn predict(&self, row: &[f64]) -> GpPrediction {
        self.predict_many(&[row])[0]
    }

    /// Posterior mean and latent variance at each of `rows` (raw input
    /// units), in order.
    ///
    /// Works in blocks of 16 candidates (a single row is a block of one):
    /// the block's `k*` columns fill one reusable `n × 16` buffer, the
    /// means accumulate column-wise with `α` while it fills, and one
    /// left-looking forward substitution `v = L⁻¹ k*` (row `i` of `L`
    /// against block rows `< i`) overwrites it in place while `vᵀv`
    /// accumulates. Each column keeps the per-candidate summation order, so
    /// every prediction is bit-identical to scoring that candidate alone.
    ///
    /// # Panics
    /// If a row's length differs from the training rows'.
    pub fn predict_many<R: AsRef<[f64]>>(&self, rows: &[R]) -> Vec<GpPrediction> {
        let mut out = Vec::with_capacity(rows.len());
        if rows.len() == 1 {
            self.predict_blocks::<1, R>(rows, &mut out);
        } else {
            self.predict_blocks::<BLOCK, R>(rows, &mut out);
        }
        out
    }

    /// [`GaussianProcess::predict_many`] in blocks of `W` candidates.
    fn predict_blocks<const W: usize, R: AsRef<[f64]>>(
        &self,
        rows: &[R],
        out: &mut Vec<GpPrediction>,
    ) {
        let (n, d) = (self.n_observations(), self.d);
        // Normalized candidates, transposed: `qt[j * W + c]` is feature `j`
        // of the block's candidate `c`.
        let mut qt = [0.0; W].repeat(d);
        // Row i holds k(x_i, q_c) for the block's candidates c, then v_i.
        let mut block = vec![0.0; n * W];
        for chunk in rows.chunks(W) {
            for (c, row) in chunk.iter().enumerate() {
                let row = row.as_ref();
                assert_eq!(row.len(), d, "feature-count mismatch");
                for (j, (&v, &range)) in row.iter().zip(&self.ranges).enumerate() {
                    qt[j * W + c] = normalize(v, range);
                }
            }
            // Columns past the chunk hold stale values from an earlier
            // block; they run through every step and are never read out.
            let mut mean = [0.0; W];
            for (i, (krow, &a)) in block.chunks_exact_mut(W).zip(&self.alpha).enumerate() {
                let xi = &self.x[i * d..(i + 1) * d];
                // `sq_dist(q_c, x_i)` for all c at once, in feature order.
                let mut d2 = [0.0; W];
                for (&xij, qj) in xi.iter().zip(qt.chunks_exact(W)) {
                    for (acc, &qv) in d2.iter_mut().zip(qj) {
                        let t = qv - xij;
                        *acc += t * t;
                    }
                }
                let mut arg = [0.0; W];
                for ((kv, e), &dv) in krow.iter_mut().zip(&mut arg).zip(&d2) {
                    (*kv, *e) = self.kernel.parts(dv, self.lengthscale);
                }
                for ((kv, m), &e) in krow.iter_mut().zip(&mut mean).zip(&arg) {
                    *kv *= e.exp();
                    *m += *kv * a;
                }
            }
            let mut vv = [0.0; W];
            for i in 0..n {
                let li = self.chol.row(i);
                let (done, rest) = block.split_at_mut(i * W);
                let mut s = [0.0; W];
                for (&lik, vk) in li[..i].iter().zip(done.chunks_exact(W)) {
                    for (sv, &v) in s.iter_mut().zip(vk) {
                        *sv += lik * v;
                    }
                }
                for ((kv, sv), acc) in rest[..W].iter_mut().zip(&s).zip(&mut vv) {
                    *kv = (*kv - sv) / li[i];
                    *acc += *kv * *kv;
                }
            }
            let kss = 1.0; // unit signal variance on standardized targets
            out.extend(
                mean.iter()
                    .zip(&vv)
                    .take(chunk.len())
                    .map(|(&mean_s, &vv)| {
                        let var_s = (kss - vv).max(0.0);
                        GpPrediction {
                            mean: mean_s * self.y_std + self.y_mean,
                            variance: var_s * self.y_std * self.y_std,
                        }
                    }),
            );
        }
    }

    /// The per-candidate posterior: the summation-order oracle for
    /// [`GaussianProcess::predict_many`].
    #[cfg(test)]
    fn predict_oracle(&self, row: &[f64]) -> GpPrediction {
        assert_eq!(row.len(), self.d, "feature-count mismatch");
        let n = self.n_observations();
        let q: Vec<f64> = row
            .iter()
            .enumerate()
            .map(|(j, &v)| normalize(v, self.ranges[j]))
            .collect();
        let kstar: Vec<f64> = (0..n)
            .map(|i| {
                self.kernel
                    .eval(&q, &self.x[i * self.d..(i + 1) * self.d], self.lengthscale)
            })
            .collect();
        let mean_s = crate::linalg::dot(&kstar, &self.alpha);
        // v = L⁻¹ k*; var = k** − vᵀv.
        let v = self.chol.solve_lower(&kstar);
        let kss = 1.0;
        let var_s = (kss - crate::linalg::dot(&v, &v)).max(0.0);
        GpPrediction {
            mean: mean_s * self.y_std + self.y_mean,
            variance: var_s * self.y_std * self.y_std,
        }
    }
}

fn normalize(v: f64, (lo, hi): (f64, f64)) -> f64 {
    if hi > lo {
        (v - lo) / (hi - lo)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_same_prediction(got: GpPrediction, want: GpPrediction, what: &str) {
        assert_eq!(got.mean.to_bits(), want.mean.to_bits(), "{what}: mean");
        assert_eq!(
            got.variance.to_bits(),
            want.variance.to_bits(),
            "{what}: variance"
        );
    }

    /// Bitwise equality of two fitted models, factor included.
    fn assert_same_gp(a: &GaussianProcess, b: &GaussianProcess) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.kernel, b.kernel);
        assert_eq!(a.lengthscale.to_bits(), b.lengthscale.to_bits());
        assert_eq!(a.noise.to_bits(), b.noise.to_bits());
        assert_eq!(bits(&a.x), bits(&b.x));
        assert_eq!(a.ranges, b.ranges);
        assert_eq!(a.y_mean.to_bits(), b.y_mean.to_bits());
        assert_eq!(a.y_std.to_bits(), b.y_std.to_bits());
        assert_eq!(bits(&a.alpha), bits(&b.alpha));
        assert_eq!(a.chol.n(), b.chol.n());
        for i in 0..a.chol.n() {
            assert_eq!(bits(a.chol.row(i)), bits(b.chol.row(i)), "L row {i}");
        }
        assert_eq!(a.lml.to_bits(), b.lml.to_bits());
    }

    /// Training rows on a small integer lattice (so duplicates are
    /// common), with column 0 held constant when `constant_col`.
    fn lattice_rows(vals: &[u8], n: usize, d: usize, constant_col: bool) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| {
                        if constant_col && j == 0 {
                            3.0
                        } else {
                            f64::from(vals[i * d + j]) * 1.5
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn kernel_of(pick: u8) -> KernelKind {
        if pick == 0 {
            KernelKind::Rbf
        } else {
            KernelKind::Matern52
        }
    }

    proptest! {
        #[test]
        fn predict_many_matches_the_per_candidate_oracle_bitwise(
            n in 1usize..30,
            d in 0usize..5,
            vals in proptest::collection::vec(0u8..6, 30 * 4),
            ys in proptest::collection::vec(-3.0f64..3.0, 30),
            pool_pick in 0usize..4,
            kernel_pick in 0u8..2,
            constant_col in 0u8..2,
            grid in 0u8..4,
        ) {
            let kernel = kernel_of(kernel_pick);
            let rows = lattice_rows(&vals, n, d, constant_col == 1);
            let params = if grid == 0 {
                GpParams { kernel, ..GpParams::default() }
            } else {
                GpParams::fixed(kernel, 0.35, 1e-4)
            };
            let gp = GaussianProcess::fit(&rows, &ys[..n], &params);
            // Candidates: off-lattice points, out-of-range points and
            // copies of training rows.
            let pool = [63, 64, 65, 129][pool_pick];
            let candidates: Vec<Vec<f64>> = (0..pool)
                .map(|c| match c % 3 {
                    0 => rows[c % n].clone(),
                    1 => (0..d).map(|j| (c * (j + 2)) as f64 * 0.37 % 9.0).collect(),
                    _ => (0..d).map(|j| (c + j) as f64 - 4.0).collect(),
                })
                .collect();
            let got = gp.predict_many(&candidates);
            prop_assert_eq!(got.len(), pool);
            for (c, (p, row)) in got.iter().zip(&candidates).enumerate() {
                assert_same_prediction(*p, gp.predict_oracle(row), &format!("candidate {c}"));
            }
        }

        #[test]
        fn refit_extending_equals_a_fit_from_scratch(
            n in 2usize..30,
            split in 1usize..30,
            d in 1usize..4,
            vals in proptest::collection::vec(0u8..6, 30 * 3),
            ys in proptest::collection::vec(-3.0f64..3.0, 30),
            kernel_pick in 0u8..2,
        ) {
            let split = 1 + split % (n - 1);
            let kernel = kernel_of(kernel_pick);
            let mut rows = lattice_rows(&vals, n, d, false);
            // Pin the ranges with the first two rows so the prefix stays
            // valid as rows are appended.
            rows[0] = vec![0.0; d];
            rows[1] = vec![7.5; d];
            let split = split.max(2).min(n);
            let first = GaussianProcess::fit(
                &rows[..split],
                &ys[..split],
                &GpParams { kernel, ..GpParams::default() },
            );
            let fixed = GpParams::fixed(kernel, first.lengthscale(), first.noise());
            let inputs = Inputs::new(&rows, &ys[..n]);
            prop_assert!(first.extends_to(&inputs, &fixed));
            let extended = first.refit(&rows, &ys[..n], &fixed);
            assert_same_gp(&extended, &GaussianProcess::fit(&rows, &ys[..n], &fixed));
        }
    }

    #[test]
    fn refit_falls_back_to_a_full_fit_when_the_ranges_move() {
        let mut rows: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![f64::from(i % 5), f64::from(i % 7)])
            .collect();
        rows[11][1] = 20.0;
        let y: Vec<f64> = rows
            .iter()
            .map(|r| (r[0] - 2.0).powi(2) + 0.1 * r[1])
            .collect();
        let params = GpParams::fixed(KernelKind::Matern52, 0.5, 1e-3);
        let gp = GaussianProcess::fit(&rows[..10], &y[..10], &params);
        // Row 10 is inside the ranges, row 11 widens column 1.
        assert!(gp.extends_to(&Inputs::new(&rows[..11], &y[..11]), &params));
        assert!(!gp.extends_to(&Inputs::new(&rows, &y), &params));
        // Other hyperparameters, or a grid, never extend.
        let other = GpParams::fixed(KernelKind::Matern52, 0.75, 1e-3);
        assert!(!gp.extends_to(&Inputs::new(&rows[..11], &y[..11]), &other));
        let grid = GpParams::default();
        assert!(!gp.extends_to(&Inputs::new(&rows[..11], &y[..11]), &grid));
        // A reordered prefix does not extend either.
        let mut swapped = rows[..11].to_vec();
        swapped.swap(2, 3);
        assert!(!gp.extends_to(&Inputs::new(&swapped, &y[..11]), &params));

        for (rows, y) in [
            (&rows[..11], &y[..11]),
            (&rows[..], &y[..]),
            (&swapped[..], &y[..11]),
        ] {
            let refit = gp.clone().refit(rows, y, &params);
            assert_same_gp(&refit, &GaussianProcess::fit(rows, y, &params));
        }
    }

    #[test]
    fn predict_is_a_block_of_one() {
        let (rows, y) = sine_data(17);
        let gp = GaussianProcess::fit(&rows, &y, &GpParams::default());
        for x in [-1.0, 0.0, 0.3, 2.9, 6.0, 11.0] {
            assert_same_prediction(gp.predict(&[x]), gp.predict_oracle(&[x]), "predict");
        }
        assert!(gp.predict_many::<Vec<f64>>(&[]).is_empty());
    }

    fn sine_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64 / (n - 1) as f64 * 6.0])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0].sin() * 3.0 + 10.0).collect();
        (rows, y)
    }

    #[test]
    fn interpolates_training_points_with_low_noise() {
        for kernel in [KernelKind::Rbf, KernelKind::Matern52] {
            let (rows, y) = sine_data(25);
            let gp = GaussianProcess::fit(
                &rows,
                &y,
                &GpParams {
                    kernel,
                    ..GpParams::default()
                },
            );
            for (r, t) in rows.iter().zip(&y) {
                let p = gp.predict(r);
                assert!((p.mean - t).abs() < 0.15, "{kernel:?}: {} vs {t}", p.mean);
            }
        }
    }

    #[test]
    fn variance_smaller_at_data_than_in_gaps() {
        let rows = vec![vec![0.0], vec![1.0], vec![9.0], vec![10.0]];
        let y = vec![1.0, 2.0, 4.0, 3.0];
        let gp = GaussianProcess::fit(&rows, &y, &GpParams::default());
        let at_data = gp.predict(&[1.0]).variance;
        let in_gap = gp.predict(&[5.0]).variance;
        assert!(
            in_gap > at_data,
            "gap variance {in_gap} should exceed data variance {at_data}"
        );
    }

    #[test]
    fn reverts_to_prior_mean_far_from_data() {
        let rows = vec![vec![0.0], vec![0.5], vec![1.0]];
        let y = vec![5.0, 7.0, 6.0];
        // Fixed short lengthscale so "far" is reachable.
        let gp = GaussianProcess::fit(&rows, &y, &GpParams::fixed(KernelKind::Rbf, 0.1, 1e-6));
        let far = gp.predict(&[100.0]);
        let prior_mean = 6.0; // mean of y
        assert!((far.mean - prior_mean).abs() < 1e-6, "mean {}", far.mean);
        // Prior variance = Var(y).
        let prior_var = ((5.0_f64 - 6.0).powi(2) + 1.0 + 0.0) / 3.0;
        assert!((far.variance - prior_var).abs() < 1e-6);
    }

    #[test]
    fn grid_fit_beats_or_matches_any_fixed_grid_point() {
        let (rows, y) = sine_data(20);
        let params = GpParams::default();
        let fitted = GaussianProcess::fit(&rows, &y, &params);
        for &ell in &params.lengthscales {
            for &noise in &params.noises {
                let single =
                    GaussianProcess::fit(&rows, &y, &GpParams::fixed(params.kernel, ell, noise));
                assert!(
                    fitted.log_marginal_likelihood() >= single.log_marginal_likelihood() - 1e-9
                );
            }
        }
    }

    #[test]
    fn single_observation_predicts_itself() {
        let gp = GaussianProcess::fit(&[vec![3.0, 4.0]], &[42.0], &GpParams::default());
        let p = gp.predict(&[3.0, 4.0]);
        assert!((p.mean - 42.0).abs() < 1e-6);
        assert_eq!(gp.n_observations(), 1);
    }

    #[test]
    fn constant_targets_are_handled() {
        let rows = vec![vec![0.0], vec![1.0], vec![2.0]];
        let gp = GaussianProcess::fit(&rows, &[7.0, 7.0, 7.0], &GpParams::default());
        let p = gp.predict(&[0.5]);
        assert!((p.mean - 7.0).abs() < 1e-6);
    }

    #[test]
    fn multidimensional_regression_is_accurate() {
        // y = product surface on a 6×6 grid; leave-out points predicted well.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                rows.push(vec![i as f64, j as f64 * 10.0]); // different scales
                y.push((i as f64 - 2.5).powi(2) + (j as f64 - 2.5).powi(2));
            }
        }
        let gp = GaussianProcess::fit(&rows, &y, &GpParams::default());
        let p = gp.predict(&[2.0, 30.0]);
        let truth = (2.0_f64 - 2.5).powi(2) + (3.0_f64 - 2.5).powi(2);
        assert!((p.mean - truth).abs() < 0.5, "{} vs {truth}", p.mean);
    }

    #[test]
    fn matern_and_rbf_agree_at_zero_distance() {
        let a = [0.3, 0.7];
        assert!((KernelKind::Rbf.eval(&a, &a, 0.5) - 1.0).abs() < 1e-12);
        assert!((KernelKind::Matern52.eval(&a, &a, 0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kernels_decay_with_distance() {
        for kernel in [KernelKind::Rbf, KernelKind::Matern52] {
            let mut prev = 1.0;
            for i in 1..10 {
                let b = [i as f64 / 10.0];
                let v = kernel.eval(&[0.0], &b, 0.4);
                assert!(v < prev, "{kernel:?} not decaying at {i}");
                assert!(v > 0.0);
                prev = v;
            }
        }
    }
}
