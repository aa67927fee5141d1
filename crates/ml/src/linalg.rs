//! Dense symmetric linear algebra for the Gaussian-process substrate.
//!
//! Gaussian-process regression needs exactly one factorization — the
//! Cholesky decomposition of a symmetric positive-definite kernel matrix —
//! plus triangular solves against it. Kernel matrices in the tuning setting
//! are small (hundreds of observations), so a cache-friendly dense
//! implementation is the right tool; no sparse or blocked machinery is
//! warranted.
//!
//! ## Summation order
//!
//! Every entry of `L` is computed with the summation order of the textbook
//! row-`dot` Cholesky–Banachiewicz loop: `L[i][j] = (a_ij − s) / L[j][j]`
//! with `s = Σ_{k<j} L[i][k]·L[j][k]` accumulated from `0.0` in increasing
//! `k`, one multiply and one add per term (no fused multiply-add). The
//! loop in [`Cholesky::factor`] reorders *which* entries it works on (four
//! entries of a row per pass over `k`, then in-order fix-ups) but never
//! the order of the terms inside one entry, so its factor is bit-identical
//! to the textbook loop — a property the tests check against that loop.
//!
//! ## Packed storage
//!
//! `L` is stored as a packed lower triangle, row `i` at offset
//! `i(i+1)/2`. Row `i` of Cholesky–Banachiewicz reads only rows `≤ i`, so
//! factoring is "append rows starting at row 0", and appending rows to an
//! existing factor (a kernel matrix that grew by some observations) is a
//! `Vec` extend that yields exactly the from-scratch factor.

/// A dense symmetric matrix stored row-major in full (not packed) form.
///
/// Full storage keeps each row contiguous; [`Cholesky::factor`] reads the
/// lower part `a[i][0..=i]` of each row.
#[derive(Debug, Clone)]
pub struct SymMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SymMatrix {
    /// Zero matrix of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        SymMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Build from a row-major buffer; `data.len()` must equal `n*n` and the
    /// buffer must be symmetric (debug-asserted).
    pub fn from_raw(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n, "buffer/dimension mismatch");
        #[cfg(debug_assertions)]
        for i in 0..n {
            for j in 0..i {
                debug_assert!(
                    (data[i * n + j] - data[j * n + i]).abs()
                        <= 1e-9 * (1.0 + data[i * n + j].abs()),
                    "matrix is not symmetric at ({i},{j})"
                );
            }
        }
        SymMatrix { n, data }
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Set `(i,j)` and `(j,i)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
        self.data[j * self.n + i] = v;
    }

    /// Add `v` to every diagonal element (jitter / noise variance).
    pub fn add_diagonal(&mut self, v: f64) {
        for i in 0..self.n {
            self.data[i * self.n + i] += v;
        }
    }

    /// Matrix-vector product `A x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        (0..self.n)
            .map(|i| dot(&self.data[i * self.n..(i + 1) * self.n], x))
            .collect()
    }
}

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    n: usize,
    /// Packed lower triangle: row `i` holds `L[i][0..=i]` at offset
    /// [`row_start`]`(i)`.
    l: Vec<f64>,
}

/// Offset of row `i` in a packed lower triangle.
#[inline]
pub(crate) fn row_start(i: usize) -> usize {
    i * (i + 1) / 2
}

/// Error raised when a matrix is not (numerically) positive definite.
#[derive(Debug, Clone, PartialEq)]
pub struct NotPositiveDefinite {
    /// Pivot index at which the factorization broke down.
    pub pivot: usize,
    /// The offending diagonal value after elimination.
    pub value: f64,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is not positive definite: pivot {} has value {:.3e}",
            self.pivot, self.value
        )
    }
}

impl std::error::Error for NotPositiveDefinite {}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix.
    ///
    /// Uses the (row-oriented) Cholesky–Banachiewicz scheme, one row of `L`
    /// at a time from the rows before it; see the module docs for the
    /// summation-order contract.
    pub fn factor(a: &SymMatrix) -> Result<Self, NotPositiveDefinite> {
        let n = a.n();
        let mut ch = Cholesky::with_capacity(n);
        for i in 0..n {
            let row = &a.data[i * n..i * n + i + 1];
            ch.push_row(&row[..i], row[i])?;
        }
        Ok(ch)
    }

    /// An empty (0 × 0) factor with room for `n` rows.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Cholesky {
            n: 0,
            l: Vec::with_capacity(row_start(n)),
        }
    }

    /// Append rows to the factor: `rows` holds rows `n, n+1, …` of `A` as a
    /// packed lower triangle (row `i` is `a[i][0..=i]`), and `shift` is
    /// added to each diagonal entry as `a_ii + shift` before elimination.
    ///
    /// The result is bit-identical to factoring the grown matrix from
    /// scratch. On error the rows appended so far stay in place and the
    /// factor is no longer usable for the grown matrix.
    pub(crate) fn extend(
        &mut self,
        mut rows: &[f64],
        shift: f64,
    ) -> Result<(), NotPositiveDefinite> {
        while !rows.is_empty() {
            let i = self.n;
            let (row, rest) = rows.split_at(i + 1);
            self.push_row(&row[..i], row[i] + shift)?;
            rows = rest;
        }
        Ok(())
    }

    /// Append row `i = self.n`: `off` is `a[i][0..i]` and `diag` is the
    /// (already shifted) diagonal entry `a_ii`.
    ///
    /// Off-diagonal entries are computed four at a time: one pass over
    /// `k < j` feeds four independent accumulators, then each of the four
    /// is finished in column order, adding the terms of the entries just
    /// finished. Each accumulator therefore sees exactly the terms
    /// `k = 0, 1, …, j−1` in order, as the row-`dot` loop does.
    fn push_row(&mut self, off: &[f64], diag: f64) -> Result<(), NotPositiveDefinite> {
        let i = self.n;
        debug_assert_eq!(off.len(), i);
        let start = self.l.len();
        self.l.extend_from_slice(off);
        let (prev, row) = self.l.split_at_mut(start);
        let mut j = 0;
        while j + 4 <= i {
            let r0 = &prev[row_start(j)..][..j + 1];
            let r1 = &prev[row_start(j + 1)..][..j + 2];
            let r2 = &prev[row_start(j + 2)..][..j + 3];
            let r3 = &prev[row_start(j + 3)..][..j + 4];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
            let (x, a0, a1, a2, a3) = (&row[..j], &r0[..j], &r1[..j], &r2[..j], &r3[..j]);
            for k in 0..j {
                let lik = x[k];
                s0 += lik * a0[k];
                s1 += lik * a1[k];
                s2 += lik * a2[k];
                s3 += lik * a3[k];
            }
            let l0 = (row[j] - s0) / r0[j];
            row[j] = l0;
            s1 += l0 * r1[j];
            let l1 = (row[j + 1] - s1) / r1[j + 1];
            row[j + 1] = l1;
            s2 += l0 * r2[j];
            s2 += l1 * r2[j + 1];
            let l2 = (row[j + 2] - s2) / r2[j + 2];
            row[j + 2] = l2;
            s3 += l0 * r3[j];
            s3 += l1 * r3[j + 1];
            s3 += l2 * r3[j + 2];
            row[j + 3] = (row[j + 3] - s3) / r3[j + 3];
            j += 4;
        }
        for j in j..i {
            let rj = &prev[row_start(j)..][..j + 1];
            let s = dot(&row[..j], &rj[..j]);
            row[j] = (row[j] - s) / rj[j];
        }
        let d = diag - dot(row, row);
        if d <= 0.0 || !d.is_finite() {
            self.l.truncate(start);
            return Err(NotPositiveDefinite { pivot: i, value: d });
        }
        self.l.push(d.sqrt());
        self.n += 1;
        Ok(())
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// `L[i][j]` for `j <= i`.
    #[inline]
    pub fn l(&self, i: usize, j: usize) -> f64 {
        debug_assert!(j <= i && i < self.n);
        self.l[row_start(i) + j]
    }

    /// Row `i` of `L`: `L[i][0..=i]`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        &self.l[row_start(i)..][..i + 1]
    }

    /// Solve `L y = b` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n);
        let mut y = vec![0.0; self.n];
        for i in 0..self.n {
            let li = self.row(i);
            let s = dot(&li[..i], &y[..i]);
            y[i] = (b[i] - s) / li[i];
        }
        y
    }

    /// Solve `Lᵀ x = y` (backward substitution).
    pub fn solve_upper(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.n);
        let n = self.n;
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = 0.0;
            for (k, xk) in x.iter().enumerate().skip(i + 1) {
                s += self.l[row_start(k) + i] * xk;
            }
            x[i] = (y[i] - s) / self.l[row_start(i) + i];
        }
        x
    }

    /// Solve `A x = b` where `A = L Lᵀ`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_upper(&self.solve_lower(b))
    }

    /// `log det A = 2 Σ log L[i][i]` — the determinant term of the
    /// Gaussian log-marginal likelihood.
    pub fn log_det(&self) -> f64 {
        (0..self.n).map(|i| self.l(i, i).ln()).sum::<f64>() * 2.0
    }
}

/// Dense dot product. The explicit loop vectorizes well; slices keep the
/// bounds check out of the loop.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = 0.0;
    for (x, y) in a.iter().zip(b) {
        s += x * y;
    }
    s
}

/// Squared Euclidean distance between two feature vectors.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        s += d * d;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook row-`dot` Cholesky–Banachiewicz loop on full storage:
    /// the summation-order oracle for [`Cholesky::factor`].
    fn factor_oracle(a: &SymMatrix) -> Result<Vec<f64>, NotPositiveDefinite> {
        let n = a.n();
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                let s = dot(&l[i * n..i * n + j], &l[j * n..j * n + j]);
                if i == j {
                    let d = a.get(i, i) - s;
                    if d <= 0.0 || !d.is_finite() {
                        return Err(NotPositiveDefinite { pivot: i, value: d });
                    }
                    l[i * n + i] = d.sqrt();
                } else {
                    l[i * n + j] = (a.get(i, j) - s) / l[j * n + j];
                }
            }
        }
        Ok(l)
    }

    /// Bitwise equality of a factor and the oracle's full-storage `L`,
    /// including the error's pivot and value.
    fn assert_same_factor(
        got: &Result<Cholesky, NotPositiveDefinite>,
        want: &Result<Vec<f64>, NotPositiveDefinite>,
    ) {
        match (got, want) {
            (Ok(ch), Ok(l)) => {
                let n = ch.n();
                assert_eq!(l.len(), n * n);
                for i in 0..n {
                    for j in 0..=i {
                        assert_eq!(ch.l(i, j).to_bits(), l[i * n + j].to_bits(), "L[{i}][{j}]");
                    }
                }
            }
            (Err(a), Err(b)) => {
                assert_eq!(a.pivot, b.pivot);
                assert_eq!(a.value.to_bits(), b.value.to_bits());
            }
            _ => panic!("factor {got:?} vs oracle {want:?}"),
        }
    }

    /// A symmetric matrix from raw values: `B Bᵀ · scale + shift · I`, so
    /// small `shift`s (or negative ones) give indefinite matrices too.
    fn matrix_from(vals: &[f64], n: usize, shift: f64) -> SymMatrix {
        let mut a = SymMatrix::zeros(n);
        for i in 0..n {
            for j in 0..=i {
                let v = dot(&vals[i * n..(i + 1) * n], &vals[j * n..(j + 1) * n]);
                a.set(i, j, v);
            }
        }
        a.add_diagonal(shift);
        a
    }

    fn packed_lower(a: &SymMatrix) -> Vec<f64> {
        (0..a.n())
            .flat_map(|i| (0..=i).map(move |j| (i, j)))
            .map(|(i, j)| a.get(i, j))
            .collect()
    }

    proptest! {
        #[test]
        fn factor_matches_the_row_dot_oracle_bitwise(
            n in 1usize..24,
            vals in proptest::collection::vec(-1.0f64..1.0, 24 * 24),
            shift in -0.5f64..3.0,
        ) {
            let a = matrix_from(&vals, n, shift);
            assert_same_factor(&Cholesky::factor(&a), &factor_oracle(&a));
        }

        #[test]
        fn factor_fails_like_the_oracle_on_rank_deficient_matrices(
            n in 6usize..24,
            rank in 1usize..6,
            mut vals in proptest::collection::vec(-1.0f64..1.0, 24 * 24),
        ) {
            // B has `rank` non-zero columns, so B Bᵀ is singular and the
            // factorization breaks down (or barely survives rounding) past
            // the first blocked rows.
            for (k, v) in vals.iter_mut().enumerate() {
                if k % n >= rank {
                    *v = 0.0;
                }
            }
            let a = matrix_from(&vals, n, 0.0);
            assert_same_factor(&Cholesky::factor(&a), &factor_oracle(&a));
        }

        #[test]
        fn extending_a_factor_equals_factoring_from_scratch(
            n in 2usize..24,
            split in 0usize..24,
            vals in proptest::collection::vec(-1.0f64..1.0, 24 * 24),
            shift in 0.0f64..0.5,
        ) {
            let split = split % n;
            let a = matrix_from(&vals, n, 0.0);
            let rows = packed_lower(&a);
            let mut grown = Cholesky::with_capacity(n);
            grown.extend(&rows[..row_start(split)], shift).unwrap();
            let extended = grown.extend(&rows[row_start(split)..], shift).map(|_| grown);
            // Reference: the shifted matrix, factored in one go.
            let mut shifted = a.clone();
            shifted.add_diagonal(shift);
            assert_same_factor(&extended, &factor_oracle(&shifted));
        }
    }

    #[test]
    fn factor_and_extend_fail_at_the_oracle_pivot() {
        // A well-conditioned 12 × 12 matrix with one hopeless diagonal
        // entry: row 10 runs through two four-entry blocks before its
        // pivot breaks down.
        let vals: Vec<f64> = (0..144)
            .map(|k| ((k * 37 % 101) as f64 / 50.0) - 1.0)
            .collect();
        let mut a = matrix_from(&vals, 12, 3.0);
        a.set(10, 10, -50.0);
        let want = factor_oracle(&a);
        assert_eq!(want.as_ref().unwrap_err().pivot, 10);
        assert_same_factor(&Cholesky::factor(&a), &want);

        let rows = packed_lower(&a);
        let mut ch = Cholesky::with_capacity(12);
        ch.extend(&rows[..row_start(7)], 0.0).unwrap();
        let err = ch.extend(&rows[row_start(7)..], 0.0).unwrap_err();
        assert_same_factor(&Err(err), &want);
        assert_eq!(ch.n(), 10, "the failed row is not appended");
    }

    fn spd(n: usize, seed: u64) -> SymMatrix {
        // A = B Bᵀ + n·I is SPD for any B.
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let b: Vec<f64> = (0..n * n).map(|_| next()).collect();
        let mut a = SymMatrix::zeros(n);
        for i in 0..n {
            for j in 0..=i {
                let v = dot(&b[i * n..(i + 1) * n], &b[j * n..(j + 1) * n]);
                a.set(i, j, v);
            }
        }
        a.add_diagonal(n as f64);
        a
    }

    #[test]
    fn cholesky_reconstructs_matrix() {
        for n in [1, 2, 3, 7, 20] {
            let a = spd(n, n as u64);
            let ch = Cholesky::factor(&a).unwrap();
            for i in 0..n {
                for j in 0..=i {
                    let mut s = 0.0;
                    for k in 0..=j {
                        s += ch.l(i, k) * ch.l(j, k);
                    }
                    assert!(
                        (s - a.get(i, j)).abs() < 1e-8 * (1.0 + a.get(i, j).abs()),
                        "n={n} ({i},{j}): {s} vs {}",
                        a.get(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn solve_inverts_matvec() {
        for n in [1, 3, 9, 25] {
            let a = spd(n, 100 + n as u64);
            let ch = Cholesky::factor(&a).unwrap();
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let b = a.matvec(&x_true);
            let x = ch.solve(&b);
            for (got, want) in x.iter().zip(&x_true) {
                assert!((got - want).abs() < 1e-8, "n={n}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn log_det_matches_2x2_closed_form() {
        let mut a = SymMatrix::zeros(2);
        a.set(0, 0, 4.0);
        a.set(1, 1, 9.0);
        a.set(0, 1, 2.0);
        let ch = Cholesky::factor(&a).unwrap();
        let det: f64 = 4.0 * 9.0 - 2.0 * 2.0;
        assert!((ch.log_det() - det.ln()).abs() < 1e-12);
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let mut a = SymMatrix::zeros(2);
        a.set(0, 0, 1.0);
        a.set(1, 1, 1.0);
        a.set(0, 1, 2.0); // eigenvalues 3 and -1
        let err = Cholesky::factor(&a).unwrap_err();
        assert_eq!(err.pivot, 1);
        assert!(err.value <= 0.0);
    }

    #[test]
    fn zero_matrix_is_rejected() {
        let a = SymMatrix::zeros(3);
        assert!(Cholesky::factor(&a).is_err());
    }

    #[test]
    fn triangular_solves_agree_with_full_solve() {
        let a = spd(6, 42);
        let ch = Cholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..6).map(|i| i as f64 - 2.5).collect();
        let y = ch.solve_lower(&b);
        let x = ch.solve_upper(&y);
        let direct = ch.solve(&b);
        for (a, b) in x.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn sq_dist_and_dot_basics() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(sq_dist(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn add_diagonal_only_touches_diagonal() {
        let mut a = spd(4, 7);
        let before = a.clone();
        a.add_diagonal(2.5);
        for i in 0..4 {
            for j in 0..4 {
                let expect = before.get(i, j) + if i == j { 2.5 } else { 0.0 };
                assert_eq!(a.get(i, j), expect);
            }
        }
    }
}
