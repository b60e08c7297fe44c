//! Sparse LU with a symbolic/numeric split, in the style of Sparse 1.3
//! and KLU: the fill-in pattern and pivot order are computed **once**
//! from the structural nonzero pattern, then every subsequent
//! factorization replays a compiled elimination sequence over a fixed
//! slot layout — no allocation, no pivot search, no pattern churn.
//!
//! This matches the MNA workload exactly: an `EvalPlan` jig has a fixed
//! sparsity pattern for the whole annealing run (device topology never
//! changes, only element values), so the per-move cost collapses to a
//! numeric refactorization plus triangular solves over the factor's
//! nonzeros.
//!
//! # Pivoting
//!
//! Pivots are chosen at symbolic time by structural Markowitz cost
//! `(r_count − 1)·(c_count − 1)` with a deterministic tie-break
//! (prefer the diagonal, then the lowest row, then the lowest column).
//! Because the choice is value-independent, a plan-compile-time
//! symbolic analysis and a from-scratch analysis of the same circuit
//! derive the *same* pivot order, which keeps the incremental and cold
//! evaluation paths bit-identical. The price of static pivoting is that
//! a numerically awful (but structurally fine) pivot can slip through;
//! the numeric refactor therefore checks every pivot exactly like the
//! dense path (`!(mag > 0.0) || !finite` → [`SingularMatrixError`]) and
//! feeds the same pivot-ratio conditioning telemetry. Callers treat
//! that error as a singular matrix; nothing re-orders or retries.

use crate::lu::SingularMatrixError;

/// Number of bits per bitset word in the symbolic pass.
const WORD: usize = 64;

/// Marks a permuted coordinate without a factor slot in the symbolic
/// pass's dense slot table.
const NO_SLOT: u32 = u32::MAX;

/// Calls `f` with the index of every bit set in `row & mask`, in
/// ascending order.
#[inline]
fn for_each_bit(row: &[u64], mask: &[u64], mut f: impl FnMut(usize)) {
    for (wi, (&w, &m)) in row.iter().zip(mask).enumerate() {
        let mut live = w & m;
        while live != 0 {
            f(wi * WORD + live.trailing_zeros() as usize);
            live &= live - 1;
        }
    }
}

/// A sparse LU factorization `P·A·Q = L·U` over a fixed structural
/// pattern.
///
/// Built once with [`SparseLu::symbolic`] from the pattern alone, then
/// refactored any number of times with [`SparseLu::refactor`] as values
/// change. Solves are allocation-free given caller-owned scratch.
///
/// # Examples
///
/// ```
/// use oblx_linalg::SparseLu;
///
/// // [2 1; 1 3] — entries in caller order, values supplied per refactor.
/// let entries = [(0, 0), (0, 1), (1, 0), (1, 1)];
/// let mut lu = SparseLu::symbolic(2, &entries).unwrap();
/// lu.refactor(&[2.0, 1.0, 1.0, 3.0]).unwrap();
/// let (mut x, mut scratch) = (Vec::new(), Vec::new());
/// lu.solve_into(&[5.0, 10.0], &mut x, &mut scratch);
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// Original row eliminated at step `k` (`P`).
    row_of_step: Vec<u32>,
    /// Original column eliminated at step `k` (`Q`).
    col_of_step: Vec<u32>,
    /// Caller entry `i` accumulates into factor slot `scatter[i]`.
    scatter: Vec<u32>,
    /// Factor slot of the step-`k` pivot `U(k,k)`.
    pivot_slot: Vec<u32>,
    /// `L` entries below each pivot: permuted row + slot, flat with
    /// per-step ranges `l_start[k]..l_start[k+1]`.
    l_rows: Vec<u32>,
    l_slots: Vec<u32>,
    l_start: Vec<u32>,
    /// `U` entries right of each pivot: permuted column + slot.
    u_cols: Vec<u32>,
    u_slots: Vec<u32>,
    u_start: Vec<u32>,
    /// Compiled rank-1 update ops `fvals[t] -= fvals[l] · fvals[u]`,
    /// flat with per-step ranges.
    mul_target: Vec<u32>,
    mul_l: Vec<u32>,
    mul_u: Vec<u32>,
    mul_start: Vec<u32>,
    /// Factor value storage (pattern slots, including fill-in).
    fvals: Vec<f64>,
    /// Ratio of largest to smallest pivot magnitude of the last
    /// successful refactor.
    pivot_ratio: f64,
    factored: bool,
    nnz_input: usize,
}

impl SparseLu {
    /// Computes the symbolic factorization of an `n × n` pattern.
    ///
    /// `entries` lists structural nonzero coordinates in **caller
    /// order**; [`SparseLu::refactor`] takes a value slice parallel to
    /// it. Duplicate coordinates are allowed and accumulate.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when the pattern is structurally
    /// singular (some elimination step has no candidate pivot at all).
    ///
    /// # Panics
    ///
    /// Panics if any entry lies outside the matrix.
    pub fn symbolic(n: usize, entries: &[(usize, usize)]) -> Result<Self, SingularMatrixError> {
        let _span = oblx_telemetry::span(oblx_telemetry::SpanKind::SparseSymbolic);
        let words = n.div_ceil(WORD).max(1);
        // Row-major bitset of the (growing) pattern.
        let mut pat = vec![0u64; n * words];
        for &(r, c) in entries {
            assert!(r < n && c < n, "entry ({r}, {c}) outside {n}x{n} matrix");
            pat[r * words + c / WORD] |= 1 << (c % WORD);
        }
        let nnz_input = pat.iter().map(|w| w.count_ones() as usize).sum();

        let mut row_alive = vec![true; n];
        let mut col_mask = vec![0u64; words];
        for c in 0..n {
            col_mask[c / WORD] |= 1 << (c % WORD);
        }

        let mut row_of_step = Vec::with_capacity(n);
        let mut col_of_step = Vec::with_capacity(n);
        // Per-step original-coordinate L rows / U columns.
        let mut step_l: Vec<Vec<u32>> = Vec::with_capacity(n);
        let mut step_u: Vec<Vec<u32>> = Vec::with_capacity(n);
        // Workspace reused across steps.
        let mut row_cnt = vec![0u32; n];
        let mut col_cnt = vec![0u32; n];
        let mut pivot_row = vec![0u64; words];

        for _step in 0..n {
            // Alive-submatrix row and column counts.
            row_cnt.fill(0);
            col_cnt.fill(0);
            for r in 0..n {
                if !row_alive[r] {
                    continue;
                }
                let row = &pat[r * words..(r + 1) * words];
                row_cnt[r] = row
                    .iter()
                    .zip(&col_mask)
                    .map(|(&w, &m)| (w & m).count_ones())
                    .sum();
                for_each_bit(row, &col_mask, |c| col_cnt[c] += 1);
            }
            // Markowitz pivot search with deterministic tie-break.
            let mut best: Option<(u64, bool, usize, usize)> = None;
            for r in 0..n {
                if !row_alive[r] || row_cnt[r] == 0 {
                    continue;
                }
                let r_cost = u64::from(row_cnt[r] - 1);
                for_each_bit(&pat[r * words..(r + 1) * words], &col_mask, |c| {
                    let cost = r_cost * u64::from(col_cnt[c] - 1);
                    // Sort key: (cost, off-diagonal, r, c) — lower wins.
                    let key = (cost, r != c, r, c);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                });
            }
            let Some((_, _, pr, pc)) = best else {
                // No candidate pivot: structurally singular. Report the
                // first still-alive column, mirroring the dense error.
                let column = col_mask
                    .iter()
                    .position(|&m| m != 0)
                    .map_or(0, |wi| wi * WORD + col_mask[wi].trailing_zeros() as usize);
                return Err(SingularMatrixError { column });
            };

            // Record this step's L rows and U columns, then apply the
            // structural rank-1 fill update.
            for ((p, &w), &m) in pivot_row
                .iter_mut()
                .zip(&pat[pr * words..(pr + 1) * words])
                .zip(&col_mask)
            {
                *p = w & m;
            }
            let mut u_here = Vec::new();
            for_each_bit(&pivot_row, &col_mask, |c| {
                if c != pc {
                    u_here.push(c as u32);
                }
            });
            let mut l_here = Vec::new();
            for r in 0..n {
                if r == pr || !row_alive[r] {
                    continue;
                }
                if pat[r * words + pc / WORD] >> (pc % WORD) & 1 == 1 {
                    l_here.push(r as u32);
                    for (w, &p) in pat[r * words..(r + 1) * words].iter_mut().zip(&pivot_row) {
                        *w |= p;
                    }
                }
            }
            row_of_step.push(pr as u32);
            col_of_step.push(pc as u32);
            step_l.push(l_here);
            step_u.push(u_here);
            row_alive[pr] = false;
            col_mask[pc / WORD] &= !(1 << (pc % WORD));
        }

        // Permuted coordinates and factor slot assignment: step order,
        // pivot first, then L by permuted row, then U by permuted col.
        // The slot table is dense over permuted coordinates, like the
        // pattern bitset.
        let mut inv_row = vec![0u32; n];
        let mut inv_col = vec![0u32; n];
        for k in 0..n {
            inv_row[row_of_step[k] as usize] = k as u32;
            inv_col[col_of_step[k] as usize] = k as u32;
        }
        let mut slot_of = vec![NO_SLOT; n * n];
        let mut fill = 0u32;
        let mut assign = |i: u32, j: u32| {
            slot_of[i as usize * n + j as usize] = fill;
            fill += 1;
            fill - 1
        };
        let mut pivot_slot = Vec::with_capacity(n);
        let mut l_rows = Vec::new();
        let mut l_slots = Vec::new();
        let mut l_start = Vec::with_capacity(n + 1);
        let mut u_cols = Vec::new();
        let mut u_slots = Vec::new();
        let mut u_start = Vec::with_capacity(n + 1);
        for k in 0..n {
            let kk = k as u32;
            pivot_slot.push(assign(kk, kk));
            l_start.push(l_rows.len() as u32);
            let mut lp: Vec<u32> = step_l[k].iter().map(|&r| inv_row[r as usize]).collect();
            lp.sort_unstable();
            for i in lp {
                l_slots.push(assign(i, kk));
                l_rows.push(i);
            }
            u_start.push(u_cols.len() as u32);
            let mut up: Vec<u32> = step_u[k].iter().map(|&c| inv_col[c as usize]).collect();
            up.sort_unstable();
            for j in up {
                u_slots.push(assign(kk, j));
                u_cols.push(j);
            }
        }
        l_start.push(l_rows.len() as u32);
        u_start.push(u_cols.len() as u32);
        let slot = |i: u32, j: u32| {
            let s = slot_of[i as usize * n + j as usize];
            assert_ne!(s, NO_SLOT, "no factor slot at ({i}, {j})");
            s
        };

        // Compiled elimination: every (L row) × (U col) pair of a step
        // targets a slot of the trailing submatrix, which the fill pass
        // above guaranteed exists.
        let mut mul_target = Vec::new();
        let mut mul_l = Vec::new();
        let mut mul_u = Vec::new();
        let mut mul_start = Vec::with_capacity(n + 1);
        for k in 0..n {
            mul_start.push(mul_target.len() as u32);
            let lr = l_start[k] as usize..l_start[k + 1] as usize;
            let ur = u_start[k] as usize..u_start[k + 1] as usize;
            for li in lr {
                for ui in ur.clone() {
                    mul_target.push(slot(l_rows[li], u_cols[ui]));
                    mul_l.push(l_slots[li]);
                    mul_u.push(u_slots[ui]);
                }
            }
        }
        mul_start.push(mul_target.len() as u32);

        let scatter = entries
            .iter()
            .map(|&(r, c)| slot(inv_row[r], inv_col[c]))
            .collect();

        let fill = fill as usize;
        oblx_telemetry::add(oblx_telemetry::Counter::SparseNnz, nnz_input as u64);
        oblx_telemetry::add(oblx_telemetry::Counter::SparseFill, fill as u64);

        Ok(SparseLu {
            n,
            row_of_step,
            col_of_step,
            scatter,
            pivot_slot,
            l_rows,
            l_slots,
            l_start,
            u_cols,
            u_slots,
            u_start,
            mul_target,
            mul_l,
            mul_u,
            mul_start,
            fvals: vec![0.0; fill],
            pivot_ratio: f64::INFINITY,
            factored: false,
            nnz_input,
        })
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Structural nonzeros of the input pattern (duplicates merged).
    pub fn nnz(&self) -> usize {
        self.nnz_input
    }

    /// Nonzeros of the `L + U` factor, including fill-in.
    pub fn fill_nnz(&self) -> usize {
        self.fvals.len()
    }

    /// Ratio of the largest to smallest pivot magnitude of the last
    /// successful [`SparseLu::refactor`], as a conditioning signal.
    pub fn pivot_ratio(&self) -> f64 {
        self.pivot_ratio
    }

    /// Numerically refactors with `vals[i]` as the value of the `i`-th
    /// symbolic entry, replaying the compiled elimination. Allocation-
    /// free.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] on a zero, non-finite, or NaN
    /// pivot — the same acceptance test as the dense `Lu::factor` — and
    /// leaves the factor unusable until a later refactor succeeds.
    ///
    /// # Panics
    ///
    /// Panics if `vals` is shorter than the symbolic entry list.
    pub fn refactor(&mut self, vals: &[f64]) -> Result<(), SingularMatrixError> {
        let _span = oblx_telemetry::span(oblx_telemetry::SpanKind::SparseRefactor);
        assert!(vals.len() >= self.scatter.len(), "value slice too short");
        self.factored = false;
        self.fvals.fill(0.0);
        for (i, &s) in self.scatter.iter().enumerate() {
            self.fvals[s as usize] += vals[i];
        }
        let f = &mut self.fvals;
        let mut hi = 0.0f64;
        let mut lo = f64::INFINITY;
        for k in 0..self.n {
            let p = f[self.pivot_slot[k] as usize];
            let mag = p.abs();
            // `!(mag > 0.0)` deliberately catches NaN pivots, exactly
            // like the dense factorization.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(mag > 0.0) || !mag.is_finite() {
                return Err(SingularMatrixError {
                    column: self.col_of_step[k] as usize,
                });
            }
            hi = hi.max(mag);
            lo = lo.min(mag);
            for s in &self.l_slots[self.l_start[k] as usize..self.l_start[k + 1] as usize] {
                f[*s as usize] /= p;
            }
            let mr = self.mul_start[k] as usize..self.mul_start[k + 1] as usize;
            for ((&t, &l), &u) in self.mul_target[mr.clone()]
                .iter()
                .zip(&self.mul_l[mr.clone()])
                .zip(&self.mul_u[mr])
            {
                f[t as usize] -= f[l as usize] * f[u as usize];
            }
        }
        self.pivot_ratio = if lo == 0.0 { f64::INFINITY } else { hi / lo };
        self.factored = true;
        if oblx_telemetry::enabled() {
            oblx_telemetry::record_pivot_ratio(self.pivot_ratio);
            oblx_telemetry::incr(oblx_telemetry::Counter::SparseRefactor);
        }
        Ok(())
    }

    /// Solves `A·x = b` into `x` using `scratch` as workspace; both are
    /// resized to the system dimension (allocation-free once warm).
    ///
    /// # Panics
    ///
    /// Panics (debug) if no successful refactor precedes the solve.
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>, scratch: &mut Vec<f64>) {
        debug_assert!(self.factored, "solve before successful refactor");
        let n = self.n;
        scratch.clear();
        scratch.resize(n, 0.0);
        let y = &mut scratch[..];
        for k in 0..n {
            y[k] = b[self.row_of_step[k] as usize];
        }
        // Forward: L (unit diagonal), column-oriented saxpy.
        for k in 0..n {
            let yk = y[k];
            if yk != 0.0 {
                let r = self.l_start[k] as usize..self.l_start[k + 1] as usize;
                for (&i, &s) in self.l_rows[r.clone()].iter().zip(&self.l_slots[r]) {
                    y[i as usize] -= self.fvals[s as usize] * yk;
                }
            }
        }
        // Backward: U, row-oriented gather.
        for k in (0..n).rev() {
            let mut acc = y[k];
            let r = self.u_start[k] as usize..self.u_start[k + 1] as usize;
            for (&j, &s) in self.u_cols[r.clone()].iter().zip(&self.u_slots[r]) {
                acc -= self.fvals[s as usize] * y[j as usize];
            }
            y[k] = acc / self.fvals[self.pivot_slot[k] as usize];
        }
        x.clear();
        x.resize(n, 0.0);
        for k in 0..n {
            x[self.col_of_step[k] as usize] = y[k];
        }
    }

    /// Solves `Aᵀ·x = b` into `x` — the AWE adjoint direction — reusing
    /// the same factor (`Aᵀ = Q·Uᵀ·Lᵀ·P`).
    ///
    /// # Panics
    ///
    /// Panics (debug) if no successful refactor precedes the solve.
    pub fn solve_transpose_into(&self, b: &[f64], x: &mut Vec<f64>, scratch: &mut Vec<f64>) {
        debug_assert!(self.factored, "solve before successful refactor");
        let n = self.n;
        scratch.clear();
        scratch.resize(n, 0.0);
        let y = &mut scratch[..];
        for k in 0..n {
            y[k] = b[self.col_of_step[k] as usize];
        }
        // Forward: Uᵀ (lower triangular, pivot diagonal), saxpy over
        // the rows of U.
        for k in 0..n {
            let yk = y[k] / self.fvals[self.pivot_slot[k] as usize];
            y[k] = yk;
            if yk != 0.0 {
                let r = self.u_start[k] as usize..self.u_start[k + 1] as usize;
                for (&j, &s) in self.u_cols[r.clone()].iter().zip(&self.u_slots[r]) {
                    y[j as usize] -= self.fvals[s as usize] * yk;
                }
            }
        }
        // Backward: Lᵀ (unit upper triangular), gather over the columns
        // of L.
        for k in (0..n).rev() {
            let mut acc = y[k];
            let r = self.l_start[k] as usize..self.l_start[k + 1] as usize;
            for (&i, &s) in self.l_rows[r.clone()].iter().zip(&self.l_slots[r]) {
                acc -= self.fvals[s as usize] * y[i as usize];
            }
            y[k] = acc;
        }
        x.clear();
        x.resize(n, 0.0);
        for k in 0..n {
            x[self.row_of_step[k] as usize] = y[k];
        }
    }

    /// One-shot convenience solve (allocates; tests and cold paths).
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = Vec::new();
        let mut scratch = Vec::new();
        self.solve_into(b, &mut x, &mut scratch);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::Lu;
    use crate::matrix::Mat;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// [`SparseLu::symbolic`] as it was before its workspace reuse and
    /// dense slot table: a fresh bit vector per live row per step and a
    /// hashed slot map. The reference its rewrite must match exactly.
    fn symbolic_reference(
        n: usize,
        entries: &[(usize, usize)],
    ) -> Result<SparseLu, SingularMatrixError> {
        let _span = oblx_telemetry::span(oblx_telemetry::SpanKind::SparseSymbolic);
        let words = n.div_ceil(WORD).max(1);
        // Row-major bitset of the (growing) pattern.
        let mut pat = vec![0u64; n * words];
        for &(r, c) in entries {
            assert!(r < n && c < n, "entry ({r}, {c}) outside {n}x{n} matrix");
            pat[r * words + c / WORD] |= 1 << (c % WORD);
        }
        let nnz_input = pat.iter().map(|w| w.count_ones() as usize).sum();

        let mut row_alive = vec![true; n];
        let mut col_mask = vec![0u64; words];
        for c in 0..n {
            col_mask[c / WORD] |= 1 << (c % WORD);
        }

        let mut row_of_step = Vec::with_capacity(n);
        let mut col_of_step = Vec::with_capacity(n);
        // Per-step original-coordinate L rows / U columns.
        let mut step_l: Vec<Vec<u32>> = Vec::with_capacity(n);
        let mut step_u: Vec<Vec<u32>> = Vec::with_capacity(n);

        let bits_of = |row: &[u64], mask: &[u64]| -> Vec<u32> {
            let mut out = Vec::new();
            for (wi, (&w, &m)) in row.iter().zip(mask).enumerate() {
                let mut live = w & m;
                while live != 0 {
                    let b = live.trailing_zeros();
                    out.push((wi * WORD) as u32 + b);
                    live &= live - 1;
                }
            }
            out
        };

        for _step in 0..n {
            // Alive-submatrix row and column counts.
            let mut row_cnt = vec![0u32; n];
            let mut col_cnt = vec![0u32; n];
            for r in 0..n {
                if !row_alive[r] {
                    continue;
                }
                let row = &pat[r * words..(r + 1) * words];
                for (wi, (&w, &m)) in row.iter().zip(&col_mask).enumerate() {
                    let mut live = w & m;
                    row_cnt[r] += live.count_ones();
                    while live != 0 {
                        let c = wi * WORD + live.trailing_zeros() as usize;
                        col_cnt[c] += 1;
                        live &= live - 1;
                    }
                }
            }
            // Markowitz pivot search with deterministic tie-break.
            let mut best: Option<(u64, bool, usize, usize)> = None;
            for r in 0..n {
                if !row_alive[r] || row_cnt[r] == 0 {
                    continue;
                }
                let row = &pat[r * words..(r + 1) * words];
                for c in bits_of(row, &col_mask) {
                    let c = c as usize;
                    let cost = u64::from(row_cnt[r] - 1) * u64::from(col_cnt[c] - 1);
                    // Sort key: (cost, off-diagonal, r, c) — lower wins.
                    let key = (cost, r != c, r, c);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
            }
            let Some((_, _, pr, pc)) = best else {
                // No candidate pivot: structurally singular. Report the
                // first still-alive column, mirroring the dense error.
                let column = bits_of(&vec![u64::MAX; words], &col_mask)
                    .first()
                    .map_or(0, |&c| c as usize);
                return Err(SingularMatrixError { column });
            };

            // Record this step's L rows and U columns, then apply the
            // structural rank-1 fill update.
            let pivot_row: Vec<u64> = {
                let row = &pat[pr * words..(pr + 1) * words];
                row.iter().zip(&col_mask).map(|(&w, &m)| w & m).collect()
            };
            let mut u_here = bits_of(&pivot_row, &col_mask);
            u_here.retain(|&c| c as usize != pc);
            let mut l_here = Vec::new();
            for r in 0..n {
                if r == pr || !row_alive[r] {
                    continue;
                }
                if pat[r * words + pc / WORD] >> (pc % WORD) & 1 == 1 {
                    l_here.push(r as u32);
                    for (w, &p) in pat[r * words..(r + 1) * words].iter_mut().zip(&pivot_row) {
                        *w |= p;
                    }
                }
            }
            row_of_step.push(pr as u32);
            col_of_step.push(pc as u32);
            step_l.push(l_here);
            step_u.push(u_here);
            row_alive[pr] = false;
            col_mask[pc / WORD] &= !(1 << (pc % WORD));
        }

        // Permuted coordinates and factor slot assignment: step order,
        // pivot first, then L by permuted row, then U by permuted col.
        let mut inv_row = vec![0u32; n];
        let mut inv_col = vec![0u32; n];
        for k in 0..n {
            inv_row[row_of_step[k] as usize] = k as u32;
            inv_col[col_of_step[k] as usize] = k as u32;
        }
        let mut slot_of: HashMap<(u32, u32), u32> = HashMap::new();
        let mut pivot_slot = Vec::with_capacity(n);
        let mut l_rows = Vec::new();
        let mut l_slots = Vec::new();
        let mut l_start = Vec::with_capacity(n + 1);
        let mut u_cols = Vec::new();
        let mut u_slots = Vec::new();
        let mut u_start = Vec::with_capacity(n + 1);
        for k in 0..n {
            let kk = k as u32;
            let next = slot_of.len() as u32;
            pivot_slot.push(next);
            slot_of.insert((kk, kk), next);
            l_start.push(l_rows.len() as u32);
            let mut lp: Vec<u32> = step_l[k].iter().map(|&r| inv_row[r as usize]).collect();
            lp.sort_unstable();
            for i in lp {
                let next = slot_of.len() as u32;
                slot_of.insert((i, kk), next);
                l_rows.push(i);
                l_slots.push(next);
            }
            u_start.push(u_cols.len() as u32);
            let mut up: Vec<u32> = step_u[k].iter().map(|&c| inv_col[c as usize]).collect();
            up.sort_unstable();
            for j in up {
                let next = slot_of.len() as u32;
                slot_of.insert((kk, j), next);
                u_cols.push(j);
                u_slots.push(next);
            }
        }
        l_start.push(l_rows.len() as u32);
        u_start.push(u_cols.len() as u32);

        // Compiled elimination: every (L row) × (U col) pair of a step
        // targets a slot of the trailing submatrix, which the fill pass
        // above guaranteed exists.
        let mut mul_target = Vec::new();
        let mut mul_l = Vec::new();
        let mut mul_u = Vec::new();
        let mut mul_start = Vec::with_capacity(n + 1);
        for k in 0..n {
            mul_start.push(mul_target.len() as u32);
            let lr = l_start[k] as usize..l_start[k + 1] as usize;
            let ur = u_start[k] as usize..u_start[k + 1] as usize;
            for li in lr {
                for ui in ur.clone() {
                    let t = slot_of[&(l_rows[li], u_cols[ui])];
                    mul_target.push(t);
                    mul_l.push(l_slots[li]);
                    mul_u.push(u_slots[ui]);
                }
            }
        }
        mul_start.push(mul_target.len() as u32);

        let scatter = entries
            .iter()
            .map(|&(r, c)| slot_of[&(inv_row[r], inv_col[c])])
            .collect();

        let fill = slot_of.len();
        oblx_telemetry::add(oblx_telemetry::Counter::SparseNnz, nnz_input as u64);
        oblx_telemetry::add(oblx_telemetry::Counter::SparseFill, fill as u64);

        Ok(SparseLu {
            n,
            row_of_step,
            col_of_step,
            scatter,
            pivot_slot,
            l_rows,
            l_slots,
            l_start,
            u_cols,
            u_slots,
            u_start,
            mul_target,
            mul_l,
            mul_u,
            mul_start,
            fvals: vec![0.0; fill],
            pivot_ratio: f64::INFINITY,
            factored: false,
            nnz_input,
        })
    }

    /// Deterministic LCG in `[-1, 1)`, matching the dense LU proptest.
    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        }
    }

    /// Random sparse diagonally dominant system: pattern + values + the
    /// equivalent dense matrix.
    fn random_system(seed: u64, n: usize) -> (Vec<(usize, usize)>, Vec<f64>, Mat<f64>) {
        let mut next = lcg(seed);
        let mut entries = Vec::new();
        let mut vals = Vec::new();
        let mut dense = Mat::<f64>::zeros(n, n);
        for r in 0..n {
            let mut row_sum = 0.0;
            for c in 0..n {
                if r != c && next().abs() > 0.3 {
                    continue; // ~30% off-diagonal density
                }
                let v = next();
                entries.push((r, c));
                vals.push(v);
                dense[(r, c)] += v;
                row_sum += v.abs();
            }
            // Dominant diagonal as a second (duplicate) entry.
            entries.push((r, r));
            vals.push(row_sum + 1.0);
            dense[(r, r)] += row_sum + 1.0;
        }
        (entries, vals, dense)
    }

    #[test]
    fn dense_pattern_matches_dense_lu() {
        let a = Mat::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
        let entries = [(0, 0), (0, 1), (1, 0), (1, 1)];
        let mut lu = SparseLu::symbolic(2, &entries).unwrap();
        lu.refactor(&[4.0, 3.0, 6.0, 3.0]).unwrap();
        let x = lu.solve(&[10.0, 12.0]);
        let xd = Lu::factor(a).unwrap().solve(&[10.0, 12.0]);
        assert!((x[0] - xd[0]).abs() < 1e-12 && (x[1] - xd[1]).abs() < 1e-12);
    }

    #[test]
    fn zero_structural_diagonal_is_pivoted_around() {
        // Voltage-source-style branch row: structurally zero diagonal.
        let entries = [(0, 1), (1, 0), (1, 1)];
        let mut lu = SparseLu::symbolic(2, &entries).unwrap();
        lu.refactor(&[1.0, 1.0, 2.0]).unwrap();
        let x = lu.solve(&[3.0, 7.0]);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn structurally_singular_pattern_is_rejected() {
        // Column 1 completely empty.
        let entries = [(0, 0), (1, 0)];
        assert!(SparseLu::symbolic(2, &entries).is_err());
    }

    #[test]
    fn numerically_singular_values_error_like_dense() {
        let entries = [(0, 0), (0, 1), (1, 0), (1, 1)];
        let mut lu = SparseLu::symbolic(2, &entries).unwrap();
        // Rank-1 values: elimination must hit a zero pivot.
        let err = lu.refactor(&[1.0, 2.0, 2.0, 4.0]).unwrap_err();
        let dense_err = Lu::factor(Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]])).unwrap_err();
        assert_eq!(err.column, dense_err.column);
        // NaN values are singular too, never silently propagated.
        assert!(lu.refactor(&[f64::NAN, 2.0, 2.0, 4.0]).is_err());
    }

    #[test]
    fn refactor_reuses_pattern_for_new_values() {
        let entries = [(0, 0), (0, 1), (1, 0), (1, 1)];
        let mut lu = SparseLu::symbolic(2, &entries).unwrap();
        lu.refactor(&[2.0, 1.0, 1.0, 3.0]).unwrap();
        assert!((lu.solve(&[5.0, 10.0])[1] - 3.0).abs() < 1e-12);
        lu.refactor(&[1.0, 0.0, 0.0, 1.0]).unwrap();
        let x = lu.solve(&[5.0, 10.0]);
        assert!((x[0] - 5.0).abs() < 1e-12 && (x[1] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn fill_in_is_counted() {
        // Arrow matrix: dense first row/col, diagonal elsewhere — the
        // diagonal-preference tie-break eliminates the spine last, so
        // no fill-in is created (nnz == fill).
        let n = 6;
        let mut entries = vec![];
        for i in 0..n {
            entries.push((0, i));
            entries.push((i, 0));
            entries.push((i, i));
        }
        let lu = SparseLu::symbolic(n, &entries).unwrap();
        assert_eq!(lu.nnz(), 3 * n - 2);
        assert_eq!(lu.fill_nnz(), lu.nnz());
    }

    #[test]
    fn pivot_ratio_reports_conditioning() {
        let entries = [(0, 0), (1, 1)];
        let mut lu = SparseLu::symbolic(2, &entries).unwrap();
        lu.refactor(&[1e6, 1e-6]).unwrap();
        assert!((lu.pivot_ratio() - 1e12).abs() / 1e12 < 1e-9);
    }

    /// A random structural pattern in a shuffled caller order with
    /// duplicates: `n` up to 90, density from sparse to dense, with or
    /// without a full diagonal, sometimes with an empty column or row
    /// (structurally singular).
    fn random_pattern(seed: u64) -> (usize, Vec<(usize, usize)>) {
        let mut next = lcg(seed);
        let mut unit = move || 0.5 * (next() + 1.0);
        let n = 1 + (unit() * 90.0) as usize;
        let density = 0.01 + 0.25 * unit() * unit();
        let diagonal = unit() < 0.5;
        let mut entries = Vec::new();
        for r in 0..n {
            for c in 0..n {
                if (diagonal && r == c) || unit() < density {
                    entries.push((r, c));
                }
            }
        }
        match (unit() * 6.0) as usize {
            0 => {
                let c = (unit() * n as f64) as usize % n;
                entries.retain(|&(_, ec)| ec != c);
            }
            1 => {
                let r = (unit() * n as f64) as usize % n;
                entries.retain(|&(er, _)| er != r);
            }
            _ => {}
        }
        for _ in 0..entries.len() / 8 {
            let k = (unit() * entries.len() as f64) as usize % entries.len();
            entries.push(entries[k]);
        }
        for i in (1..entries.len()).rev() {
            let j = (unit() * (i + 1) as f64) as usize % (i + 1);
            entries.swap(i, j);
        }
        (n, entries)
    }

    /// Every symbolic output of two analyses: pivot order, scatter map,
    /// factor layout and the compiled multiply list.
    fn same_symbolic(a: &SparseLu, b: &SparseLu) -> bool {
        a.n == b.n
            && a.row_of_step == b.row_of_step
            && a.col_of_step == b.col_of_step
            && a.scatter == b.scatter
            && a.pivot_slot == b.pivot_slot
            && a.l_rows == b.l_rows
            && a.l_slots == b.l_slots
            && a.l_start == b.l_start
            && a.u_cols == b.u_cols
            && a.u_slots == b.u_slots
            && a.u_start == b.u_start
            && a.mul_target == b.mul_target
            && a.mul_l == b.mul_l
            && a.mul_u == b.mul_u
            && a.mul_start == b.mul_start
            && a.fvals.len() == b.fvals.len()
            && a.nnz_input == b.nnz_input
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The symbolic analysis matches its reference exactly on random
        /// patterns, singular ones included (same error column).
        #[test]
        fn prop_symbolic_matches_reference(seed in 0u64..100_000) {
            let (n, entries) = random_pattern(seed);
            match (SparseLu::symbolic(n, &entries), symbolic_reference(n, &entries)) {
                (Ok(a), Ok(b)) => prop_assert!(same_symbolic(&a, &b), "n = {n}: layouts differ"),
                (Err(a), Err(b)) => prop_assert_eq!(a.column, b.column),
                (a, b) => prop_assert!(
                    false,
                    "n = {n}: rewrite {:?} vs reference {:?}",
                    a.map(|_| ()),
                    b.map(|_| ())
                ),
            }
        }
    }

    proptest! {
        /// Satellite: random sparse systems, sparse LU vs dense LU agree
        /// to 1e-9 — plain solves, RHS batches, and transpose solves
        /// (the AWE adjoint chain uses both directions).
        #[test]
        fn prop_sparse_matches_dense(seed in 0u64..300) {
            let n = 1 + (seed as usize % 24);
            let (entries, vals, dense) = random_system(seed, n);
            let mut sp = SparseLu::symbolic(n, &entries).unwrap();
            sp.refactor(&vals).unwrap();
            let dn = Lu::factor(dense).unwrap();
            let mut next = lcg(!seed);
            let (mut x, mut scratch, mut xt) = (Vec::new(), Vec::new(), Vec::new());
            // A small RHS batch against one factorization.
            for _ in 0..3 {
                let b: Vec<f64> = (0..n).map(|_| next()).collect();
                sp.solve_into(&b, &mut x, &mut scratch);
                let xd = dn.solve(&b);
                sp.solve_transpose_into(&b, &mut xt, &mut scratch);
                let mut xdt = Vec::new();
                let mut dscratch = Vec::new();
                dn.solve_transpose_into(&b, &mut xdt, &mut dscratch);
                for i in 0..n {
                    prop_assert!((x[i] - xd[i]).abs() < 1e-9, "solve row {}", i);
                    prop_assert!((xt[i] - xdt[i]).abs() < 1e-9, "transpose row {}", i);
                }
            }
        }

        /// Refactoring with new values matches a fresh dense factor.
        #[test]
        fn prop_refactor_tracks_values(seed in 0u64..100) {
            let n = 2 + (seed as usize % 12);
            let (entries, vals, dense) = random_system(seed, n);
            let mut sp = SparseLu::symbolic(n, &entries).unwrap();
            sp.refactor(&vals).unwrap();
            drop(dense);
            // Second value set over the same pattern (dominance kept).
            let vals2: Vec<f64> = entries
                .iter()
                .zip(&vals)
                .map(|(&(r, c), &v)| if r == c { 2.0 * v + 1.0 } else { 2.0 * v })
                .collect();
            let mut dense2 = Mat::<f64>::zeros(n, n);
            for (&(r, c), &v) in entries.iter().zip(&vals2) {
                dense2[(r, c)] += v;
            }
            sp.refactor(&vals2).unwrap();
            let dn = Lu::factor(dense2).unwrap();
            let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let x = sp.solve(&b);
            let xd = dn.solve(&b);
            for i in 0..n {
                prop_assert!((x[i] - xd[i]).abs() < 1e-9);
            }
        }
    }
}
