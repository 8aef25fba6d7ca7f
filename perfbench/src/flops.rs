//! Computed floating-point operation counts, derived from the partition
//! shapes the solver builds (`⌈n/2⌉` splits, depth levels) — not
//! measured. Conventions: an `s×s` LU factorization costs `2s³/3`, a
//! pair of triangular solves `2s²`, an `r×c` matrix-vector product
//! `2rc`; vector additions and negations are left out.

/// The two sizes a node of size `n` splits into: `A1` is `⌈n/2⌉`.
fn halves(n: usize) -> (f64, f64) {
    let k = n.div_ceil(2);
    (k as f64, (n - k) as f64)
}

fn leaf(n: usize, depth: usize) -> bool {
    depth == 0 || n < 2
}

/// FLOPs of one Schur complement `A4 − A3·A1⁻¹·A2` at a node of size
/// `n`: LU of `A1`, the triangular solves for `A1⁻¹·A2`, and the GEMM
/// with `A3`.
pub fn schur(n: usize) -> f64 {
    let (k, m) = halves(n);
    2.0 * k * k * k / 3.0 + 2.0 * k * k * m + 2.0 * m * m * k
}

/// FLOPs of preparing a size-`n` system at partition depth `depth`:
/// every internal node's Schur complement plus the LU factorization of
/// every INV leaf. MVM arrays are stored, not factorized.
pub fn prepare(n: usize, depth: usize) -> f64 {
    if leaf(n, depth) {
        let s = n as f64;
        return 2.0 * s * s * s / 3.0;
    }
    let k = n.div_ceil(2);
    schur(n) + prepare(k, depth - 1) + prepare(n - k, depth - 1)
}

/// FLOPs of one right-hand side through the five-step cascade of a
/// size-`n` tree of depth `depth`: three INV (two on `A1`, one on
/// `A4s`) and two MVM (`A3`, `A2`) per node, recursively. Tiling an MVM
/// block into quadrants does not change its count.
pub fn cascade(n: usize, depth: usize) -> f64 {
    if leaf(n, depth) {
        let s = n as f64;
        return 2.0 * s * s;
    }
    let k = n.div_ceil(2);
    let (kf, mf) = halves(n);
    2.0 * cascade(k, depth - 1) + cascade(n - k, depth - 1) + 2.0 * (2.0 * kf * mf)
}

/// FLOPs of the plain baseline: one LU factorization plus one pair of
/// triangular solves of the whole `n×n` matrix.
pub fn lu_solve(n: usize) -> f64 {
    let s = n as f64;
    2.0 * s * s * s / 3.0 + 2.0 * s * s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_zero_is_the_plain_lu() {
        assert_eq!(prepare(8, 0) + cascade(8, 0), lu_solve(8));
    }

    #[test]
    fn one_stage_counts_by_hand() {
        // n = 4 splits 2/2: Schur = 2·8/3 + 2·8 + 2·8; two 2×2 leaf LUs.
        let leaf_lu = 2.0 * 8.0 / 3.0;
        assert_eq!(prepare(4, 1), 16.0 / 3.0 + 32.0 + 2.0 * leaf_lu);
        // Three leaf INV (2·4 each) plus two 2×2 MVM (2·4 each).
        assert_eq!(cascade(4, 1), 3.0 * 8.0 + 2.0 * 8.0);
    }

    #[test]
    fn odd_sizes_split_ceiling_first() {
        // 5 = 3 + 2: the A1 leaf is 3×3, A4s is 2×2.
        let expected = schur(5) + 2.0 * 27.0 / 3.0 + 2.0 * 8.0 / 3.0;
        assert_eq!(prepare(5, 1), expected);
        assert_eq!(cascade(5, 1), 2.0 * 18.0 + 8.0 + 2.0 * 12.0);
    }
}
