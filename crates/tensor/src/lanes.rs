//! Rank-monomorphised lane arithmetic shared by the hot kernels.
//!
//! Every per-nonzero kernel in this crate does the same thing to an
//! `R`-vector: start every lane at the entry's value and multiply one
//! factor row after another into it.  With `R` and the row count only
//! known at run time that is a heap scratch vector and loops the compiler
//! can neither unroll nor keep in registers.  [`lane_products`] is that
//! step written once over const-generic `R` (lanes) and `K` (rows) —
//! stack `[f64; R]` lanes, `&[f64; R]` row views — and
//! [`for_fixed_lanes!`] is the one place that decides which `(R, K)` get
//! such a body.  The per-row kernels dispatch through it too: the Eq. 5
//! row update (`linalg::solve_rows_fixed`, `K` = rows substituted side by
//! side, a compile-time constant) and the Gram partials
//! (`matrix::gram_fixed`, `K` = operands: 1 Gram, 2 cross-Gram).
//!
//! The dispatch set is the paper default `R = 10` plus the rank-ablation
//! points {5, 8, 20, 40}, each at `K = 1..=4` rows (MTTKRP of an order
//! 2–5 tensor multiplies `order − 1` rows, the sparse inner product
//! `order`).  Everything else — and, defensively, any row that is not `R`
//! wide — runs the caller's dynamic loop, which stays the one fallback: a
//! body per conceivable rank would multiply code size for ranks no
//! experiment runs at.
//!
//! Both kinds of body perform each lane's operations in the same order,
//! so they agree bit for bit and the dispatch is invisible in the results.

/// Expands to `f::<R, K>(args…)` when rank `r` and row count `k` are in
/// the dispatch set, to the fallback expression otherwise.  Written
/// `const k`, the second parameter is a compile-time constant of the
/// caller's and only the rank is matched.
macro_rules! for_fixed_lanes {
    (@rows $R:literal, $k:expr, $f:ident($($arg:expr),*), $fallback:expr) => {
        match $k {
            1 => $f::<$R, 1>($($arg),*),
            2 => $f::<$R, 2>($($arg),*),
            3 => $f::<$R, 3>($($arg),*),
            4 => $f::<$R, 4>($($arg),*),
            _ => $fallback,
        }
    };
    // A second parameter fixed at compile time: only the rank is matched.
    ($r:expr, const $k:expr, $f:ident($($arg:expr),* $(,)?), else $fallback:expr) => {
        match $r {
            5 => $f::<5, { $k }>($($arg),*),
            8 => $f::<8, { $k }>($($arg),*),
            10 => $f::<10, { $k }>($($arg),*),
            20 => $f::<20, { $k }>($($arg),*),
            40 => $f::<40, { $k }>($($arg),*),
            _ => $fallback,
        }
    };
    ($r:expr, $k:expr, $f:ident($($arg:expr),* $(,)?), else $fallback:expr) => {
        match $r {
            5 => for_fixed_lanes!(@rows 5, $k, $f($($arg),*), $fallback),
            8 => for_fixed_lanes!(@rows 8, $k, $f($($arg),*), $fallback),
            10 => for_fixed_lanes!(@rows 10, $k, $f($($arg),*), $fallback),
            20 => for_fixed_lanes!(@rows 20, $k, $f($($arg),*), $fallback),
            40 => for_fixed_lanes!(@rows 40, $k, $f($($arg),*), $fallback),
            _ => $fallback,
        }
    };
}
pub(crate) use for_fixed_lanes;

/// `v · ⊛ rows` per lane: every lane starts at `v` and is multiplied by
/// the rows in array order.  `None` when a row is not `R` wide, so the
/// caller can fall through to its dynamic body instead of panicking.
#[inline(always)]
pub(crate) fn lane_products<const R: usize, const K: usize>(
    v: f64,
    rows: [&[f64]; K],
) -> Option<[f64; R]> {
    let mut lanes = [v; R];
    for row in rows {
        let row = <&[f64; R]>::try_from(row).ok()?;
        for (lane, &a) in lanes.iter_mut().zip(row) {
            *lane *= a;
        }
    }
    Some(lanes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims<const R: usize, const K: usize>() -> (usize, usize) {
        (R, K)
    }

    #[test]
    fn dispatch_covers_the_paper_and_ablation_ranks_at_up_to_four_rows() {
        for r in 0..64usize {
            for k in 0..8usize {
                let got = for_fixed_lanes!(r, k, dims(), else (0, 0));
                let fixed = [5, 8, 10, 20, 40].contains(&r) && (1..=4).contains(&k);
                assert_eq!(
                    got,
                    if fixed { (r, k) } else { (0, 0) },
                    "rank {r} rows {k}"
                );
            }
        }
    }

    #[test]
    fn a_const_second_parameter_dispatches_on_the_rank_alone() {
        for r in 0..64usize {
            let got = for_fixed_lanes!(r, const 8, dims(), else (0, 0));
            let fixed = [5, 8, 10, 20, 40].contains(&r);
            assert_eq!(got, if fixed { (r, 8) } else { (0, 0) }, "rank {r}");
        }
    }

    #[test]
    fn lanes_multiply_left_to_right() {
        let (a, b) = ([0.1, 0.2, 0.3, 0.4, 0.5], [3.0, 7.0, 11.0, 13.0, 17.0]);
        let got = lane_products::<5, 2>(0.7, [&a, &b]).unwrap();
        for c in 0..5 {
            assert_eq!(got[c].to_bits(), (0.7 * a[c] * b[c]).to_bits());
        }
        // No rows: the lanes are the value itself.
        assert_eq!(lane_products::<5, 0>(2.5, []), Some([2.5; 5]));
    }

    #[test]
    fn a_row_of_the_wrong_width_is_none_not_a_panic() {
        let (ok, short) = ([1.0; 5], [1.0; 4]);
        assert!(lane_products::<5, 2>(1.0, [&ok, &short]).is_none());
    }
}
