use locap_lint::hot;

use crate::{Group, GroupError};

/// The iterated semidirect-product families of paper §5:
///
/// * `IterGroup::finite(i, m)` is `H_i` (and `W_i` for `m = 2`): the `i`-fold
///   iterated wreath-like product over `Z_m`, of order `m^(2^i - 1)`;
/// * `IterGroup::infinite(i)` is `U_i`, the same construction over `Z`.
///
/// Elements are `d(i)`-tuples of `i64` with `d(i) = 2^i − 1`, laid out
/// recursively as `[x…, y…, c]` for `(x, y, c) ∈ H_i² ⋊ Z_m`: the cyclic
/// factor `c` acts by swapping `x` and `y` when `c` is odd. The modulus `m`
/// must be even so that the parity action is well defined (`Z_m → Z_2` is a
/// homomorphism only for even `m`); the paper likewise takes `m` even.
///
/// Coordinate reduction maps are homomorphisms
/// (`U_i --ψ--> H_i --ϕ'--> W_i`, see [`IterGroup::reduce`]), making every
/// Cayley graph of `H_i` a lift of the corresponding Cayley graph of `W_i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterGroup {
    level: usize,
    modulus: Option<u64>,
}

impl IterGroup {
    /// The finite group `H_i` over `Z_m` (use `m = 2` for `W_i`).
    ///
    /// # Errors
    ///
    /// `level` must be at least 1 and `m` even and at least 2; the group
    /// order `m^(2^i − 1)` must fit in `u128`.
    pub fn finite(level: usize, m: u64) -> Result<IterGroup, GroupError> {
        if level == 0 || level > 7 {
            return Err(GroupError::BadParameters {
                reason: format!("level {level} out of supported range 1..=7"),
            });
        }
        if m < 2 || m % 2 != 0 {
            return Err(GroupError::BadParameters {
                reason: format!("modulus {m} must be even and >= 2"),
            });
        }
        let d = (1u32 << level) - 1;
        let mut order: u128 = 1;
        for _ in 0..d {
            order = order
                .checked_mul(m as u128)
                .ok_or(GroupError::BadParameters { reason: "group order overflows u128".into() })?;
        }
        Ok(IterGroup { level, modulus: Some(m) })
    }

    /// The infinite group `U_i` over `Z`.
    ///
    /// # Errors
    ///
    /// `level` must be in `1..=7`.
    pub fn infinite(level: usize) -> Result<IterGroup, GroupError> {
        if level == 0 || level > 7 {
            return Err(GroupError::BadParameters {
                reason: format!("level {level} out of supported range 1..=7"),
            });
        }
        Ok(IterGroup { level, modulus: None })
    }

    /// The nesting level `i`.
    pub fn level(&self) -> usize {
        self.level
    }

    /// The modulus `m`, or `None` for the infinite family.
    pub fn modulus(&self) -> Option<u64> {
        self.modulus
    }

    /// The tuple dimension `d(i) = 2^i − 1`.
    pub fn dim(&self) -> usize {
        (1usize << self.level) - 1
    }

    fn add(&self, a: i64, b: i64) -> i64 {
        match self.modulus {
            Some(m) => (a + b).rem_euclid(m as i64),
            None => a.checked_add(b).expect("coordinate overflow in U"),
        }
    }

    fn neg(&self, a: i64) -> i64 {
        match self.modulus {
            Some(m) => (-a).rem_euclid(m as i64),
            None => a.checked_neg().expect("coordinate overflow in U"),
        }
    }

    fn op_rec(&self, a: &[i64], b: &[i64], out: &mut [i64]) {
        let d = a.len();
        if d == 1 {
            out[0] = self.add(a[0], b[0]);
            return;
        }
        let h = (d - 1) / 2;
        let c = a[d - 1];
        // c acts on (b_x, b_y) by swapping when odd.
        let (bx, by) =
            if c.rem_euclid(2) == 1 { (&b[h..2 * h], &b[..h]) } else { (&b[..h], &b[h..2 * h]) };
        let (out_xy, out_c) = out.split_at_mut(d - 1);
        let (ox, oy) = out_xy.split_at_mut(h);
        self.op_rec(&a[..h], bx, ox);
        self.op_rec(&a[h..2 * h], by, oy);
        out_c[0] = self.add(c, b[d - 1]);
    }

    fn inv_rec(&self, a: &[i64], out: &mut [i64]) {
        let d = a.len();
        if d == 1 {
            out[0] = self.neg(a[0]);
            return;
        }
        let h = (d - 1) / 2;
        let c = a[d - 1];
        // (x, y, c)⁻¹ = (c⁻¹ · (x⁻¹, y⁻¹), −c); c⁻¹ has the same parity.
        let (out_xy, out_c) = out.split_at_mut(d - 1);
        let (ox, oy) = out_xy.split_at_mut(h);
        if c.rem_euclid(2) == 1 {
            self.inv_rec(&a[h..2 * h], ox);
            self.inv_rec(&a[..h], oy);
        } else {
            self.inv_rec(&a[..h], ox);
            self.inv_rec(&a[h..2 * h], oy);
        }
        out_c[0] = self.neg(c);
    }

    /// Reduces every coordinate modulo `m2`, yielding an element of the
    /// level-`i` group over `Z_{m2}`. This is the homomorphism ψ (from `U`)
    /// or ϕ′ (from `H` when `m2` divides `m`); both preserve parity because
    /// all moduli are even.
    ///
    /// # Errors
    ///
    /// `m2` must be even and, when `self` is finite with modulus `m`,
    /// divide `m`.
    pub fn reduce(&self, a: &[i64], m2: u64) -> Result<(IterGroup, Vec<i64>), GroupError> {
        if let Some(m) = self.modulus {
            if m % m2 != 0 {
                return Err(GroupError::BadParameters {
                    reason: format!("{m2} does not divide {m}; reduction is not a homomorphism"),
                });
            }
        }
        let target = IterGroup::finite(self.level, m2)?;
        let out = a.iter().map(|&x| x.rem_euclid(m2 as i64)).collect();
        Ok((target, out))
    }

    /// Whether `a` lies in the positive cone
    /// `P = {(u₁,…,u_i,0,…,0) : u_i > 0}` of `U` (paper §5.2): the last
    /// nonzero coordinate is positive. `P` defines the left-invariant order
    /// `u < v ⟺ u⁻¹v ∈ P`. Meaningful for the infinite family.
    pub fn cone_positive(&self, a: &[i64]) -> bool {
        for &x in a.iter().rev() {
            if x != 0 {
                return x > 0;
            }
        }
        false
    }

    /// The left-invariant order on `U`: compares `a` and `b` via
    /// `a⁻¹ b ∈ P`.
    pub fn cmp_order(&self, a: &[i64], b: &[i64]) -> std::cmp::Ordering {
        let diff = self.op(&self.inv(&a.to_vec()), &b.to_vec());
        if diff.iter().all(|&x| x == 0) {
            std::cmp::Ordering::Equal
        } else if self.cone_positive(&diff) {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Greater
        }
    }

    /// Position of `a ∈ Z_m^d` in `U`'s left-invariant order restricted to
    /// `Z_m^d`: the rank that sorting every element by
    /// [`IterGroup::cmp_order`] (on `U`) gives it, in closed form.
    ///
    /// Write `a = (x, y, c)`. The last coordinate of `a⁻¹b` is `c_b − c_a`;
    /// when it is 0, the `y`-slot of `a⁻¹b` is `x_a⁻¹x_b` for odd `c` and
    /// `y_a⁻¹y_b` for even `c`, and the `x`-slot holds the other half. The
    /// cone therefore compares `c` first, then the half that `c`'s parity
    /// puts first (`x` for odd `c`, `y` for even `c`), then the other half,
    /// by the same rule down to `Z`. Read as base-`m` digits that key is the
    /// rank, because all `m^d` tuples occur. `O(d)`, no allocation.
    ///
    /// # Panics
    ///
    /// Panics if the group is infinite or coordinates are out of range.
    ///
    /// ```
    /// use locap_groups::IterGroup;
    ///
    /// let h = IterGroup::finite(2, 4).unwrap();
    /// // c = 1 is odd: x is compared before y
    /// assert_eq!(h.order_index(&[2, 3, 1]), (1 * 4 + 2) * 4 + 3);
    /// // c = 2 is even: y is compared before x
    /// assert_eq!(h.order_index(&[2, 3, 2]), (2 * 4 + 3) * 4 + 2);
    /// ```
    pub fn order_index(&self, a: &[i64]) -> usize {
        let m = self.modulus.expect("order_index requires a finite group") as i64;
        assert_eq!(a.len(), self.dim(), "element dimension mismatch");
        let mut idx = 0;
        order_digits(a, m, &mut idx);
        idx
    }

    /// Index of a finite-group element under the mixed-radix enumeration
    /// (`elem[0]` is the most significant digit).
    ///
    /// # Panics
    ///
    /// Panics if the group is infinite or coordinates are out of range.
    pub fn index_of(&self, a: &[i64]) -> usize {
        let m = self.modulus.expect("index_of requires a finite group") as i64;
        assert_eq!(a.len(), self.dim());
        let mut idx: usize = 0;
        for &x in a {
            assert!((0..m).contains(&x), "coordinate {x} out of range");
            idx = idx * m as usize + x as usize;
        }
        idx
    }

    /// Inverse of [`IterGroup::index_of`].
    ///
    /// # Panics
    ///
    /// Panics if the group is infinite or the index is out of range.
    pub fn elem_of(&self, idx: usize) -> Vec<i64> {
        let mut out = vec![0i64; self.dim()];
        self.elem_into(idx, &mut out);
        out
    }

    /// [`IterGroup::elem_of`] into a caller-owned buffer, so a sweep over
    /// all elements can decode into one reused tuple.
    ///
    /// # Panics
    ///
    /// Panics if the group is infinite, `out.len()` is not `d`, or the
    /// index is out of range.
    pub fn elem_into(&self, mut idx: usize, out: &mut [i64]) {
        let m = self.modulus.expect("elem_of requires a finite group") as usize;
        assert_eq!(out.len(), self.dim(), "element dimension mismatch");
        for x in out.iter_mut().rev() {
            *x = (idx % m) as i64;
            idx /= m;
        }
        assert_eq!(idx, 0, "index out of range");
    }

    /// Iterates over all elements of a finite group in index order.
    ///
    /// # Errors
    ///
    /// Fails with [`GroupError::InfiniteGroup`] for the infinite family.
    pub fn elements(&self) -> Result<impl Iterator<Item = Vec<i64>> + '_, GroupError> {
        let order = self.order().ok_or(GroupError::InfiniteGroup)?;
        if order > usize::MAX as u128 {
            return Err(GroupError::BadParameters { reason: "order exceeds usize".into() });
        }
        Ok((0..order as usize).map(move |i| self.elem_of(i)))
    }
}

/// Appends the order key of `a ∈ Z_m^{|a|}` to `idx` as base-`m` digits:
/// `c`, then the half that `c`'s parity compares first, then the other
/// (see [`IterGroup::order_index`]).
#[hot]
fn order_digits(a: &[i64], m: i64, idx: &mut usize) {
    let Some((&c, xy)) = a.split_last() else { return };
    assert!((0..m).contains(&c), "coordinate {c} out of range");
    *idx = *idx * m as usize + c as usize;
    let (x, y) = xy.split_at(xy.len() / 2);
    let (first, second) = if c % 2 == 1 { (x, y) } else { (y, x) };
    order_digits(first, m, idx);
    order_digits(second, m, idx);
}

impl Group for IterGroup {
    type Elem = Vec<i64>;

    fn identity(&self) -> Vec<i64> {
        vec![0; self.dim()]
    }

    fn op(&self, a: &Vec<i64>, b: &Vec<i64>) -> Vec<i64> {
        assert_eq!(a.len(), self.dim(), "element dimension mismatch");
        assert_eq!(b.len(), self.dim(), "element dimension mismatch");
        let mut out = vec![0i64; a.len()];
        self.op_rec(a, b, &mut out);
        out
    }

    fn inv(&self, a: &Vec<i64>) -> Vec<i64> {
        assert_eq!(a.len(), self.dim(), "element dimension mismatch");
        let mut out = vec![0i64; a.len()];
        self.inv_rec(a, &mut out);
        out
    }

    fn order(&self) -> Option<u128> {
        let m = self.modulus? as u128;
        let d = self.dim() as u32;
        let mut order: u128 = 1;
        for _ in 0..d {
            order = order.checked_mul(m)?;
        }
        Some(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rand_elem(g: &IterGroup, seed: u64) -> Vec<i64> {
        // simple LCG so tests stay deterministic without pulling in rand
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..g.dim())
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                match g.modulus() {
                    Some(m) => ((s >> 33) % m) as i64,
                    None => ((s >> 33) % 21) as i64 - 10,
                }
            })
            .collect()
    }

    #[test]
    fn construction_validation() {
        assert!(IterGroup::finite(0, 2).is_err());
        assert!(IterGroup::finite(8, 2).is_err());
        assert!(IterGroup::finite(2, 3).is_err(), "odd modulus rejected");
        assert!(IterGroup::finite(2, 0).is_err());
        assert!(IterGroup::finite(3, 6).is_ok());
        assert!(IterGroup::infinite(0).is_err());
        assert!(IterGroup::infinite(3).is_ok());
    }

    #[test]
    fn orders_and_dims() {
        let w1 = IterGroup::finite(1, 2).unwrap();
        assert_eq!((w1.dim(), w1.order()), (1, Some(2)));
        let w2 = IterGroup::finite(2, 2).unwrap();
        assert_eq!((w2.dim(), w2.order()), (3, Some(8)));
        let w3 = IterGroup::finite(3, 2).unwrap();
        assert_eq!((w3.dim(), w3.order()), (7, Some(128)));
        let w4 = IterGroup::finite(4, 2).unwrap();
        assert_eq!((w4.dim(), w4.order()), (15, Some(32768)));
        let h3 = IterGroup::finite(3, 6).unwrap();
        assert_eq!(h3.order(), Some(6u128.pow(7)));
        let u3 = IterGroup::infinite(3).unwrap();
        assert_eq!(u3.order(), None);
    }

    #[test]
    fn level1_is_cyclic() {
        let g = IterGroup::finite(1, 6).unwrap();
        assert_eq!(g.op(&vec![4], &vec![5]), vec![3]);
        assert_eq!(g.inv(&vec![2]), vec![4]);
        assert_eq!(g.identity(), vec![0]);
    }

    #[test]
    fn w2_is_dihedral_of_order_8() {
        // W₂ = Z₂² ⋊ Z₂ ≅ D₄. It is non-abelian with 2 elements of order 4?
        // No: Z₂ wr Z₂ ≅ D₄ has 2 elements of order 4.
        let g = IterGroup::finite(2, 2).unwrap();
        let mut order_counts = std::collections::HashMap::new();
        for e in g.elements().unwrap() {
            let o = g.elem_order(&e, 16).unwrap();
            *order_counts.entry(o).or_insert(0) += 1;
        }
        assert_eq!(order_counts[&1], 1);
        // D₄: 5 involutions, 2 elements of order 4.
        assert_eq!(order_counts[&2], 5);
        assert_eq!(order_counts[&4], 2);
    }

    #[test]
    fn swap_action_is_correct() {
        let g = IterGroup::finite(2, 2).unwrap();
        // a = (x=1, y=0, c=1); b = (x'=1, y'=0, c'=0)
        // c=1 is odd, so b is swapped to (0,1): a·b = (1+0, 0+1, 1+0) = (1,1,1)
        let ab = g.op(&vec![1, 0, 1], &vec![1, 0, 0]);
        assert_eq!(ab, vec![1, 1, 1]);
        // with c even no swap: (1,0,0)·(1,0,1) = (0, 0, 1)
        let ba = g.op(&vec![1, 0, 0], &vec![1, 0, 1]);
        assert_eq!(ba, vec![0, 0, 1]);
    }

    #[test]
    fn group_axioms_sampled_levels() {
        for (level, modulus) in [(2, Some(2)), (3, Some(4)), (3, None), (4, Some(2)), (4, None)] {
            let g = match modulus {
                Some(m) => IterGroup::finite(level, m).unwrap(),
                None => IterGroup::infinite(level).unwrap(),
            };
            for seed in 0..30u64 {
                let a = rand_elem(&g, seed);
                let b = rand_elem(&g, seed + 1000);
                let c = rand_elem(&g, seed + 2000);
                // associativity
                assert_eq!(
                    g.op(&g.op(&a, &b), &c),
                    g.op(&a, &g.op(&b, &c)),
                    "assoc level={level} mod={modulus:?} seed={seed}"
                );
                // identity
                assert_eq!(g.op(&a, &g.identity()), a);
                assert_eq!(g.op(&g.identity(), &a), a);
                // inverse
                assert_eq!(g.op(&a, &g.inv(&a)), g.identity());
                assert_eq!(g.op(&g.inv(&a), &a), g.identity());
            }
        }
    }

    #[test]
    fn nonabelian_beyond_level_one() {
        let g = IterGroup::finite(2, 2).unwrap();
        let a = vec![1, 0, 1];
        let b = vec![0, 1, 0];
        assert_ne!(g.op(&a, &b), g.op(&b, &a));
    }

    #[test]
    fn reduction_is_homomorphism() {
        // ψ: U₃ -> H₃(m=6), ϕ′: H₃(6) -> W₃(2)
        let u = IterGroup::infinite(3).unwrap();
        for seed in 0..40u64 {
            let a = rand_elem(&u, seed);
            let b = rand_elem(&u, seed + 500);
            let (h, ra) = u.reduce(&a, 6).unwrap();
            let (_, rb) = u.reduce(&b, 6).unwrap();
            let (_, rab) = u.reduce(&u.op(&a, &b), 6).unwrap();
            assert_eq!(h.op(&ra, &rb), rab, "ψ homomorphism, seed {seed}");

            let (w, wa) = h.reduce(&ra, 2).unwrap();
            let (_, wb) = h.reduce(&rb, 2).unwrap();
            let (_, wab) = h.reduce(&h.op(&ra, &rb), 2).unwrap();
            assert_eq!(w.op(&wa, &wb), wab, "ϕ′ homomorphism, seed {seed}");
        }
        // non-dividing modulus rejected
        let h = IterGroup::finite(2, 6).unwrap();
        assert!(h.reduce(&h.identity(), 4).is_err());
    }

    #[test]
    fn cone_and_order() {
        let u = IterGroup::infinite(2).unwrap();
        assert!(u.cone_positive(&[5, 0, 0]));
        assert!(u.cone_positive(&[-3, 2, 0]));
        assert!(u.cone_positive(&[0, 0, 1]));
        assert!(!u.cone_positive(&[0, 0, 0]));
        assert!(!u.cone_positive(&[-1, 0, 0]));
        assert!(!u.cone_positive(&[7, -2, 0]));

        assert_eq!(u.cmp_order(&[0, 0, 0], &[0, 0, 0]), std::cmp::Ordering::Equal);
        // exactly one of a < b, b < a for distinct elements
        for s in 0..50u64 {
            let a = rand_elem(&u, s);
            let b = rand_elem(&u, s + 100);
            if a != b {
                let ab = u.cmp_order(&a, &b);
                let ba = u.cmp_order(&b, &a);
                assert_ne!(ab, ba, "antisymmetry");
                assert_ne!(ab, std::cmp::Ordering::Equal);
            }
        }
    }

    #[test]
    fn order_is_left_invariant() {
        let u = IterGroup::infinite(3).unwrap();
        for s in 0..30u64 {
            let a = rand_elem(&u, s);
            let b = rand_elem(&u, s + 77);
            let w = rand_elem(&u, s + 154);
            let before = u.cmp_order(&a, &b);
            let after = u.cmp_order(&u.op(&w, &a), &u.op(&w, &b));
            assert_eq!(before, after, "left invariance, seed {s}");
        }
    }

    #[test]
    fn cone_closed_under_multiplication_sampled() {
        // transitivity of < requires P · P ⊆ P
        let u = IterGroup::infinite(3).unwrap();
        let mut checked = 0;
        for s in 0..400u64 {
            let a = rand_elem(&u, s);
            let b = rand_elem(&u, s + 3571);
            if u.cone_positive(&a) && u.cone_positive(&b) {
                assert!(u.cone_positive(&u.op(&a, &b)), "P closed under op, seed {s}");
                checked += 1;
            }
        }
        assert!(checked > 20, "expected to exercise enough positive pairs, got {checked}");
    }

    #[test]
    fn index_codec_roundtrip() {
        let g = IterGroup::finite(3, 4).unwrap();
        let n = g.order().unwrap() as usize;
        for idx in [0usize, 1, 5, 100, n - 1] {
            assert_eq!(g.index_of(&g.elem_of(idx)), idx);
        }
        assert_eq!(g.elements().unwrap().count(), n);
    }

    /// The differential oracle of [`IterGroup::order_index`]: sorting every
    /// element of `H_level(m)` by `cmp_order` in `U` yields the closed-form
    /// rank, exhaustively.
    #[test]
    fn order_index_matches_the_cmp_order_sort() {
        for (level, m) in [(1, 6), (2, 4), (2, 6), (2, 10), (3, 2), (3, 4), (4, 2)] {
            let h = IterGroup::finite(level, m).unwrap();
            let u = IterGroup::infinite(level).unwrap();
            let mut sorted: Vec<Vec<i64>> = h.elements().unwrap().collect();
            sorted.sort_by(|a, b| u.cmp_order(a, b));
            for (pos, a) in sorted.iter().enumerate() {
                assert_eq!(h.order_index(a), pos, "level {level}, m {m}, element {a:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "requires a finite group")]
    fn order_index_of_infinite_panics() {
        let u = IterGroup::infinite(2).unwrap();
        let _ = u.order_index(&[0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn order_index_rejects_out_of_range_coordinates() {
        let h = IterGroup::finite(2, 4).unwrap();
        let _ = h.order_index(&[0, 4, 1]);
    }

    #[test]
    #[should_panic(expected = "requires a finite group")]
    fn index_of_infinite_panics() {
        let u = IterGroup::infinite(2).unwrap();
        let _ = u.index_of(&[0, 0, 0]);
    }

    proptest! {
        #[test]
        fn prop_inv_involution(seed in 0u64..10_000) {
            let g = IterGroup::finite(3, 6).unwrap();
            let a = rand_elem(&g, seed);
            prop_assert_eq!(g.inv(&g.inv(&a)), a);
        }

        #[test]
        fn prop_codec_roundtrip(idx in 0usize..32768) {
            let g = IterGroup::finite(4, 2).unwrap();
            prop_assert_eq!(g.index_of(&g.elem_of(idx)), idx);
        }

        /// Random pairs at level 3 for moduli up to 400; `b` keeps the
        /// coordinates of `a` that `keep` selects, so equal `c`s (and equal
        /// deeper halves) are common and every level of the key is reached.
        #[test]
        fn prop_order_index_agrees_with_cmp_order(
            half_m in 1u64..=200,
            sa in any::<u64>(),
            sb in any::<u64>(),
            keep in 0u32..128,
        ) {
            let h = IterGroup::finite(3, 2 * half_m).unwrap();
            let u = IterGroup::infinite(3).unwrap();
            let a = rand_elem(&h, sa);
            let mut b = rand_elem(&h, sb);
            for (i, x) in b.iter_mut().enumerate() {
                if keep >> i & 1 == 1 {
                    *x = a[i];
                }
            }
            prop_assert_eq!(u.cmp_order(&a, &b), h.order_index(&a).cmp(&h.order_index(&b)));
        }
    }
}
