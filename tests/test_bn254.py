"""Low-level curve layer: field towers, group laws, and the pairing."""

import math
import random

import pytest

from seqsig import bn254 as b
from seqsig.groups import Bn254Backend

rng = random.Random(20240817)


def naive_g1_mul(pt, k):
    """Affine double-and-add: the oracle for the wNAF multi-exponentiation."""
    acc = None
    for bit in bin(k % b.ORDER)[2:]:
        acc = b.g1_add(acc, acc)
        if bit == "1":
            acc = b.g1_add(acc, pt)
    return acc


def naive_g2_mul(pt, k):
    return naive_g2_ladder(pt, k % b.ORDER)


def naive_g2_ladder(pt, k):
    """Affine double-and-add with k as given, not reduced mod ORDER, so it
    also multiplies twist points outside G2 correctly."""
    acc = None
    for bit in bin(k)[2:]:
        acc = b.g2_add(acc, acc)
        if bit == "1":
            acc = b.g2_add(acc, pt)
    return acc


def twist_point_of_order_10069():
    """[(2p - r) r / 10069]Q for the first twist point Q = ((i, 1), y) whose
    result is not the identity: the twist has order r(2p - r), and 10069
    divides the cofactor 2p - r."""
    cofactor = 2 * b.P - b.ORDER
    assert cofactor % 10069 == 0
    for i in range(1, 100):
        x = (i, 1)
        y = Bn254Backend._sqrt_fq2(b.fq2_add(b.fq2_mul(b.fq2_sqr(x), x), b.B2))
        if y is not None:
            t = naive_g2_ladder((x, y), cofactor // 10069 * b.ORDER)
            if t is not None:
                assert naive_g2_ladder(t, 10069) is None
                return t
    raise AssertionError("no twist point of order 10069 found")


def random_twist_point(seed):
    """The first point ((x0, x1), y) on the twist for x drawn from Random(seed)."""
    draw = random.Random(seed)
    while True:
        x = (draw.randrange(b.P), draw.randrange(b.P))
        y = Bn254Backend._sqrt_fq2(b.fq2_add(b.fq2_mul(b.fq2_sqr(x), x), b.B2))
        if y is not None:
            return (x, y)


def cyclotomic_outside_gt(seed):
    """tau = easy_part(f)^r for a random Fp12 element f drawn from
    Random(seed): cyclotomic, and of an order that divides the G_T cofactor
    (p^4 - p^2 + 1)/r, so not 1 and outside G_T. The power is a plain
    ladder on the nested tower, with r as given."""
    draw = random.Random(seed)
    f = flat(fq12_from(draw.randrange(b.P) for _ in range(12)))
    tau = flat(oracle_fq12_pow(fq12_from(easy_part(f)), b.ORDER))
    assert b.fq12_is_cyclotomic(tau) and tau != b.FQ12_ONE
    return tau


# The nested-tuple tower below is the independent reference for bn254's flat
# one: an Fp6 element is a triple of Fp2 pairs, an Fp12 element a pair of
# Fp6 triples (c0, c1) = c0 + c1*w. `flat` and `fq12_from` convert between
# it and bn254's flat 12-tuples.

def flat6(x):
    return tuple(c for pair_ in x for c in pair_)


def flat(x):
    """The flat 12-tuple of a nested Fp12 element, in encoding order."""
    return flat6(x[0]) + flat6(x[1])


def reduced_fq6_mul(x, y):
    """bn254's unreduced Fp6 product of two flat 6-tuples, reduced."""
    return tuple(c % b.P for c in b._fq6_mul_unreduced(*x, *y))


def fq12_from(coeffs):
    """The nested Fp12 element of twelve ints in encoding order."""
    c = list(coeffs)
    return tuple(tuple((c[i], c[i + 1]) for i in range(j, j + 6, 2)) for j in (0, 6))


ORACLE_FQ6_ZERO = (b.FQ2_ZERO,) * 3
ORACLE_FQ12_ONE = ((b.FQ2_ONE, b.FQ2_ZERO, b.FQ2_ZERO), ORACLE_FQ6_ZERO)


def oracle_fq6_add(x, y):
    return tuple(b.fq2_add(s, t) for s, t in zip(x, y))


def oracle_fq6_sub(x, y):
    return tuple(b.fq2_sub(s, t) for s, t in zip(x, y))


def oracle_fq6_neg(x):
    return tuple(b.fq2_neg(s) for s in x)


def oracle_fq6_mul_by_v(x):
    return (b.fq2_mul_xi(x[2]), x[0], x[1])


def oracle_fq6_mul(x, y):
    """Karatsuba over Fp2 with a reduced tuple per intermediate: the oracle
    for the unreduced Fp6 product."""
    a0, a1, a2 = x
    b0, b1, b2 = y
    t0 = b.fq2_mul(a0, b0)
    t1 = b.fq2_mul(a1, b1)
    t2 = b.fq2_mul(a2, b2)
    c0 = b.fq2_add(t0, b.fq2_mul_xi(b.fq2_sub(b.fq2_mul(b.fq2_add(a1, a2), b.fq2_add(b1, b2)),
                                                b.fq2_add(t1, t2))))
    c1 = b.fq2_add(b.fq2_sub(b.fq2_mul(b.fq2_add(a0, a1), b.fq2_add(b0, b1)), b.fq2_add(t0, t1)),
                   b.fq2_mul_xi(t2))
    c2 = b.fq2_add(b.fq2_sub(b.fq2_mul(b.fq2_add(a0, a2), b.fq2_add(b0, b2)), b.fq2_add(t0, t2)),
                   t1)
    return (c0, c1, c2)


def oracle_fq6_inv(x):
    """Adjugate over Fp2; the Fp2 inverse is a^-1 = a^(p^2 - 2), not fq2_inv."""
    a0, a1, a2 = x
    c0 = b.fq2_sub(b.fq2_sqr(a0), b.fq2_mul_xi(b.fq2_mul(a1, a2)))
    c1 = b.fq2_sub(b.fq2_mul_xi(b.fq2_sqr(a2)), b.fq2_mul(a0, a1))
    c2 = b.fq2_sub(b.fq2_sqr(a1), b.fq2_mul(a0, a2))
    norm = b.fq2_add(b.fq2_mul(a0, c0), b.fq2_mul_xi(b.fq2_add(b.fq2_mul(a2, c1),
                                                               b.fq2_mul(a1, c2))))
    if norm == b.FQ2_ZERO:
        raise ValueError("zero has no inverse")
    inv = b.fq2_pow(norm, b.P ** 2 - 2)
    return (b.fq2_mul(c0, inv), b.fq2_mul(c1, inv), b.fq2_mul(c2, inv))


def oracle_fq12_mul(x, y):
    a0, a1 = x
    b0, b1 = y
    t0 = oracle_fq6_mul(a0, b0)
    t1 = oracle_fq6_mul(a1, b1)
    c0 = oracle_fq6_add(t0, oracle_fq6_mul_by_v(t1))
    c1 = oracle_fq6_sub(oracle_fq6_sub(oracle_fq6_mul(oracle_fq6_add(a0, a1),
                                                      oracle_fq6_add(b0, b1)), t0), t1)
    return (c0, c1)


def oracle_fq12_sqr(x):
    a0, a1 = x
    t = oracle_fq6_mul(a0, a1)
    c0 = oracle_fq6_sub(oracle_fq6_sub(
        oracle_fq6_mul(oracle_fq6_add(a0, a1), oracle_fq6_add(a0, oracle_fq6_mul_by_v(a1))), t),
        oracle_fq6_mul_by_v(t))
    return (c0, oracle_fq6_add(t, t))


def oracle_fq12_conj(x):
    return (x[0], oracle_fq6_neg(x[1]))


def oracle_fq12_inv(x):
    a0, a1 = x
    norm = oracle_fq6_inv(oracle_fq6_sub(oracle_fq6_mul(a0, a0),
                                         oracle_fq6_mul_by_v(oracle_fq6_mul(a1, a1))))
    return (oracle_fq6_mul(a0, norm), oracle_fq6_neg(oracle_fq6_mul(a1, norm)))


ORACLE_FROB_COEFF = {
    k: [b.fq2_pow(b.XI, i * (b.P ** k - 1) // 6) for i in range(6)] for k in (1, 2, 3)
}


def oracle_fq12_frobenius(x, k):
    """b_i -> conj^k(b_i) * XI^(i (p^k - 1) / 6) on the w-coefficients
    b_0..b_5, which the tower packs as c0 = (b0, b2, b4), c1 = (b1, b3, b5)."""
    (b0, b2, b4), (b1, b3, b5) = x
    bs = [b0, b1, b2, b3, b4, b5]
    if k % 2 == 1:
        bs = [b.fq2_conj(t) for t in bs]
    bs = [b.fq2_mul(t, c) for t, c in zip(bs, ORACLE_FROB_COEFF[k])]
    return ((bs[0], bs[2], bs[4]), (bs[1], bs[3], bs[5]))


def oracle_fq12_pow(x, e):
    """Square-and-multiply on the nested tower."""
    result = ORACLE_FQ12_ONE
    for bit in bin(e)[2:]:
        result = oracle_fq12_sqr(result)
        if bit == "1":
            result = oracle_fq12_mul(result, x)
    return result


def oracle_final_exponentiation(f):
    """f^((p^12 - 1)/r): the easy part by conjugate, inverse and Frobenius,
    the hard part (p^4 - p^2 + 1)/r by square-and-multiply."""
    t = oracle_fq12_mul(oracle_fq12_conj(f), oracle_fq12_inv(f))
    t = oracle_fq12_mul(oracle_fq12_frobenius(t, 2), t)
    return oracle_fq12_pow(t, (b.P ** 4 - b.P ** 2 + 1) // b.ORDER)


def oracle_fq6_mul_by_01(x, b0, b1):
    """x * (b0 + b1*v): the Fp6 product with a zero v^2 coefficient, 5 fq2_mul."""
    a0, a1, a2 = x
    t0 = b.fq2_mul(a0, b0)
    t1 = b.fq2_mul(a1, b1)
    c0 = b.fq2_add(t0, b.fq2_mul_xi(b.fq2_sub(b.fq2_mul(b.fq2_add(a1, a2), b1), t1)))
    c1 = b.fq2_sub(b.fq2_sub(b.fq2_mul(b.fq2_add(a0, a1), b.fq2_add(b0, b1)), t0), t1)
    c2 = b.fq2_add(b.fq2_sub(b.fq2_mul(b.fq2_add(a0, a2), b0), t0), t1)
    return (c0, c1, c2)


def oracle_mul_line(f, a, c1, c3):
    """f * (a + c1*w + c3*w^3) with two sparse Fp6 products and Fp scalings."""
    f0, f1 = f

    def scale(x):
        return tuple(b.fq2_scale(t, a) for t in x)

    return (oracle_fq6_add(scale(f0), oracle_fq6_mul_by_v(oracle_fq6_mul_by_01(f1, c1, c3))),
            oracle_fq6_add(oracle_fq6_mul_by_01(f0, c1, c3), scale(f1)))


def oracle_fq4_sqr(x, y):
    # (x + y*s)^2 with s^2 = v: (x^2 + XI*y^2, (x + y)^2 - x^2 - y^2)
    t0 = b.fq2_sqr(x)
    t1 = b.fq2_sqr(y)
    return (b.fq2_add(b.fq2_mul_xi(t1), t0),
            b.fq2_sub(b.fq2_sub(b.fq2_sqr(b.fq2_add(x, y)), t0), t1))


def oracle_fq12_cyc_sqr(x):
    """Granger-Scott squaring on Fp2 tuples."""
    (z0, z4, z3), (z2, z1, z5) = x
    t0, t1 = oracle_fq4_sqr(z0, z1)
    z0 = b.fq2_add(b.fq2_scale(b.fq2_sub(t0, z0), 2), t0)
    z1 = b.fq2_add(b.fq2_scale(b.fq2_add(t1, z1), 2), t1)
    t0, t1 = oracle_fq4_sqr(z2, z3)
    t2, t3 = oracle_fq4_sqr(z4, z5)
    z4 = b.fq2_add(b.fq2_scale(b.fq2_sub(t0, z4), 2), t0)
    z5 = b.fq2_add(b.fq2_scale(b.fq2_add(t1, z5), 2), t1)
    t0 = b.fq2_mul_xi(t3)
    z2 = b.fq2_add(b.fq2_scale(b.fq2_add(t0, z2), 2), t0)
    z3 = b.fq2_add(b.fq2_scale(b.fq2_sub(t2, z3), 2), t2)
    return ((z0, z4, z3), (z2, z1, z5))


def random_fq12():
    """A random nested Fp12 element."""
    return fq12_from(rng.randrange(b.P) for _ in range(12))


def easy_part(f):
    """f^((p^6 - 1)(p^2 + 1)) for flat f, which lies in the cyclotomic subgroup."""
    t = b.fq12_mul(b.fq12_conj(f), b.fq12_inv(f))
    return b.fq12_mul(b.fq12_frobenius(t, 2), t)


EXTREME_FQ12 = {"all-P-1": fq12_from([b.P - 1] * 12), "zero": fq12_from([0] * 12),
                "one": ORACLE_FQ12_ONE}


def naive_line(r, q, p):
    """The line through twist points r and q, evaluated at p in G1, as a
    dense Fp12 element, and r + q (None when the line is vertical)."""
    (xr, yr), (xp, yp) = r, p
    if r == q:
        lam = b.fq2_mul(b.fq2_scale(b.fq2_sqr(xr), 3), b.fq2_inv(b.fq2_scale(yr, 2)))
    elif xr == q[0]:
        # the vertical x - xr' untwists to xp - xr'*w^2
        return (((xp, 0), b.fq2_neg(xr), b.FQ2_ZERO), ORACLE_FQ6_ZERO), None
    else:
        lam = b.fq2_mul(b.fq2_sub(q[1], yr), b.fq2_inv(b.fq2_sub(q[0], xr)))
    x3 = b.fq2_sub(b.fq2_sub(b.fq2_sqr(lam), xr), q[0])
    y3 = b.fq2_sub(b.fq2_mul(lam, b.fq2_sub(xr, x3)), yr)
    # yp - lam*xp*w + (lam*xr' - yr')*w^3
    c1 = (b.fq2_scale(lam, -xp % b.P), b.fq2_sub(b.fq2_mul(lam, xr), yr), b.FQ2_ZERO)
    return (((yp, 0), b.FQ2_ZERO, b.FQ2_ZERO), c1), (x3, y3)


def naive_miller_loop_product(pairs):
    """Affine shared Miller loop on the nested tower with one fq2_inv and one
    dense Fp12 product per line, vertical lines included: the oracle for the
    sparse, batch-inverted loop, to be compared after the final
    exponentiation."""
    live = [(p, q) for p, q in pairs if p is not None and q is not None]
    ps = [p for p, _ in live]
    qs = [q for _, q in live]
    rs = list(qs)

    def step(f, addends):
        for i, (q, p) in enumerate(zip(addends, ps)):
            line, rs[i] = naive_line(rs[i], q, p)
            f = oracle_fq12_mul(f, line)
        return f

    f = ORACLE_FQ12_ONE
    for bit in bin(b.ATE_LOOP)[3:]:
        f = step(oracle_fq12_sqr(f), list(rs))
        if bit == "1":
            f = step(f, qs)
    f = step(f, [b.g2_frobenius(q) for q in qs])
    return step(f, [b.g2_neg(b.g2_frobenius_sq(q)) for q in qs])


def lined(pairs):
    """The Miller loop's input for (P, Q) pairs of affine points: each Q
    replaced by its lines, all built in one :func:`b.g2_lines` walk."""
    return list(zip([p for p, _ in pairs], b.g2_lines([q for _, q in pairs])))


_HARD_EXP = (b.P ** 4 - b.P ** 2 + 1) // b.ORDER
_HARD_DIGITS = []
_h = _HARD_EXP
while _h:
    _HARD_DIGITS.append(_h % b.P)
    _h //= b.P


def hard_part_digits(t):
    """Reference hard part: joint exponentiation of the base-p digits of
    (p^4 - p^2 + 1)/r against t^(p^k) = frobenius^k(t). Slower than the
    addition chain; the correctness oracle for it."""
    bases = [t]
    for k in range(1, len(_HARD_DIGITS)):
        bases.append(b.fq12_frobenius(t, k))
    table = {0: b.FQ12_ONE}
    for i, base in enumerate(bases):
        for mask in list(table):
            table[mask | (1 << i)] = b.fq12_mul(table[mask], base)
    nbits = max(d.bit_length() for d in _HARD_DIGITS)
    result = b.FQ12_ONE
    for j in range(nbits - 1, -1, -1):
        result = b.fq12_cyc_sqr(result)
        mask = 0
        for i, d in enumerate(_HARD_DIGITS):
            if (d >> j) & 1:
                mask |= 1 << i
        if mask:
            result = b.fq12_mul(result, table[mask])
    return result


class TestFieldTower:
    def test_fq2_inverse_roundtrip(self):
        for _ in range(20):
            x = (rng.randrange(1, b.P), rng.randrange(b.P))
            assert b.fq2_mul(x, b.fq2_inv(x)) == b.FQ2_ONE

    def test_fq2_batch_inverse_matches_single(self):
        """Against x^(p^2 - 2), not the norm formula that both share."""
        for n in (1, 5):
            xs = [(rng.randrange(1, b.P), rng.randrange(b.P)) for _ in range(n)]
            assert b.fq2_batch_inv(xs) == [b.fq2_pow(x, b.P ** 2 - 2) for x in xs]
        assert b.fq2_batch_inv([]) == []
        with pytest.raises(ValueError):
            b.fq2_batch_inv([(3, 4), b.FQ2_ZERO])

    def test_fq12_inverse_roundtrip(self):
        x = b.pairing(b.G1_GEN, b.G2_GEN)
        assert b.fq12_mul(x, b.fq12_inv(x)) == b.FQ12_ONE

    def test_frobenius_is_p_power(self):
        x = b.pairing(b.g1_mul(b.G1_GEN, 5), b.G2_GEN)
        for k in (1, 2, 3):
            assert b.fq12_frobenius(x, k) == flat(oracle_fq12_pow(fq12_from(x), b.P ** k))

    def test_flat_products_match_tuple_oracles(self):
        for _ in range(50):
            x, y = random_fq12(), random_fq12()
            fx, fy = flat(x), flat(y)
            assert reduced_fq6_mul(fx[:6], fy[6:]) == flat6(oracle_fq6_mul(x[0], y[1]))
            assert b.fq12_mul(fx, fy) == flat(oracle_fq12_mul(x, y))
            assert b.fq12_sqr(fx) == flat(oracle_fq12_sqr(x))
            c1, c3 = y[0][0], y[0][1]
            assert b._mul_line(fx, c1, c3) == flat(oracle_mul_line(x, 1, c1, c3))
            assert b.fq12_cyc_sqr(fx) == flat(oracle_fq12_cyc_sqr(x))

    @pytest.mark.parametrize("y", EXTREME_FQ12.values(), ids=EXTREME_FQ12.keys())
    @pytest.mark.parametrize("x", EXTREME_FQ12.values(), ids=EXTREME_FQ12.keys())
    def test_flat_products_on_extreme_inputs(self, x, y):
        """Every coefficient P - 1 gives the largest unreduced intermediates."""
        fx, fy = flat(x), flat(y)
        assert reduced_fq6_mul(fx[:6], fy[:6]) == flat6(oracle_fq6_mul(x[0], y[0]))
        assert reduced_fq6_mul(fx[6:], fy[:6]) == flat6(oracle_fq6_mul(x[1], y[0]))
        assert b.fq12_mul(fx, fy) == flat(oracle_fq12_mul(x, y))
        assert b.fq12_sqr(fx) == flat(oracle_fq12_sqr(x))
        assert b.fq12_cyc_sqr(fx) == flat(oracle_fq12_cyc_sqr(x))
        _, c1, c3 = y[0]
        assert b._mul_line(fx, c1, c3) == flat(oracle_mul_line(x, 1, c1, c3))

    def test_inverse_conjugate_and_frobenius_match_tuple_oracles(self):
        for _ in range(20):
            self.check_against_oracles(random_fq12())

    @pytest.mark.parametrize("x", EXTREME_FQ12.values(), ids=EXTREME_FQ12.keys())
    def test_inverse_conjugate_and_frobenius_on_extreme_inputs(self, x):
        """Zero has no inverse in either tower."""
        zero = x == EXTREME_FQ12["zero"]
        if zero:
            with pytest.raises(ValueError):
                b.fq12_inv(flat(x))
            with pytest.raises(ValueError):
                oracle_fq12_inv(x)
        self.check_against_oracles(x, invert=not zero)

    @staticmethod
    def check_against_oracles(x, invert=True):
        fx = flat(x)
        if invert:
            assert b.fq12_inv(fx) == flat(oracle_fq12_inv(x))
        assert b.fq12_conj(fx) == flat(oracle_fq12_conj(x))
        for k in (1, 2, 3):
            assert b.fq12_frobenius(fx, k) == flat(oracle_fq12_frobenius(x, k))

    def test_cyclotomic_square_matches_generic(self):
        """Granger-Scott squaring equals the generic square (and its tuple
        oracle) on the cyclotomic subgroup: powers of a pairing output,
        easy-part images of random elements and the unit."""
        x = b.pairing(b.g1_mul(b.G1_GEN, 9), b.g2_mul(b.G2_GEN, 11))
        xs = [b.FQ12_ONE] + [easy_part(flat(random_fq12())) for _ in range(50)]
        for _ in range(5):
            xs.append(x)
            x = b.fq12_mul(b.fq12_sqr(x), x)
        for x in xs:
            assert b.fq12_cyc_sqr(x) == b.fq12_sqr(x) == flat(oracle_fq12_sqr(fq12_from(x)))


class TestGroups:
    def test_generators_have_order_r(self):
        assert b.g1_mul(b.G1_GEN, b.ORDER) is None
        assert b.g2_mul(b.G2_GEN, b.ORDER) is None

    def test_g2_subgroup_check(self):
        assert b.g2_in_subgroup(b.g2_mul(b.G2_GEN, 12345))

    def test_g2_in_subgroup_matches_the_unreduced_ladder(self):
        """The u-sized test against [r]Q by an affine ladder with r as given:
        G2 points, the identity, a point T of order 10069, Q + T, a random
        twist point, and a point off the twist. T and the random twist point
        are on the twist, so an on-curve check alone takes them."""
        q = b.g2_mul(b.G2_GEN, rng.randrange(1, b.ORDER))
        t = twist_point_of_order_10069()
        points = {"generator": b.G2_GEN, "random G2": q, "identity": None, "T": t,
                  "Q + T": b.g2_add(q, t), "random twist": random_twist_point(10069)}
        got = {name: b.g2_in_subgroup(pt) for name, pt in points.items()}
        assert got == {name: pt is None or naive_g2_ladder(pt, b.ORDER) is None
                       for name, pt in points.items()}
        assert [name for name, ok in got.items() if ok] == ["generator", "random G2", "identity"]
        (x0, x1), y = q
        assert not b.g2_is_on_curve(((x0, x1 + 1), y)) and not b.g2_in_subgroup(((x0, x1 + 1), y))

    def test_sqrt_fq2_of_a_real_element(self):
        """A real a0 has a root in Fp2: (r, 0) when a0 is a square in Fp, else
        (0, r), as -1 is a non-square for p = 3 (mod 4). Each squares back to
        (a0, 0), and 0 gives (0, 0)."""
        sqrt = Bn254Backend._sqrt_fq2
        assert sqrt((0, 0)) == (0, 0)
        draw = random.Random(235)
        for a0 in [4, b.P - 1, b.P - 4] + [draw.randrange(1, b.P) for _ in range(8)]:
            root = sqrt((a0, 0))
            if pow(a0, (b.P - 1) // 2, b.P) == 1:
                assert root[1] == 0 != root[0]
            else:
                assert root[0] == 0 != root[1]
            assert b.fq2_sqr(root) == (a0, 0)

    def test_sqrt_fq2_on_both_branches_and_non_squares(self):
        """The root of x^2 is +-x, whether delta = (a0 + lam)/2 is a square
        in Fp or not; both cases occur. a is a square in Fp2 exactly when
        its norm is one in Fp, and otherwise gives None."""
        sqrt, p = Bn254Backend._sqrt_fq2, b.P
        draw = random.Random(236)
        delta_is_square = set()
        for _ in range(40):
            x = (draw.randrange(p), draw.randrange(1, p))
            a = b.fq2_sqr(x)
            assert sqrt(a) in (x, b.fq2_neg(x))
            lam = pow(a[0] * a[0] + a[1] * a[1], (p + 1) // 4, p)
            delta_is_square.add(pow((a[0] + lam) * (p + 1) // 2, (p - 1) // 2, p) == 1)
            a = (draw.randrange(p), draw.randrange(1, p))
            assert (sqrt(a) is None) == (pow(a[0] ** 2 + a[1] ** 2, (p - 1) // 2, p) != 1)
        assert delta_is_square == {True, False}

    def test_g2_mul_matches_naive(self):
        for _ in range(5):
            k = rng.randrange(b.ORDER)
            assert b.g2_mul(b.G2_GEN, k) == naive_g2_mul(b.G2_GEN, k)

    def test_g2_mul_edges(self):
        assert b.g2_mul(b.G2_GEN, 0) is None
        assert b.g2_mul(b.G2_GEN, b.ORDER) is None
        assert b.g2_mul(b.G2_GEN, 1) == b.G2_GEN

    def test_g2_multi_exp_matches_products(self):
        p2 = b.g2_mul(b.G2_GEN, 777)
        p3 = b.g2_mul(b.G2_GEN, 31337)
        for _ in range(3):
            ks = [rng.randrange(b.ORDER) for _ in range(3)]
            lhs = b.g2_multi_exp(list(zip([b.G2_GEN, p2, p3], ks)))
            rhs = None
            for pt, k in zip([b.G2_GEN, p2, p3], ks):
                rhs = b.g2_add(rhs, naive_g2_mul(pt, k))
            assert lhs == rhs

    def test_g1_mul_matches_naive(self):
        pt = naive_g1_mul(b.G1_GEN, 31337)
        for _ in range(5):
            k = rng.randrange(b.ORDER)
            assert b.g1_mul(pt, k) == naive_g1_mul(pt, k)

    def test_g1_mul_edges(self):
        pt = naive_g1_mul(b.G1_GEN, 4242)
        assert b.g1_mul(pt, 0) is None
        assert b.g1_mul(pt, 1) == pt
        assert b.g1_mul(pt, b.ORDER - 1) == b.g1_neg(pt)
        assert b.g1_mul(pt, b.ORDER) is None
        assert b.g1_mul(None, 12345) is None

    def test_g1_multi_exp_matches_products(self):
        pts = [b.G1_GEN] + [naive_g1_mul(b.G1_GEN, rng.randrange(1, b.ORDER)) for _ in range(3)]
        for n in (2, 4):
            ks = [rng.randrange(b.ORDER) for _ in range(n)]
            rhs = None
            for pt, k in zip(pts, ks):
                rhs = b.g1_add(rhs, naive_g1_mul(pt, k))
            assert b.g1_multi_exp(list(zip(pts, ks))) == rhs

    def test_g1_multi_exp_skips_identity_terms(self):
        k = rng.randrange(b.ORDER)
        want = naive_g1_mul(b.G1_GEN, k)
        assert b.g1_multi_exp([(None, 5), (b.G1_GEN, k), (b.G1_GEN, b.ORDER)]) == want
        assert b.g1_multi_exp([(None, 5), (b.G1_GEN, 0)]) is None
        assert b.g1_multi_exp([]) is None

    @pytest.mark.parametrize("group", ["g1", "g2"])
    def test_multi_exp_repeated_and_cancelling_points(self, group):
        gen, neg, multi_exp, add, naive = {
            "g1": (b.G1_GEN, b.g1_neg, b.g1_multi_exp, b.g1_add, naive_g1_mul),
            "g2": (b.G2_GEN, b.g2_neg, b.g2_multi_exp, b.g2_add, naive_g2_mul),
        }[group]
        pt = naive(gen, 999)
        k = rng.randrange(1, b.ORDER)
        # equal terms put equal entries at every position, which each sum
        # doubles, or which the Jacobian add must take on its doubling branch
        assert multi_exp([(pt, k), (pt, k)]) == naive(pt, 2 * k)
        assert multi_exp([(pt, k), (pt, k), (pt, k), (gen, 7)]) == add(naive(pt, 3 * k),
                                                                         naive(gen, 7))
        # P and -P under one scalar, and k and -k on one base: every entry
        # meets its negation, and the sum is the identity
        assert multi_exp([(pt, k), (neg(pt), k)]) is None
        assert multi_exp([(pt, k), (pt, b.ORDER - k)]) is None
        assert multi_exp([(pt, k), (neg(pt), k), (gen, 7)]) == naive(gen, 7)
        assert multi_exp([(gen, 7), (pt, b.ORDER - k), (pt, k)]) == naive(gen, 7)

    @pytest.mark.parametrize("group", ["g1", "g2"])
    def test_mixed_add_of_equal_and_opposite_points(self, group):
        """The mixed add's H = 0 branches, met with a Jacobian point whose Z
        is not 1: an equal affine point doubles it, its negation cancels it."""
        gen, neg, naive, double, madd, to_affine = {
            "g1": (b.G1_GEN, b.g1_neg, naive_g1_mul, b._jac1_double, b._jac1_madd,
                   b._jac1_to_affine),
            "g2": (b.G2_GEN, b.g2_neg, naive_g2_mul, b._jac2_double, b._jac2_madd,
                   b._jac2_to_affine),
        }[group]
        pt = naive(gen, 999)
        twice = double(madd(None, pt))
        twice_affine = to_affine([twice])[0]
        assert twice_affine == naive(pt, 2)
        assert to_affine([madd(twice, twice_affine)])[0] == naive(pt, 4)
        assert madd(twice, neg(twice_affine)) is None

    @pytest.mark.parametrize("k", [1, 2, b.ORDER - 1], ids=["1", "2", "ORDER-1"])
    @pytest.mark.parametrize("group", ["g1", "g2"])
    def test_one_term_multi_exp_edges(self, group, k):
        gen, multi_exp, naive = {
            "g1": (b.G1_GEN, b.g1_multi_exp, naive_g1_mul),
            "g2": (b.G2_GEN, b.g2_multi_exp, naive_g2_mul),
        }[group]
        pt = naive(gen, 4242)
        assert multi_exp([(pt, k)]) == naive(pt, k)

    def test_g2_multi_exp_on_a_twist_point_of_order_10069(self):
        """Points on the twist outside G2, which a subgroup check must take:
        the exponent is reduced mod ORDER, then multiplied exactly."""
        t = twist_point_of_order_10069()
        for k in (1, 2, 10068, 10069, 10070, b.ORDER - 1, b.ORDER + 3, rng.randrange(b.ORDER)):
            assert b.g2_mul(t, k) == naive_g2_ladder(t, k % b.ORDER)
        k1, k2 = rng.randrange(b.ORDER), rng.randrange(b.ORDER)
        want = b.g2_add(naive_g2_ladder(t, k1), naive_g2_mul(b.G2_GEN, k2))
        assert b.g2_multi_exp([(t, k1), (b.G2_GEN, k2)]) == want

    @pytest.mark.parametrize("width", [4, b.TABLE_WIDTH])
    def test_wnaf_digits(self, width):
        """Odd digits below 2^(w-1) in absolute value, at least w - 1 zero
        positions after each nonzero one, and they sum back to k."""
        for k in [1, b.ORDER - 1] + [rng.randrange(1, b.ORDER) for _ in range(20)]:
            digits = b._wnaf(k, width)
            assert sum(d << i for i, d in digits) == k
            for i, d in digits:
                assert d % 2 == 1 and abs(d) < 1 << (width - 1)
            positions = [i for i, _ in digits]
            assert all(j - i >= width for i, j in zip(positions, positions[1:]))

    @pytest.mark.parametrize("group", ["g1", "g2"])
    def test_multi_exp_mixes_cached_tables_and_points(self, group):
        """Terms given as cached width-7 tables and as points (width 4) in
        one chain, against the naive ladders: zero and ORDER - 1 scalars, an
        identity base, a repeated base (with the same scalar too, so equal
        entries meet at every position), a base with its negation, k and
        -k on one base, a call whose sum is the identity, and in G2 a twist
        point T of order 10069, also beside its own multiples 3T and 5T and
        -3T. T and its multiples are always points: a table's split is
        exact only on G2, so :func:`g2_table` takes no point outside it.
        The identity is always a point too: ``groups`` skips it before any
        table, so neither table function takes it."""
        gen, neg, multi_exp, table, add, naive = {
            "g1": (b.G1_GEN, b.g1_neg, b.g1_multi_exp, b.g1_table, b.g1_add, naive_g1_mul),
            "g2": (b.G2_GEN, b.g2_neg, b.g2_multi_exp, b.g2_table, b.g2_add, naive_g2_mul),
        }[group]
        pts = [naive(gen, rng.randrange(1, b.ORDER)) for _ in range(3)]
        ks = [rng.randrange(b.ORDER) for _ in range(3)]
        cases = [
            list(zip(pts, ks)),
            [(pts[0], 0), (pts[1], b.ORDER - 1), (None, ks[2]), (pts[2], ks[2])],
            [(pts[0], ks[0]), (pts[0], ks[1]), (pts[0], b.ORDER - 1)],
            [(pts[1], ks[1]), (neg(pts[1]), ks[1]), (gen, 7)],
            [(pts[2], ks[2]), (pts[2], ks[2]), (pts[0], ks[0])],
            [(pts[0], ks[0]), (pts[1], ks[1]), (pts[0], b.ORDER - ks[0])],
            [(pts[0], ks[0]), (pts[0], b.ORDER - ks[0]), (neg(pts[1]), ks[1]), (pts[1], ks[1])],
        ]
        points_only = [None]
        if group == "g2":
            t = twist_point_of_order_10069()
            t3, t5 = naive_g2_ladder(t, 3), naive_g2_ladder(t, 5)
            points_only += [t, t3, t5, neg(t3)]
            cases += [[(t, ks[0]), (gen, ks[1]), (t, 10069), (pts[0], b.ORDER - 1)],
                      [(t, ks[0]), (t3, ks[1]), (t, ks[0]), (t5, ks[2]), (neg(t3), ks[1])]]
        for terms in cases:
            want = None
            for pt, k in terms:
                if pt is not None:
                    want = add(want, naive(pt, k))
            for tabled in range(1 << len(terms)):
                mixed = [(table(pt) if tabled >> i & 1 and pt not in points_only else pt, k)
                         for i, (pt, k) in enumerate(terms)]
                assert multi_exp(mixed) == want
        assert multi_exp([(table(pts[0]), b.ORDER)]) is None

    @pytest.mark.parametrize("group", ["g1", "g2"])
    def test_batched_affine_law_matches_one_pair_at_a_time(self, group):
        """The batched affine step, one inversion for all its pairs, against
        the Jacobian mixed addition of one pair at a time. On random pairs,
        on P + P, which doubles, and on P + (-P), which gives the identity,
        in one batch and each alone."""
        gen, neg, law, naive, madd, to_affine = {
            "g1": (b.G1_GEN, b.g1_neg, b._g1_add_pairs, naive_g1_mul, b._jac1_madd,
                   b._jac1_to_affine),
            "g2": (b.G2_GEN, b.g2_neg, b._g2_add_pairs, naive_g2_mul, b._jac2_madd,
                   b._jac2_to_affine),
        }[group]

        def one_pair(p, q):
            total = madd(madd(None, p), q)
            return None if total is None else to_affine([total])[0]

        pts = [naive(gen, rng.randrange(1, b.ORDER)) for _ in range(8)]
        rs = pts[:4] + [pts[4], pts[5]]
        addends = pts[6:] + pts[:2] + [pts[4], neg(pts[5])]
        want = [one_pair(p, q) for p, q in zip(rs, addends)]
        assert want[4] == naive(pts[4], 2) and want[5] is None
        got = list(rs)
        law(got, addends)
        assert got == want
        for p, q, sum_ in zip(rs, addends, want):
            alone = [p]
            law(alone, [q])
            assert alone == [sum_]

    def test_g1_add_mul_consistency(self):
        p5 = b.g1_mul(b.G1_GEN, 5)
        p7 = b.g1_mul(b.G1_GEN, 7)
        assert b.g1_add(p5, p7) == b.g1_mul(b.G1_GEN, 12)


def determinant(rows):
    """The determinant of a square integer matrix, by Laplace expansion
    along its first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * determinant([row[:j] + row[j + 1:] for row in rows[1:]])
               for j in range(len(rows)))


def split_edge_scalars():
    """Scalars at the edges of both splits: 0, 1 and ORDER - 1; lambda,
    2 lambda, lambda +- 1 and ORDER - lambda for the GLV and the GLS lambda;
    and the scalars on either side of each step of _glv_split's rounded
    coefficients round(b2 k / r) and round(-b1 k / r), and of _gls_split's
    four round(m k / r) for m in _GLS_ROUND, where a part is largest."""
    ks = [0, 1, b.ORDER - 1]
    for lam in (b.GLV_LAMBDA, b.GLS_LAMBDA):
        ks += [lam, 2 * lam, lam - 1, lam + 1, b.ORDER - lam]
    (_, b1), (_, b2) = b.GLV_BASIS
    for m in (abs(b2), abs(b1), *b._GLS_ROUND):
        for c in (1, 2, m // 2, m - 1):
            k = -(((b.ORDER >> 1) - c * b.ORDER) // m)  # the least k with m k + r // 2 >= c r
            ks += [k - 1, k, k + 1]
    return [k % b.ORDER for k in ks]


class TestEndomorphismSplit:
    """Every G1 term, and every G2 term whose base is a checked cached
    table, runs as two halves k0*x + k1*E(x) on one shorter chain (the
    module docstring of bn254). Its results must equal the exact ladders."""

    def test_glv_constants_satisfy_their_equations(self):
        lam, beta = b.GLV_LAMBDA, b.GLV_BETA
        assert (lam * lam + lam + 1) % b.ORDER == 0
        assert pow(beta, 3, b.P) == 1 != beta
        assert b._glv_endo(b.G1_GEN) == (beta, 2) == naive_g1_mul(b.G1_GEN, lam)
        (a1, b1), (a2, b2) = b.GLV_BASIS
        assert (a1 + b1 * lam) % b.ORDER == (a2 + b2 * lam) % b.ORDER == 0
        assert abs(a1 * b2 - a2 * b1) == b.ORDER
        assert max(abs(c) for v in b.GLV_BASIS for c in v).bit_length() == 127

    def test_gls_lambda_is_psi_on_g2(self):
        assert b.GLS_LAMBDA == b.P - b.ORDER and b.GLS_LAMBDA.bit_length() == 127
        assert b.g2_frobenius(b.G2_GEN) == naive_g2_ladder(b.G2_GEN, b.GLS_LAMBDA)

    def test_halves_recombine_and_stay_within_128_bits(self):
        for k in split_edge_scalars() + [rng.randrange(b.ORDER) for _ in range(2000)]:
            k0, k1 = b._glv_split(k)
            assert (k0 + k1 * b.GLV_LAMBDA - k) % b.ORDER == 0
            assert abs(k0).bit_length() <= 128 and abs(k1).bit_length() <= 128

    def test_gls_basis_satisfies_its_equations(self):
        """Each vector of GLS_BASIS lies in the lattice of sum_i b_i lambda^i
        = 0 (mod r), |det| = r, and _GLS_ROUND times the basis is (r, 0, 0,
        0), the identity that Babai's rounding in _gls_split rests on. lambda
        is a root of the 12th cyclotomic polynomial mod r, and with the
        trace t = lambda + 1, lambda^2 - t lambda + p is r itself."""
        lam, r = b.GLS_LAMBDA, b.ORDER
        assert (lam ** 4 - lam ** 2 + 1) % r == 0
        assert lam * lam - (lam + 1) * lam + b.P == r
        for v in b.GLS_BASIS:
            assert sum(c * lam ** i for i, c in enumerate(v)) % r == 0
        assert abs(determinant(b.GLS_BASIS)) == r
        assert [sum(a * v[i] for a, v in zip(b._GLS_ROUND, b.GLS_BASIS))
                for i in range(4)] == [r, 0, 0, 0]
        assert max(abs(c) for v in b.GLS_BASIS for c in v).bit_length() == 64

    def test_gls_parts_recombine_and_stay_within_64_bits(self):
        lam = b.GLS_LAMBDA
        for k in split_edge_scalars() + [rng.randrange(b.ORDER) for _ in range(2000)]:
            parts = b._gls_split(k)
            assert len(parts) == 4
            assert (sum(c * lam ** i for i, c in enumerate(parts)) - k) % b.ORDER == 0
            assert all(abs(c).bit_length() <= 64 for c in parts)

    def test_frobenius_sq_is_psi_twice(self):
        """psi^2 = psi o psi on G2 points and on twist points outside G2,
        where it is (c x, -y) with c in Fp, and psi^2 - [t]psi + [p] = 0 on
        the whole twist, t = GLS_LAMBDA + 1: so a point with psi(Q) =
        [lambda]Q has [lambda^2 - t lambda + p]Q = [r]Q = O."""
        assert b.fq2_pow(b.XI, (b.P ** 2 - 1) // 2) == (b.P - 1, 0)
        assert b.fq2_pow(b.XI, (b.P ** 2 - 1) // 3) == (b._FROB2_X, 0)
        t = twist_point_of_order_10069()
        q = naive_g2_mul(b.G2_GEN, rng.randrange(1, b.ORDER))
        for pt in (b.G2_GEN, q, t, b.g2_add(q, t)):
            psi = b.g2_frobenius(pt)
            assert b.g2_frobenius_sq(pt) == b.g2_frobenius(psi)
            kernel = b.g2_add(b.g2_frobenius_sq(pt), naive_g2_ladder(pt, b.P))
            assert kernel == naive_g2_ladder(psi, b.GLS_LAMBDA + 1)

    @pytest.mark.parametrize("n", [1, 2, 5, 21])
    @pytest.mark.parametrize("group", ["g1", "g2"])
    def test_split_multi_exp_matches_the_exact_ladder(self, group, n):
        """n-term MSMs whose scalars run through every edge scalar, with
        every base a cached table, every base a point, and the two mixed,
        against the affine double-and-add ladder."""
        gen, multi_exp, table, add, ladder = {
            "g1": (b.G1_GEN, b.g1_multi_exp, b.g1_table, b.g1_add, naive_g1_mul),
            "g2": (b.G2_GEN, b.g2_multi_exp, b.g2_table, b.g2_add, naive_g2_mul),
        }[group]
        draw = random.Random(n)
        pts = [ladder(gen, draw.randrange(1, b.ORDER)) for _ in range(n)]
        tables = [table(pt) for pt in pts]
        assert all(t.images is not None for t in tables)
        scalars = split_edge_scalars()
        for start in range(0, len(scalars), n):
            ks = [scalars[(start + i) % len(scalars)] for i in range(n)]
            want = None
            for pt, k in zip(pts, ks):
                want = add(want, ladder(pt, k))
            assert multi_exp(list(zip(tables, ks))) == want
            assert multi_exp(list(zip(pts, ks))) == want
            mixed = [(t if i % 2 else pt, k) for i, (pt, t, k) in enumerate(zip(pts, tables, ks))]
            assert multi_exp(mixed) == want


class TestPairing:
    def test_non_degenerate(self):
        assert b.pairing(b.G1_GEN, b.G2_GEN) != b.FQ12_ONE

    def test_bilinearity(self):
        base = b.pairing(b.G1_GEN, b.G2_GEN)
        for _ in range(3):
            x, y = rng.randrange(b.ORDER), rng.randrange(b.ORDER)
            lhs = b.pairing(b.g1_mul(b.G1_GEN, x), b.g2_mul(b.G2_GEN, y))
            assert lhs == b.gt_pow(base, x * y % b.ORDER)

    def test_output_has_order_r(self):
        out = b.pairing(b.g1_mul(b.G1_GEN, 42), b.G2_GEN)
        assert b.gt_pow(out, b.ORDER) == b.FQ12_ONE

    def test_identity_inputs(self):
        assert b.pairing(None, b.G2_GEN) == b.FQ12_ONE
        assert b.pairing(b.G1_GEN, None) == b.FQ12_ONE
        assert b.miller_loop_product([]) == b.FQ12_ONE

    def test_product_form_matches_separate_pairings(self):
        pairs = [
            (b.g1_mul(b.G1_GEN, rng.randrange(1, 1000)),
             b.g2_mul(b.G2_GEN, rng.randrange(1, 1000)))
            for _ in range(3)
        ]
        fused = b.final_exponentiation(b.miller_loop_product(lined(pairs)))
        sep = b.FQ12_ONE
        for p, q in pairs:
            sep = b.fq12_mul(sep, b.pairing(p, q))
        assert fused == sep

    @pytest.mark.parametrize("n", [1, 2, 6, 8])
    def test_miller_loop_matches_naive(self, n):
        pairs = [(b.g1_mul(b.G1_GEN, rng.randrange(1, b.ORDER)),
                  b.g2_mul(b.G2_GEN, rng.randrange(1, b.ORDER))) for _ in range(n)]
        fast = b.final_exponentiation(b.miller_loop_product(lined(pairs)))
        assert fast == b.final_exponentiation(flat(naive_miller_loop_product(pairs)))

    def test_miller_loop_identity_pairs_match_naive(self):
        """A pair with an identity side pairs to one, as the naive loop,
        which skips it, says; the loop itself takes no such pair."""
        q = b.g2_mul(b.G2_GEN, 77)
        pairs = [(None, q), (b.G1_GEN, None), (b.G1_GEN, q), (None, None)]
        want = b.final_exponentiation(flat(naive_miller_loop_product(pairs)))
        assert want == b.pairing(b.G1_GEN, q)
        assert [b.pairing(p, q) for p, q in pairs] == [b.FQ12_ONE] * 2 + [want, b.FQ12_ONE]

    def test_miller_loop_inverse_pair_cancels(self):
        p = b.g1_mul(b.G1_GEN, 31337)
        q = b.g2_mul(b.G2_GEN, 4242)
        pairs = [(p, q), (p, b.g2_neg(q))]
        assert b.final_exponentiation(b.miller_loop_product(lined(pairs))) == b.FQ12_ONE
        assert b.final_exponentiation(flat(naive_miller_loop_product(pairs))) == b.FQ12_ONE

    def test_vertical_line_is_left_out(self):
        """At R = -Q the line is vertical and lies in Fp6, which the final
        exponentiation sends to 1; the step gives no line for it."""
        p, q = b.g1_mul(b.G1_GEN, 5), b.g2_mul(b.G2_GEN, 9)
        line, total = naive_line(q, b.g2_neg(q), p)
        assert total is None and b.final_exponentiation(flat(line)) == b.FQ12_ONE
        rs = [q]
        assert b._step_lines(rs, [b.g2_neg(q)]) == [None]
        assert rs == [None]

    def test_ate_naf_rebuilds_the_loop(self):
        """ATE_NAF, most significant digit first, sums back to 6u + 2 and is
        a non-adjacent form: digits in {-1, 0, 1}, no two adjacent ones
        nonzero; 66 digits, 22 of them nonzero."""
        digits = b.ATE_NAF
        assert sum(d << i for i, d in enumerate(reversed(digits))) == b.ATE_LOOP
        assert set(digits) <= {-1, 0, 1} and digits[0] == 1
        assert not any(x and y for x, y in zip(digits, digits[1:]))
        assert (len(digits), sum(d != 0 for d in digits)) == (66, 22)

    def test_g2_lines_hold_one_line_per_step(self):
        steps = (len(b.ATE_NAF) - 1) + (sum(d != 0 for d in b.ATE_NAF) - 1) + 2
        lines, again = b.g2_lines([b.g2_mul(b.G2_GEN, 99), b.g2_mul(b.G2_GEN, 5)])
        assert type(lines) is list and len(lines) == steps == 88
        assert all(len(line) == 4 for line in lines)
        assert again == b.g2_lines([b.g2_mul(b.G2_GEN, 5)])[0]  # built together or alone
        assert b.g2_lines([]) == []

    @pytest.mark.parametrize("n", [1, 2, 6, 8])
    def test_lines_match_the_generic_loop_and_naive(self, n):
        """Through the final exponentiation, every mix of lines built for all
        the points together and lines built for one point alone gives the
        naive loop's product: for n <= 2 every subset of pairs on the
        together-built lines, for n = 6 and 8 one subset of each size, its
        members drawn at random."""
        draw = random.Random(n)
        pairs = [(b.g1_mul(b.G1_GEN, draw.randrange(1, b.ORDER)),
                  b.g2_mul(b.G2_GEN, draw.randrange(1, b.ORDER))) for _ in range(n)]
        together = b.g2_lines([q for _, q in pairs])
        alone = [b.g2_lines([q])[0] for _, q in pairs]
        want = b.final_exponentiation(flat(naive_miller_loop_product(pairs)))
        if n <= 2:
            mixes = [{i for i in range(n) if mask >> i & 1} for mask in range(1 << n)]
        else:
            mixes = [set(draw.sample(range(n), size)) for size in range(n + 1)]
        for fixed in mixes:
            mixed = [(p, (together if i in fixed else alone)[i]) for i, (p, _) in enumerate(pairs)]
            assert b.final_exponentiation(b.miller_loop_product(mixed)) == want, fixed

    def test_lines_on_the_denominator_and_beside_their_point(self):
        """A pair on lines with a negated G1 side, as the denominator of a
        pairing product is passed, and one point in one product both on
        its lines and on lines built for it again."""
        p, q = b.g1_mul(b.G1_GEN, 31337), b.g2_mul(b.G2_GEN, 4242)
        p2 = b.g1_mul(b.G1_GEN, 77)
        lines, = b.g2_lines([q])
        fe = b.final_exponentiation
        assert fe(b.miller_loop_product([(p, lines), (b.g1_neg(p), lines)])) == b.FQ12_ONE
        assert fe(b.miller_loop_product([(b.g1_neg(p), lines)])) == b.fq12_conj(b.pairing(p, q))
        both = fe(b.miller_loop_product([(p, lines), (p2, b.g2_lines([q])[0])]))
        assert both == b.pairing(b.g1_add(p, p2), q)
        assert both == fe(flat(naive_miller_loop_product([(p, q), (p2, q)])))

    def test_hard_part_chain_matches_digit_oracle(self):
        f = b.miller_loop_product(lined([(b.g1_mul(b.G1_GEN, 123), b.G2_GEN)]))
        t = b.fq12_mul(b.fq12_conj(f), b.fq12_inv(f))
        t = b.fq12_mul(b.fq12_frobenius(t, 2), t)
        assert b._hard_part_chain(t) == hard_part_digits(t)

    def test_gt_pow_matches_slow_ladder(self):
        """Against square-and-multiply on the nested tower, for a pairing
        output, the unit and an easy-part image (cyclotomic, order not r)."""
        bases = [b.pairing(b.G1_GEN, b.G2_GEN), b.FQ12_ONE, easy_part(flat(random_fq12()))]
        # ORDER - 1 and -3 have negative wNAF digits, which take the conjugation inverse
        for g in bases:
            for e in (0, 1, 2, rng.randrange(b.ORDER), b.ORDER - 1, -3):
                assert b.gt_pow(g, e) == flat(oracle_fq12_pow(fq12_from(g), e % b.ORDER))

    def test_gt_has_order_r_matches_the_unreduced_power(self):
        """x^p == x^(6u^2) against x^r == 1 by a plain ladder on the nested
        tower: pairing values and the unit are in G_T; an easy-part image,
        tau = (easy-part image)^r, and tau times a pairing value are
        cyclotomic and outside it; a random Fp12 element and zero are not
        cyclotomic."""
        pairing = b.pairing(b.g1_mul(b.G1_GEN, rng.randrange(1, b.ORDER)), b.G2_GEN)
        tau = cyclotomic_outside_gt(7)
        values = {"pairing": pairing, "generator": b.pairing(b.G1_GEN, b.G2_GEN),
                  "one": b.FQ12_ONE, "easy part": easy_part(flat(random_fq12())), "tau": tau,
                  "tau * pairing": b.fq12_mul(tau, pairing), "random": flat(random_fq12())}
        got = {name: b.gt_has_order_r(x) for name, x in values.items()}
        assert got == {name: flat(oracle_fq12_pow(fq12_from(x), b.ORDER)) == b.FQ12_ONE
                       for name, x in values.items()}
        assert [name for name, ok in got.items() if ok] == ["pairing", "generator", "one"]
        assert not b.gt_has_order_r((0,) * 12)

    def test_gt_has_order_r_relation_is_exact_on_the_cyclotomic_subgroup(self):
        """On the cyclotomic subgroup, of order p^4 - p^2 + 1, the relation
        x^(u+1) * (x^u)^p * (x^u)^(p^2) == (x^(2u))^(p^3) is x^e == 1 for e =
        (u+1) + u*p + u*p^2 - 2u*p^3. It picks out order r exactly because
        the gcd of e and that order is r."""
        u, p = b.T_PARAM, b.P
        e = (u + 1) + u * p + u * p ** 2 - 2 * u * p ** 3
        assert math.gcd(e, p ** 4 - p ** 2 + 1) == b.ORDER

    def test_gt_multi_exp_matches_slow_ladders(self):
        """Several terms on one chain, with a zero, a negative and a repeated
        base, against the product of square-and-multiply powers; no terms
        give one."""
        g, e = b.pairing(b.G1_GEN, b.G2_GEN), easy_part(flat(random_fq12()))
        pairs = [(g, rng.randrange(b.ORDER)), (e, rng.randrange(1 << 128)), (g, 0), (e, -5),
                 (g, b.ORDER - 1)]
        want = ORACLE_FQ12_ONE
        for x, k in pairs:
            want = oracle_fq12_mul(want, oracle_fq12_pow(fq12_from(x), k % b.ORDER))
        assert b.gt_multi_exp(pairs) == flat(want)
        assert b.gt_multi_exp([]) == b.gt_multi_exp([(g, 0)]) == b.FQ12_ONE

    @pytest.mark.parametrize("ks", [(1, 1), (b.ORDER - 1, 1), (1, b.ORDER - 1), "random"],
                             ids=["gens", "neg-g1", "neg-g2", "random"])
    def test_pairing_matches_tuple_oracle(self, ks):
        """The whole pairing, Miller loop and final exponentiation, against
        the nested tower's loop and square-and-multiply final exponentiation."""
        if ks == "random":
            ks = (rng.randrange(1, b.ORDER), rng.randrange(1, b.ORDER))
        p, q = b.g1_mul(b.G1_GEN, ks[0]), b.g2_mul(b.G2_GEN, ks[1])
        want = oracle_final_exponentiation(naive_miller_loop_product([(p, q)]))
        assert b.pairing(p, q) == flat(want)

    def test_gt_inv_is_conjugate(self):
        g = b.pairing(b.G1_GEN, b.G2_GEN)
        assert b.fq12_mul(g, b.fq12_conj(g)) == b.FQ12_ONE


TOWER_OPS = ("fq12_mul", "fq12_sqr", "fq12_cyc_sqr", "_mul_line", "fq_batch_inv", "fq2_inv")
# fixed 254-bit exponents, below ORDER so none is reduced
E1 = 0x2ab0531c14b044d79acd8acde5f6db1d76b6745180b65386569c803601a5ba50
E2 = 0x256bd75461076dc3ba6ace6c0a78250fb339a4769ddcc6f8efb6fbfe8de4ab47
E3 = 0x2563c310283b73a66c2ea417b99de255f386825473b7a490f23b2cc4b4174a67


def count_calls(names, fn, *args):
    """Calls of each of bn254's functions ``names`` made by fn(*args)."""
    counts = dict.fromkeys(names, 0)

    def counted(name, op):
        def wrapper(*a):
            counts[name] += 1
            return op(*a)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in names:
            mp.setattr(b, name, counted(name, getattr(b, name)))
        fn(*args)
    return counts


def count_msm(group, fn, *args):
    """(doublings, mixed additions, pairs per round of the batched affine
    law, fq_batch_inv calls) that fn(*args) makes in G1 or G2."""
    double, madd, law = {"g1": ("_jac1_double", "_jac1_madd", "_g1_add_pairs"),
                         "g2": ("_jac2_double", "_jac2_madd", "_g2_add_pairs")}[group]
    rounds, op = [], getattr(b, law)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(b, law, lambda rs, qs: rounds.append(len(rs)) or op(rs, qs))
        got = count_calls((double, madd, "fq_batch_inv"), fn, *args)
    return got[double], got[madd], rounds, got["fq_batch_inv"]


class TestArithmeticCost:
    """Exact operation counts of the pairing and exponentiation layers:
    they change only when the arithmetic does, and a change that saves work
    updates them to show by how much."""

    def test_two_pair_pairing(self):
        """The NAF of the ate loop 6u + 2 has 66 digits, 22 of them nonzero:
        65 doubling steps, each after one fq12_sqr, 21 addition steps and 2
        Frobenius steps, 88 steps in all, where the 65 binary digits (37
        ones) took 64 + 36 + 2 = 102. Building the two points' lines makes
        one fq_batch_inv per step for both, and the loop one more for the
        pairs' yP, which normalizes every line: 88 + 1. Each step makes one
        _mul_line per pair, so _mul_line = pairs x 88 lines. The final
        exponentiation makes the fq12_mul and fq12_cyc_sqr calls, and its
        one fq12_inv the fq2_inv, which is one more fq_batch_inv: 88 + 1 + 1."""
        pairs = [(b.g1_mul(b.G1_GEN, E1), b.G2_GEN), (b.G1_GEN, b.g2_mul(b.G2_GEN, E2))]
        got = count_calls(TOWER_OPS, lambda: b.final_exponentiation(
            b.miller_loop_product(lined(pairs))))
        assert got == {"fq12_mul": 63, "fq12_sqr": 65, "fq12_cyc_sqr": 193, "_mul_line": 176,
                       "fq_batch_inv": 90, "fq2_inv": 1}

    def test_two_fixed_pairs(self):
        """The same two pairs on their precomputed lines, built outside the
        count: the 88 _mul_line calls per pair stay, no slope is inverted,
        and the fq_batch_inv calls left are the pairs' yP and the final
        exponentiation's fq2_inv: 0 + 1 + 1."""
        pairs = lined([(b.g1_mul(b.G1_GEN, E1), b.G2_GEN), (b.G1_GEN, b.g2_mul(b.G2_GEN, E2))])
        got = count_calls(TOWER_OPS, lambda: b.final_exponentiation(b.miller_loop_product(pairs)))
        assert got == {"fq12_mul": 63, "fq12_sqr": 65, "fq12_cyc_sqr": 193, "_mul_line": 176,
                       "fq_batch_inv": 2, "fq2_inv": 1}

    def test_six_lined_pairs(self):
        """A verify's shape: six pairs, every one on lines that an earlier
        product built. The loop walks no line-building step, so its one
        fq_batch_inv is the six yP, and the final exponentiation's fq2_inv
        makes one more; 65 fq12_sqr as for any pair count, and 6 x 88 = 528
        _mul_line."""
        g1s = [b.g1_mul(b.G1_GEN, k) for k in (E1, E2, E3, 5, 7, 11)]
        g2s = b.g2_lines([b.g2_mul(b.G2_GEN, k) for k in (E3, E2, E1, 13, 17, 19)])
        got = count_calls(TOWER_OPS + ("_step_lines",), lambda: b.final_exponentiation(
            b.miller_loop_product(list(zip(g1s, g2s)))))
        assert got == {"fq12_mul": 63, "fq12_sqr": 65, "fq12_cyc_sqr": 193, "_mul_line": 528,
                       "fq_batch_inv": 2, "fq2_inv": 1, "_step_lines": 0}

    def test_gt_pow(self):
        """E1's 4-NAF has 49 nonzero digits, the top one at position 252.
        The table takes one fq12_cyc_sqr and 3 fq12_mul; the chain takes an
        fq12_cyc_sqr per position below the top and an fq12_mul per digit
        after the first: 1 + 252 and 3 + 48."""
        g = b.pairing(b.G1_GEN, b.G2_GEN)
        assert count_calls(TOWER_OPS, b.gt_pow, g, E1) == {
            "fq12_mul": 51, "fq12_sqr": 0, "fq12_cyc_sqr": 253, "_mul_line": 0,
            "fq_batch_inv": 0, "fq2_inv": 0}

    @pytest.mark.parametrize("group, n, want", [
        pytest.param(g, n, want, id=f"{g}-{n}") for g, n, want in (
            ("g1", 3, (134, 119, [48], 3)), ("g1", 20, (186, 208, [484, 240, 121, 55], 6)),
            ("g2", 3, (261, 133, [28, 4], 4)), ("g2", 20, (314, 331, [443, 224, 95], 5)))
    ])
    def test_multi_exp_group_law(self, group, n, want):
        """Doublings, mixed additions, the pairs of each round of position
        sums and batch inversions of an n-term MSM with fixed exponents.
        Each term's affine table takes 3 doublings and 4 mixed additions (x
        lifted, then 3x, 5x and 7x), and one batch inversion normalises
        every table. The chain takes a doubling per 4-NAF position below the
        top one. The digits' entries are summed per position first: a round
        adds the pairs (e0, e1), (e2, e3), ... of every position with one
        batch inversion, and runs while it holds at least 16 pairs in G1
        and 4 in G2. Then each entry left takes a mixed addition, and one
        batch inversion converts the result. The bases G, 2G, ..., nG share
        multiples (3G lies in the tables of G and 3G), so a few pairs meet
        their own negation and sum to the identity, which leaves no entry.

        G2 points stay unsplit. E1, E2 and E3 have 154 nonzero digits, the
        top at 252: 9 + 252 doublings. Rounds of 28 pairs (one identity)
        and 4 leave 154 - 32 - 1 = 121 entries, so 12 + 121 mixed additions
        and 1 + 2 + 1 inversions. The 20 drawn scalars have 1017, the top
        at 254: 60 + 254 doublings. Rounds of 443, 224 (4 identities) and
        95 pairs leave 1017 - 762 - 4 = 251 entries, and a fourth round
        would hold 3 pairs: 80 + 251 and 1 + 3 + 1.

        In G1 every scalar runs as two GLV halves of at most 127 bits, on
        the table and its phi images, which take no group operation. The 6
        halves of E1, E2 and E3 have 156 digits, the top at 125: 9 + 125
        doublings. A round of 48 pairs (one identity) leaves 107 entries,
        and a second would hold 14 pairs: 12 + 107 and 1 + 1 + 1. The 40
        halves of the drawn scalars have 1029, the top at 126: 60 + 126.
        Rounds of 484 (one identity), 240, 121 and 55 pairs leave 128, and
        a fifth would hold 1: 80 + 128 and 1 + 4 + 1. Added one by one into
        the chain, the entries took (134, 168, 2), (186, 1109, 2), (261,
        166, 2) and (314, 1097, 2)."""
        gen, multi_exp, mul = {"g1": (b.G1_GEN, b.g1_multi_exp, b.g1_mul),
                               "g2": (b.G2_GEN, b.g2_multi_exp, b.g2_mul)}[group]
        pts = [mul(gen, i + 1) for i in range(n)]
        draw = random.Random(n).randrange
        ks = [E1, E2, E3] if n == 3 else [draw(b.ORDER) for _ in range(n)]
        assert count_msm(group, multi_exp, list(zip(pts, ks))) == want

    @pytest.mark.parametrize("group", ["g1", "g2"])
    def test_multi_exp_with_cached_tables(self, group):
        """The 20-term MSM of ``test_multi_exp_group_law`` with every base a
        cached width-7 table: no table is built, so the doublings, mixed
        additions and batch inversion of the width-4 tables go. Every term
        runs on a chain of 7-NAF digits, summed per position first.

        In G1 it runs as two GLV halves on the table and its phi images:
        the 40 halves have 646 nonzero digits, the top at 125, so 125
        doublings. Rounds of 288, 147 and 76 pairs leave 646 - 511 = 135
        entries, and a fourth round would hold 11 pairs (below 16): 135
        mixed additions and 3 + 1 inversions. In G2 it runs as four GLS
        parts of at most 64 bits, on the table, its psi images and -psi^2
        of both, which take no group operation: the 80 parts have 659
        digits at all 63 positions, the top at 62, so 62 doublings. Rounds
        of 315, 161, 73, 40 and 6 pairs leave 659 - 595 = 64 entries, one
        position two, and a sixth round would hold 1 pair (below 4): 64
        mixed additions and 5 + 1 inversions. Added one by one, the entries
        took (125, 646, 1) and (62, 659, 1); the two GLS halves, k mod
        6u^2 and k div 6u^2, took 127 doublings and 656 mixed additions,
        and the unsplit 7-NAF of the 20 scalars 254 and 643 in both groups.

        Building one table, outside the count, takes the same work in both
        groups: x lifted to Jacobian form (1 mixed addition), then each odd
        multiple (2j+1)x for j = 1, ..., 31 as [2](jx) + x (a doubling and a
        mixed addition), and 1 batch inversion for all of them: 31, 32 and
        1, and no position sums. The images, phi or psi of each multiple,
        take no group operation. A G2 table's point is checked before the
        build (``g2_in_subgroup``), not in it; the check psi(x) == [6u^2]x
        made there, the unsplit 7-NAF of 6u^2, cost 158, 49 and 2."""
        gen, multi_exp, mul, table = {
            "g1": (b.G1_GEN, b.g1_multi_exp, b.g1_mul, b.g1_table),
            "g2": (b.G2_GEN, b.g2_multi_exp, b.g2_mul, b.g2_table)}[group]
        tables = [table(mul(gen, i + 1)) for i in range(20)]
        draw = random.Random(20).randrange
        ks = [draw(b.ORDER) for _ in range(20)]
        assert count_msm(group, multi_exp, list(zip(tables, ks))) == {
            "g1": (125, 135, [288, 147, 76], 4), "g2": (62, 64, [315, 161, 73, 40, 6], 6)}[group]
        assert count_msm(group, table, gen) == (31, 32, [], 1)

    @pytest.mark.parametrize("n, want", [(1, (62, 27, [6], 2)), (2, (62, 38, [21, 8], 3))])
    def test_short_g2_multi_exp_with_cached_tables(self, n, want):
        """The shapes a short verify runs: one and two G2 terms on cached
        tables, E1 and then E2. Their four GLS parts each, within 64 bits,
        have 33 and 67 nonzero 7-NAF digits, the top at 62: 62 doublings.
        One term's parts put two digits at 6 positions, so a round of 6
        pairs leaves 27 entries; two terms' parts put up to 4 at one
        position, and rounds of 21 and 8 pairs leave 38. Each round holds
        at least 4 pairs, so each pays for its inversion: 27 and 38 mixed
        additions, and 1 + 1 and 2 + 1 inversions. Added one by one, the
        entries took (62, 33, 1) and (62, 67, 1); the two GLS halves took
        125 doublings for the same 33 and 67 mixed additions."""
        tables = [b.g2_table(b.g2_mul(b.G2_GEN, i + 1)) for i in range(n)]
        assert count_msm("g2", b.g2_multi_exp, list(zip(tables, [E1, E2][:n]))) == want
