"""Self-contained BN254 (alt_bn128) arithmetic: Fp towers, both source groups,
and the optimal ate pairing with a shared-Miller-loop product form.

Field elements are plain tuples of ints and module-level functions, not
classes; the interpreter overhead of an object layer is what kills pure
Python pairings. Only `groups` should import this module directly.

Exponentiation in G1, G2 and G_T is one interleaved w-NAF routine,
:func:`_interleaved_wnaf`, in which each term has its own window width; a
single exponentiation is its one-term case. In G1 and G2 the tables of odd
multiples are affine, batch-normalised with one inversion. The entries
that fall at one position of the shared chain are summed first, in rounds
of the batched affine law, one inversion per round for every position's
pairs (:func:`_position_sums`); the accumulator is Jacobian, so each
position's sum joins it by a mixed addition. A term's table is either
built in the call, at width 4, or a cached width-7 :class:`Table` that the
caller built once for a base it reuses (:func:`g1_table`,
:func:`g2_table`). Each group has one affine law, :func:`_g1_add_pairs`
and :func:`_g2_add_pairs` (G2's on flat Fp2 integer components, not
through ``fq2_mul``): :func:`g1_add` and :func:`g2_add` are one pair of
their group's law, the position sums call both, and the Miller loop's
:func:`_step_lines` takes each line's slope from G2's. Every Fp inversion
is a call of :func:`fq_batch_inv` (Montgomery's simultaneous inversion,
Math. Comp. 1987), so its call count is the module's count of inversions.

Terms are split by an endomorphism E that acts as a scalar lambda, so the
shared doubling chain is shorter. In G1, E is phi(x, y) = (beta*x, y) (GLV;
Gallant, Lambert and Vanstone, CRYPTO 2001), E(Fp) has prime order, and
every term k*x runs as k0*x + k1*phi(x) with halves of at most 127 bits. In
G2, E is psi, the twist Frobenius (GLS; Galbraith, Lin and Scott, EUROCRYPT
2009), with lambda = 6u^2 = p - r, and a term runs as k0*x + k1*psi(x) +
k2*psi^2(x) + k3*psi^3(x) with parts of at most 64 bits (Galbraith and
Scott, Pairing 2008), on a chain of about 64 doublings. psi acts as [6u^2]
only on G2, so a G2 term is split only when its base is a cached table,
and :func:`g2_table` takes only points of G2: the caller checks that
first, by :func:`g2_in_subgroup`. Per-call G2 points stay unsplit, so their
results are exact on twist points outside G2 too.

The pairing's tower arithmetic works on integer components the same way:
the Fp6 and Fp12 products, the sparse line multiply, the cyclotomic
squaring and the line builder's G2 side keep products unreduced and reduce
each output coefficient once (lazy reduction; Aranha, Karabina, Longa,
Gebotys and Lopez, EUROCRYPT 2011). An Fp12 value, and so every G_T
element, is one flat tuple of twelve ints in the order of its encoding.
The Miller loop walks the non-adjacent form of 6u + 2 in 88 steps, and
takes each G2 point as its lines only: :func:`g2_lines` builds them for
several points in one walk, and the caller keeps them for the next product.
Each line is multiplied in divided by its pair's yP, so its constant term
is 1 and :func:`_mul_line` takes no Fp factor; one inversion per product
serves every yP, and the final exponentiation removes the factor.

Membership of the order-r subgroups is tested exactly by
:func:`g2_in_subgroup` and :func:`gt_has_order_r`, each on one 63-bit power
by u and Frobenius maps. Nothing here runs them on its own inputs: the
caller decides where membership is needed.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple

# Curve parameters (the Ethereum alt_bn128 instantiation).
P = 21888242871839275222246405745257275088696311157297823662689037894645226208583
ORDER = 21888242871839275222246405745257275088548364400416034343698204186575808495617
B = 3
T_PARAM = 4965661367192848881
ATE_LOOP = 6 * T_PARAM + 2
# psi = g2_frobenius acts as [GLS_LAMBDA] on G2, since p = 6u^2 (mod r).
GLS_LAMBDA = 6 * T_PARAM ** 2  # = P - ORDER, 127 bits
# phi(x, y) = (GLV_BETA * x, y) acts as [GLV_LAMBDA] on G1; both are cube
# roots of unity, GLV_BETA mod P and GLV_LAMBDA mod ORDER.
GLV_LAMBDA = 36 * T_PARAM ** 3 + 18 * T_PARAM ** 2 + 6 * T_PARAM + 1
GLV_BETA = 18 * T_PARAM ** 3 + 18 * T_PARAM ** 2 + 9 * T_PARAM + 1

G1_GEN = (1, 2)

G2_GEN = (
    (10857046999023057135944570762232829481370756359578518086990519993285655852781,
     11559732032986387107991004021392285783925812861821192530917403151452391805634),
    (8495653923123431417604973247489272438418190587263600148770280649306958101930,
     4082367875863433681332203403145435568316851327593401208105741076214120093531),
)

# ---------------------------------------------------------------------------
# Fp2 = Fp[u] / (u^2 + 1), elements (a, b) = a + b*u.

FQ2_ZERO = (0, 0)
FQ2_ONE = (1, 0)
XI = (9, 1)  # v^3 = XI in the Fp6 tower


def fq2_add(x, y):
    return ((x[0] + y[0]) % P, (x[1] + y[1]) % P)


def fq2_sub(x, y):
    return ((x[0] - y[0]) % P, (x[1] - y[1]) % P)


def fq2_neg(x):
    return (-x[0] % P, -x[1] % P)


def fq2_conj(x):
    return (x[0], -x[1] % P)


def fq2_mul(x, y):
    a, b = x
    c, d = y
    ac = a * c
    bd = b * d
    return ((ac - bd) % P, ((a + b) * (c + d) - ac - bd) % P)


def fq2_sqr(x):
    a, b = x
    return ((a + b) * (a - b) % P, 2 * a * b % P)


def fq2_scale(x, k):
    return (x[0] * k % P, x[1] * k % P)


def fq_batch_inv(xs):
    """[pow(x, -1, P) for x in xs] with one inversion: Montgomery's trick
    (running products, one inverse, then back down). It is the module's
    one Fp inversion: every other inverse is taken through it."""
    prefix = []
    acc = 1
    for x in xs:
        prefix.append(acc)
        acc = acc * x % P
    inv = pow(acc, -1, P)
    out = [None] * len(xs)
    for i in range(len(xs) - 1, -1, -1):
        out[i] = inv * prefix[i] % P
        inv = inv * xs[i] % P
    return out


def fq2_batch_inv(xs):
    """The inverses of xs with one inversion in Fp: 1/x = conj(x) / N(x)
    with the norm N(a + bu) = a^2 + b^2, the norms inverted together by
    :func:`fq_batch_inv`."""
    invs = fq_batch_inv([(a * a + b * b) % P for a, b in xs])
    return [(a * n % P, -b * n % P) for (a, b), n in zip(xs, invs)]


def fq2_inv(x):
    """1/x: one element of :func:`fq2_batch_inv`."""
    return fq2_batch_inv([x])[0]


def fq2_pow(x, e):
    result = FQ2_ONE
    for bit in bin(e)[2:]:
        result = fq2_sqr(result)
        if bit == "1":
            result = fq2_mul(result, x)
    return result


def fq2_mul_xi(x):
    # (a + bu)(9 + u)
    a, b = x
    return ((9 * a - b) % P, (a + 9 * b) % P)


# ---------------------------------------------------------------------------
# Fp6 = Fp2[v] / (v^3 - XI): an element (a0 + a1*u) + (a2 + a3*u)*v +
# (a4 + a5*u)*v^2 appears only as its six ints a0..a5, in that order.


def _fq6_mul_unreduced(a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5):
    """The Fp6 product of a0..a5 and b0..b5, as six unreduced ints in the
    same order: Karatsuba over Fp2 (six Fp2 products), with u^2 = -1 and
    v^3 = 9 + u written out. The inputs may be unreduced sums, so callers
    reduce each output once."""
    t0r, t0i = a0 * b0 - a1 * b1, a0 * b1 + a1 * b0  # a_0 b_0
    t1r, t1i = a2 * b2 - a3 * b3, a2 * b3 + a3 * b2  # a_1 b_1
    t2r, t2i = a4 * b4 - a5 * b5, a4 * b5 + a5 * b4  # a_2 b_2
    x, y, z, w = a2 + a4, a3 + a5, b2 + b4, b3 + b5
    sr, si = x * z - y * w - t1r - t2r, x * w + y * z - t1i - t2i  # a_1 b_2 + a_2 b_1
    x, y, z, w = a0 + a2, a1 + a3, b0 + b2, b1 + b3
    ur, ui = x * z - y * w - t0r - t1r, x * w + y * z - t0i - t1i  # a_0 b_1 + a_1 b_0
    x, y, z, w = a0 + a4, a1 + a5, b0 + b4, b1 + b5
    return (t0r + 9 * sr - si, t0i + sr + 9 * si,
            ur + 9 * t2r - t2i, ui + t2r + 9 * t2i,
            x * z - y * w - t0r - t2r + t1r, x * w + y * z - t0i - t2i + t1i)


def fq6_inv(a0, a1, a2, a3, a4, a5):
    """The inverse of a0..a5 as six ints: adjugate over Fp2, one fq2_inv."""
    x, y, z = (a0, a1), (a2, a3), (a4, a5)
    c0 = fq2_sub(fq2_sqr(x), fq2_mul_xi(fq2_mul(y, z)))
    c1 = fq2_sub(fq2_mul_xi(fq2_sqr(z)), fq2_mul(x, y))
    c2 = fq2_sub(fq2_sqr(y), fq2_mul(x, z))
    norm = fq2_add(fq2_mul(x, c0), fq2_mul_xi(fq2_add(fq2_mul(z, c1), fq2_mul(y, c2))))
    inv = fq2_inv(norm)
    return (*fq2_mul(c0, inv), *fq2_mul(c1, inv), *fq2_mul(c2, inv))


# ---------------------------------------------------------------------------
# Fp12 = Fp6[w] / (w^2 - v): an element c0 + c1*w is one flat tuple of
# twelve ints, c0's six then c1's, the order of the 384-byte encoding.

FQ12_ONE = (1,) + (0,) * 11


def fq12_mul(x, y):
    """Karatsuba over Fp6: three unreduced Fp6 products, w^2 = v written
    out, one reduction per output coefficient."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = x
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11 = y
    t0, t1, t2, t3, t4, t5 = _fq6_mul_unreduced(a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5)
    s0, s1, s2, s3, s4, s5 = _fq6_mul_unreduced(a6, a7, a8, a9, a10, a11,
                                                b6, b7, b8, b9, b10, b11)
    u0, u1, u2, u3, u4, u5 = _fq6_mul_unreduced(
        a0 + a6, a1 + a7, a2 + a8, a3 + a9, a4 + a10, a5 + a11,
        b0 + b6, b1 + b7, b2 + b8, b3 + b9, b4 + b10, b5 + b11)
    # c0 = t + v*s, c1 = u - t - s
    return ((t0 + 9 * s4 - s5) % P, (t1 + s4 + 9 * s5) % P,
            (t2 + s0) % P, (t3 + s1) % P, (t4 + s2) % P, (t5 + s3) % P,
            (u0 - t0 - s0) % P, (u1 - t1 - s1) % P, (u2 - t2 - s2) % P,
            (u3 - t3 - s3) % P, (u4 - t4 - s4) % P, (u5 - t5 - s5) % P)


def fq12_sqr(x):
    """(a + b*w)^2 = ((a + b)(a + v*b) - t - v*t) + 2t*w with t = a*b: two
    unreduced Fp6 products, one reduction per output coefficient."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = x
    t0, t1, t2, t3, t4, t5 = _fq6_mul_unreduced(a0, a1, a2, a3, a4, a5,
                                                a6, a7, a8, a9, a10, a11)
    u0, u1, u2, u3, u4, u5 = _fq6_mul_unreduced(
        a0 + a6, a1 + a7, a2 + a8, a3 + a9, a4 + a10, a5 + a11,
        a0 + 9 * a10 - a11, a1 + a10 + 9 * a11, a2 + a6, a3 + a7, a4 + a8, a5 + a9)
    return ((u0 - t0 - 9 * t4 + t5) % P, (u1 - t1 - t4 - 9 * t5) % P,
            (u2 - t2 - t0) % P, (u3 - t3 - t1) % P, (u4 - t4 - t2) % P, (u5 - t5 - t3) % P,
            2 * t0 % P, 2 * t1 % P, 2 * t2 % P, 2 * t3 % P, 2 * t4 % P, 2 * t5 % P)


def fq12_conj(x):
    return (*x[:6], -x[6] % P, -x[7] % P, -x[8] % P, -x[9] % P, -x[10] % P, -x[11] % P)


def fq12_inv(x):
    """1/(a + b*w) = (a - b*w) / (a^2 - v*b^2), the Fp6 norm inverted by
    :func:`fq6_inv`."""
    a, b = x[:6], x[6:]
    s0, s1, s2, s3, s4, s5 = _fq6_mul_unreduced(*a, *a)
    t0, t1, t2, t3, t4, t5 = _fq6_mul_unreduced(*b, *b)
    n = fq6_inv((s0 - 9 * t4 + t5) % P, (s1 - t4 - 9 * t5) % P,
                (s2 - t0) % P, (s3 - t1) % P, (s4 - t2) % P, (s5 - t3) % P)
    return (tuple(c % P for c in _fq6_mul_unreduced(*a, *n))
            + tuple(-c % P for c in _fq6_mul_unreduced(*b, *n)))


# Frobenius: write x = sum b_i w^i with b_i in Fp2; then x^(p^k) maps
# b_i -> conj^k(b_i) * XI^(i (p^k - 1) / 6). The flat tuple holds the
# w-coefficients in the order b0, b2, b4, b1, b3, b5, and so do the tables.
_FROB_COEFF = {
    k: [fq2_pow(XI, i * (P ** k - 1) // 6) for i in (0, 2, 4, 1, 3, 5)] for k in (1, 2, 3)
}


def fq12_frobenius(x, k):
    s = -1 if k % 2 else 1  # odd k: conj(b_i), its negated half reduced by fq2_mul
    out = ()
    for i, coeff in enumerate(_FROB_COEFF[k]):
        out += fq2_mul((x[2 * i], s * x[2 * i + 1]), coeff)
    return out


def fq12_is_cyclotomic(x):
    """x is nonzero and x^(p^4) * x == x^(p^2), so x^(p^4 - p^2 + 1) = 1:
    x lies in the cyclotomic subgroup, which holds G_T and is where
    :func:`fq12_cyc_sqr` is valid. x^(p^4) is two p^2 Frobenius maps."""
    x2 = fq12_frobenius(x, 2)
    return any(x) and fq12_mul(fq12_frobenius(x2, 2), x) == x2


# ---------------------------------------------------------------------------
# G1: y^2 = x^3 + 3 over Fp, affine tuples (x, y) with None as infinity.


def g1_neg(pt):
    if pt is None:
        return None
    return (pt[0], -pt[1] % P)


def _g1_add_pairs(rs, addends):
    """The curve's affine law on many pairs at once, one :func:`fq_batch_inv`
    for every slope: R_i becomes R_i + addend_i, for affine points none the
    identity, or None where R_i = -addend_i. Equal points take the tangent
    3x^2/2y (y is never 0: E(Fp) has odd order)."""
    slopes = []  # (n, d) of the slope n/d, or None where the sum is O
    for (x1, y1), (x2, y2) in zip(rs, addends):
        if x1 != x2:
            slopes.append((y2 - y1, x2 - x1))
        elif y1 == y2:
            slopes.append((3 * x1 * x1, 2 * y1))
        else:
            slopes.append(None)
    dens = [s[1] for s in slopes if s is not None]
    invs = iter(fq_batch_inv(dens) if dens else ())
    for i, ((x1, y1), q, s) in enumerate(zip(rs, addends, slopes)):
        if s is None:
            rs[i] = None
            continue
        lam = s[0] * next(invs) % P
        x3 = (lam * lam - x1 - q[0]) % P
        rs[i] = (x3, (lam * (x1 - x3) - y1) % P)


def g1_add(p1, p2):
    """p1 + p2 on E(Fp): one pair of :func:`_g1_add_pairs`."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    rs = [p1]
    _g1_add_pairs(rs, [p2])
    return rs[0]


# Jacobian coordinates (X, Y, Z) = (X/Z^2, Y/Z^3), None as infinity, for
# inversion-free scalar multiplication. A doubling never gives infinity: that
# needs Y = 0, a point of order two, and E(Fp) and the twist have odd order.

def _jac1_double(pt):
    X, Y, Z = pt
    Bv = Y * Y % P
    D = 4 * X * Bv % P  # 2((X + B)^2 - X^2 - B^2)
    E = 3 * X * X % P
    nX = (E * E - 2 * D) % P
    nY = (E * (D - nX) - 8 * Bv * Bv) % P
    return (nX, nY, 2 * Y * Z % P)


def _jac1_madd(pt, q):
    """pt + q for Jacobian pt (None for the identity) and affine q:
    madd-2007-bl, 7M + 4S against 11M + 5S for two Jacobian points."""
    x2, y2 = q
    if pt is None:
        return (x2, y2, 1)
    X1, Y1, Z1 = pt
    Z1Z1 = Z1 * Z1 % P
    H = (x2 * Z1Z1 - X1) % P
    rr = 2 * (y2 * Z1 * Z1Z1 - Y1) % P
    if H == 0:
        return _jac1_double(pt) if rr == 0 else None
    HH = H * H % P
    J = 4 * H * HH % P
    V = 4 * X1 * HH % P
    nX = (rr * rr - J - 2 * V) % P
    nY = (rr * (V - nX) - 2 * Y1 * J) % P
    return (nX, nY, 2 * Z1 * H % P)


def _jac1_to_affine(pts):
    """The affine forms of Jacobian points, none the identity, with one
    inversion in all."""
    out = []
    for (X, Y, _), zi in zip(pts, fq_batch_inv([pt[2] for pt in pts])):
        zi2 = zi * zi % P
        out.append((X * zi2 % P, Y * zi2 * zi % P))
    return out


# Short vectors (a, b), 64 and 127 bits, with a + b*GLV_LAMBDA = 0 (mod ORDER) and determinant
# +ORDER, in the closed form of every BN curve (Gallant, Lambert and Vanstone, CRYPTO 2001).
GLV_BASIS = ((2 * T_PARAM + 1, -(6 * T_PARAM ** 2 + 2 * T_PARAM)),
             (6 * T_PARAM ** 2 + 4 * T_PARAM + 1, 2 * T_PARAM + 1))


def _glv_split(k):
    """(k0, k1) with k = k0 + k1*GLV_LAMBDA (mod ORDER), each of at most 127
    bits in absolute value, either possibly negative: (k, 0) less a close
    point of the lattice of GLV_BASIS, found by Babai's rounding."""
    (a1, b1), (a2, b2) = GLV_BASIS
    c1 = (b2 * k + (ORDER >> 1)) // ORDER
    c2 = (-b1 * k + (ORDER >> 1)) // ORDER
    return k - c1 * a1 - c2 * a2, -c1 * b1 - c2 * b2


def _glv_endo(pt):
    """phi(x, y) = (GLV_BETA * x, y), which is [GLV_LAMBDA] on G1."""
    return (GLV_BETA * pt[0] % P, pt[1])


def _glv_terms(table, images, k):
    """The two GLV terms of k*x, on x's table and its phi images."""
    k0, k1 = _glv_split(k)
    return (table, k0), (images, k1)


def g1_multi_exp(pairs):
    """prod pt_i^{k_i} with one shared doubling chain; pt_i is an affine
    point (4-NAF) or its cached :func:`g1_table` (7-NAF). Every term is
    split by phi."""
    return _jacobian_multi_exp(pairs, _jac1_double, _jac1_madd, g1_neg, _jac1_to_affine,
                               _glv_terms, _glv_endo, _g1_sums)


def g1_table(pt):
    """The cached width-7 :class:`Table` of a G1 point, not the identity,
    with phi of each multiple as its images."""
    multiples = tuple(_odd_multiples([pt], TABLE_WIDTH, _jac1_double, _jac1_madd,
                                     _jac1_to_affine)[0])
    return Table(multiples, tuple(map(_glv_endo, multiples)))


def g1_mul(pt, k):
    return g1_multi_exp([(pt, k)])


# ---------------------------------------------------------------------------
# G2 on the D-type twist y^2 = x^3 + 3/XI over Fp2, affine (x, y) tuples.

B2 = fq2_mul((3, 0), fq2_inv(XI))


def g2_is_on_curve(pt):
    if pt is None:
        return True
    x, y = pt
    return fq2_sub(fq2_sqr(y), fq2_add(fq2_mul(fq2_sqr(x), x), B2)) == FQ2_ZERO


def g2_neg(pt):
    if pt is None:
        return None
    return (pt[0], fq2_neg(pt[1]))


def _g2_add_pairs(rs, addends):
    """The twist's affine law on many pairs at once: R_i becomes R_i +
    addend_i, for affine points none the identity, and the slope (l0, l1)
    of each pair, lam = l0 + l1*u, is returned, None where vertical.
    ``addends`` may be ``rs`` itself: then each R_i doubles.

    Every slope n/d is taken as n*conj(d)/N(d), with all the norms N(d) =
    d0^2 + d1^2 inverted in one :func:`fq_batch_inv`, on the integer
    components. A pair with equal x has the tangent slope 3x^2/2y when the
    points are equal (y is never 0: the twist has odd order), and none when
    R_i = -addend_i: then R_i becomes None, the identity."""
    slopes = []  # (n0, n1, d0, d1) of the slope n/d, or None for a vertical line
    for r, q in zip(rs, addends):
        (xr0, xr1), (yr0, yr1) = r
        (xq0, xq1), (yq0, yq1) = q
        if xr0 != xq0 or xr1 != xq1:
            slopes.append((yq0 - yr0, yq1 - yr1, xq0 - xr0, xq1 - xr1))
        elif yr0 == yq0 and yr1 == yq1:  # 3x^2 / 2y
            slopes.append((3 * (xr0 + xr1) * (xr0 - xr1) % P, 6 * xr0 * xr1 % P,
                           2 * yr0, 2 * yr1))
        else:
            slopes.append(None)
    norms = [(s[2] * s[2] + s[3] * s[3]) % P for s in slopes if s is not None]
    invs = iter(fq_batch_inv(norms) if norms else ())
    lams = [None] * len(slopes)
    for i, (r, q, s) in enumerate(zip(rs, addends, slopes)):
        if s is None:
            rs[i] = None
            continue
        n0, n1, d0, d1 = s
        k = next(invs)
        l0 = (n0 * d0 + n1 * d1) % P * k % P
        l1 = (n1 * d0 - n0 * d1) % P * k % P
        (xr0, xr1), (yr0, yr1) = r
        x0 = ((l0 + l1) * (l0 - l1) - xr0 - q[0][0]) % P
        x1 = (2 * l0 * l1 - xr1 - q[0][1]) % P
        t0, t1 = xr0 - x0, xr1 - x1
        rs[i] = ((x0, x1), ((l0 * t0 - l1 * t1 - yr0) % P, (l0 * t1 + l1 * t0 - yr1) % P))
        lams[i] = (l0, l1)
    return lams


def g2_add(p1, p2):
    """p1 + p2 on the twist: one pair of :func:`_g2_add_pairs`."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    rs = [p1]
    _g2_add_pairs(rs, [p2])
    return rs[0]


# Jacobian coordinates over Fp2, flat: (X0, X1, Y0, Y1, Z0, Z1) stands for
# X = X0 + X1*u and so on. The group law works on the integer components,
# with u^2 = -1 written out and one reduction per output coefficient, not
# through fq2_mul and a tuple per intermediate.

def _jac2_double(pt):
    X0, X1, Y0, Y1, Z0, Z1 = pt
    A0, A1 = (X0 + X1) * (X0 - X1) % P, 2 * X0 * X1 % P  # A = X^2
    B0, B1 = (Y0 + Y1) * (Y0 - Y1) % P, 2 * Y0 * Y1 % P  # B = Y^2
    C0, C1 = (B0 + B1) * (B0 - B1), 2 * B0 * B1  # C = B^2, unreduced
    D0 = 4 * (X0 * B0 - X1 * B1) % P  # D = 2((X + B)^2 - A - C) = 4XB
    D1 = 4 * (X0 * B1 + X1 * B0) % P
    E0, E1 = 3 * A0, 3 * A1
    nX0 = ((E0 + E1) * (E0 - E1) - 2 * D0) % P
    nX1 = (2 * E0 * E1 - 2 * D1) % P
    T0, T1 = D0 - nX0, D1 - nX1
    nY0 = (E0 * T0 - E1 * T1 - 8 * C0) % P
    nY1 = (E0 * T1 + E1 * T0 - 8 * C1) % P
    nZ0 = 2 * (Y0 * Z0 - Y1 * Z1) % P
    nZ1 = 2 * (Y0 * Z1 + Y1 * Z0) % P
    return (nX0, nX1, nY0, nY1, nZ0, nZ1)


def _jac2_madd(pt, q):
    """pt + q for flat Jacobian pt (None for the identity) and affine q:
    madd-2007-bl, as :func:`_jac1_madd` over Fp2."""
    (x0, x1), (y0, y1) = q
    if pt is None:
        return (x0, x1, y0, y1, 1, 0)
    X0, X1, Y0, Y1, Z0, Z1 = pt
    ZZ0, ZZ1 = (Z0 + Z1) * (Z0 - Z1) % P, 2 * Z0 * Z1 % P  # Z^2
    ZZZ0, ZZZ1 = (Z0 * ZZ0 - Z1 * ZZ1) % P, (Z0 * ZZ1 + Z1 * ZZ0) % P  # Z^3
    H0 = (x0 * ZZ0 - x1 * ZZ1 - X0) % P  # H = x*Z^2 - X
    H1 = (x0 * ZZ1 + x1 * ZZ0 - X1) % P
    r0 = 2 * (y0 * ZZZ0 - y1 * ZZZ1 - Y0) % P  # r = 2(y*Z^3 - Y)
    r1 = 2 * (y0 * ZZZ1 + y1 * ZZZ0 - Y1) % P
    if H0 == H1 == 0:
        return _jac2_double(pt) if r0 == r1 == 0 else None
    HH0, HH1 = (H0 + H1) * (H0 - H1) % P, 2 * H0 * H1 % P
    J0 = 4 * (H0 * HH0 - H1 * HH1) % P  # J = 4H^3
    J1 = 4 * (H0 * HH1 + H1 * HH0) % P
    V0 = 4 * (X0 * HH0 - X1 * HH1) % P  # V = 4X*H^2
    V1 = 4 * (X0 * HH1 + X1 * HH0) % P
    nX0 = ((r0 + r1) * (r0 - r1) - J0 - 2 * V0) % P
    nX1 = (2 * r0 * r1 - J1 - 2 * V1) % P
    T0, T1 = V0 - nX0, V1 - nX1
    nY0 = (r0 * T0 - r1 * T1 - 2 * (Y0 * J0 - Y1 * J1)) % P
    nY1 = (r0 * T1 + r1 * T0 - 2 * (Y0 * J1 + Y1 * J0)) % P
    nZ0 = 2 * (Z0 * H0 - Z1 * H1) % P
    nZ1 = 2 * (Z0 * H1 + Z1 * H0) % P
    return (nX0, nX1, nY0, nY1, nZ0, nZ1)


def _jac2_to_affine(pts):
    """The affine forms of flat Jacobian points, none the identity, with one
    inversion in all."""
    out = []
    for pt, zi in zip(pts, fq2_batch_inv([pt[4:] for pt in pts])):
        zi2 = fq2_sqr(zi)
        out.append((fq2_mul(pt[0:2], zi2), fq2_mul(pt[2:4], fq2_mul(zi2, zi))))
    return out


def _wnaf(k, width):
    """The nonzero digits of k's width-w non-adjacent form, as (position,
    digit) pairs from the least significant; every digit is odd and below
    2^(w-1) in absolute value, and w - 1 zeros follow each."""
    digits = []
    i = 0
    full = 1 << width
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        i += zeros
        d = k & (full - 1)
        if d >= full >> 1:
            d -= full
        digits.append((i, d))
        k -= d  # now a multiple of 2^w: the next w - 1 digits are zero
    return digits


def _interleaved_wnaf(terms, double, add, neg, sums=None):
    """prod x_i^{k_i} in one group: every term's w-NAF digits share one
    doubling chain (Moeller, "Algorithms for multi-exponentiation", SAC
    2001). Returns the accumulator, None for the identity.

    ``terms`` are (table, width, k) with k an integer and the table x's
    2^(w-2) odd multiples [x, x^3, ..., x^(2^(w-1) - 1)], so terms of
    different widths share the chain. A zero k adds nothing, and a negative
    one has the negated digits of -k. A negative digit takes the ``neg`` of
    its entry. ``double`` and ``add`` act on the accumulator, and ``add``
    takes a table entry as its second argument and None as the identity in
    its first. ``sums``, if given, takes the lists of the entries at each
    position, the least significant first, and may replace a list by one
    with the same sum and fewer entries (:func:`_position_sums`); each
    entry left is then one ``add``."""
    rows = [(table, _wnaf(k, width)) for table, width, k in terms if k]
    adds = [[] for _ in range(max((row[-1][0] + 1 for _, row in rows), default=0))]
    for table, row in rows:
        for i, d in row:
            adds[i].append(table[d >> 1] if d > 0 else neg(table[-d >> 1]))
    if sums is not None:
        sums(adds)
    acc = None
    for entries in reversed(adds):
        if acc is not None:
            acc = double(acc)
        for entry in entries:
            acc = add(acc, entry)
    return acc


def _position_sums(adds, add_pairs, min_pairs):
    """Sum the affine entries at each position in place, in rounds. A
    round pairs the entries of every position, (e0, e1), (e2, e3), ..., and
    adds all the pairs by ``add_pairs``, a batched affine law with one
    inversion for them all (Montgomery's simultaneous inversion, Math. Comp.
    1987). Each position keeps the sums that are not the identity, and an
    odd last entry. A round runs only while it holds at least ``min_pairs``
    pairs, and whatever is left is added entry by entry in the chain: this
    keeps Straus and Moeller's interleaving, with no buckets."""
    live = [i for i, entries in enumerate(adds) if len(entries) > 1]
    while live:
        rs, qs = [], []
        for i in live:
            rs += adds[i][:-1:2]
            qs += adds[i][1::2]
        if len(rs) < min_pairs:
            return
        add_pairs(rs, qs)
        sums = iter(rs)
        for i in live:
            entries = adds[i]
            kept = [pt for pt in islice(sums, len(entries) >> 1) if pt is not None]
            if len(entries) & 1:
                kept.append(entries[-1])
            adds[i] = kept
        live = [i for i in live if len(adds[i]) > 1]


# When a round pays: it costs one inversion and its bookkeeping, 17-21 us
# (pow(x, -1, P) alone 16-19 us), and each of its pairs saves one mixed
# addition less its share of the batched law, 13.5-14.0 us less 8.1-8.2 in
# G2 and 4.9 less 3.5-3.6 in G1: 5.4-5.8 and 1.3-1.4 us (CPU-time medians
# of two runs, Python 3.11 on an Intel Xeon). So a round runs from 4 pairs
# up in G2 (21 / 5.4 = 3.9) and from 16 up in G1 (21 / 1.4 = 15 to
# 21 / 1.3 = 16). A call whose first round falls short runs none and pays
# one pass over its positions.

def _g1_sums(adds):
    _position_sums(adds, _g1_add_pairs, 16)


def _g2_sums(adds):
    _position_sums(adds, _g2_add_pairs, 4)


TABLE_WIDTH = 7  # the width of a cached table: 32 odd multiples


class Table(NamedTuple):
    """The cached width-7 table of one G1 or G2 point x, which
    :func:`g1_multi_exp` and :func:`g2_multi_exp` take in place of x: its
    affine odd multiples [x, x^3, ..., x^63], and their images under the
    group's endomorphism (phi or psi), on which a term's second part runs.
    A G2 term's third and fourth parts read -psi^2 of the multiples and of
    the images, mapped per used digit, so no other set is kept."""

    multiples: tuple
    images: tuple


def _odd_multiples(bases, width, double, madd, to_affine):
    """Per affine base x (none the identity), its 2^(w-2) affine odd
    multiples [x, x^3, ..., x^(2^(w-1) - 1)]. In Jacobian form jx doubles
    to 2jx, and 2jx + x is the next odd multiple; one inversion converts
    all of them, for every base, together."""
    n = (1 << (width - 2)) - 1  # multiples per base beyond x itself
    jac = []
    for x in bases:
        mults = [None, madd(None, x)]  # mults[j] = jx
        for j in range(1, n + 1):
            twice = double(mults[j])
            mults += (twice, madd(twice, x))
        jac += mults[3::2]
    aff = to_affine(jac) if jac else []
    return [[x, *aff[n * i:n * (i + 1)]] for i, x in enumerate(bases)]


def _jacobian_multi_exp(pairs, double, madd, neg, to_affine, split, endo=None, sums=None):
    """:func:`_interleaved_wnaf` in G1 or G2, given the group's Jacobian
    doubling, mixed addition, affine negation and batch conversion to affine
    form. A term's base is an affine point or a cached :class:`Table`. A
    point gets a width-4 table here, [x, x^3, x^5, x^7], built with those of
    the other points and one inversion; a cached table is used at width 7.
    ``sums`` sums the entries at each position of the chain in affine
    rounds (:func:`_g1_sums`, :func:`_g2_sums`), or is None. The
    accumulator stays Jacobian, so each entry left is one mixed addition
    (Cohen, Miyaji and Ono, ASIACRYPT 1998), and one more inversion
    converts the result.

    A term whose table has images E(x) = [lambda]x runs as the parts
    ``split(table, images, k)``, pairs (table view, k_i) on views of the
    table and its images whose results sum to k*x. A cached table brings its
    images; a per-call point gets them from ``endo``, and stays unsplit
    where ``endo`` is None."""
    terms, points, ks = [], [], []

    def add_term(table, images, width, k):
        if images is None:
            terms.append((table, width, k))
        else:
            terms.extend((view, width, part) for view, part in split(table, images, k))

    for x, k in pairs:
        k %= ORDER
        if x is None or not k:
            continue
        if type(x) is Table:
            add_term(x.multiples, x.images, TABLE_WIDTH, k)
        else:
            points.append(x)
            ks.append(k)
    for table, k in zip(_odd_multiples(points, 4, double, madd, to_affine), ks):
        add_term(table, None if endo is None else list(map(endo, table)), 4, k)
    acc = _interleaved_wnaf(terms, double, madd, neg, sums)
    return None if acc is None else to_affine([acc])[0]


# Short vectors b with sum_i b_i GLS_LAMBDA^i = 0 (mod ORDER), of 63 and 64
# bits, and determinant -ORDER: LLL on (r,0,0,0), (-lambda,1,0,0),
# (-lambda^2,0,1,0), (-lambda^3,0,0,1), in closed form in u (Galbraith and
# Scott, "Exponentiation in pairing-friendly groups using homomorphisms",
# Pairing 2008). _GLS_ROUND is the first row of the basis's adjugate,
# negated, so (k, 0, 0, 0) = sum_j (k * _GLS_ROUND[j] / ORDER) GLS_BASIS[j].
GLS_BASIS = ((2 * T_PARAM + 1, 0, 2 * T_PARAM, 1),
             (2 * T_PARAM, T_PARAM + 1, -T_PARAM, T_PARAM),
             (T_PARAM + 1, T_PARAM, T_PARAM, -2 * T_PARAM),
             (2 * T_PARAM + 1, -T_PARAM, -T_PARAM - 1, -T_PARAM))
_GLS_ROUND = (2 * T_PARAM * (3 * T_PARAM ** 2 + 3 * T_PARAM + 1),
              T_PARAM * (6 * T_PARAM ** 2 - 1),
              2 * T_PARAM + 1,
              T_PARAM * (6 * T_PARAM ** 2 + 6 * T_PARAM + 1))


def _gls_split(k):
    """(k0, k1, k2, k3) with k = sum_i k_i GLS_LAMBDA^i (mod ORDER): (k, 0,
    0, 0) less the lattice point of GLS_BASIS that Babai's rounding finds.
    Each part is at most half the sum of its column of GLS_BASIS in absolute
    value, below 2^64, and may be negative."""
    c = [(k * a + (ORDER >> 1)) // ORDER for a in _GLS_ROUND]
    return tuple((k if i == 0 else 0) - sum(cj * v[i] for cj, v in zip(c, GLS_BASIS))
                 for i in range(4))


class _NegFrobeniusSq:
    """-psi^2 of a G2 table's entries, each mapped when a digit reads it:
    psi^2 costs two Fp products, so mapping per used digit beats keeping
    or building a third and fourth image set."""

    __slots__ = ("table",)

    def __init__(self, table):
        self.table = table

    def __getitem__(self, i):
        return _neg_frobenius_sq(self.table[i])


def _gls_terms(table, images, k):
    """The four GLS terms of k*x: k0 on x's table, k1 on its psi images, and
    -k2 and -k3 on -psi^2 of both. psi^3 = psi^2 o psi so needs no image
    set of its own, and as -psi^2(x, y) = (c*x, y), an entry costs two Fp
    products and no negation beyond that of a negative digit."""
    k0, k1, k2, k3 = _gls_split(k)
    return ((table, k0), (images, k1),
            (_NegFrobeniusSq(table), -k2), (_NegFrobeniusSq(images), -k3))


def g2_multi_exp(pairs):
    """prod pt_i^{k_i} with one shared doubling chain; pt_i is an affine
    point (4-NAF, unsplit) or its cached :func:`g2_table` (7-NAF, split four
    ways by psi where the table has images)."""
    return _jacobian_multi_exp(pairs, _jac2_double, _jac2_madd, g2_neg, _jac2_to_affine,
                               _gls_terms, sums=_g2_sums)


def g2_table(pt):
    """The cached width-7 :class:`Table` of a point pt of G2, not the
    identity, with psi of each multiple as its images. pt must lie in G2
    (:func:`g2_in_subgroup`), as :func:`gt_multi_exp`'s inputs must be
    cyclotomic: there psi^i(pt) = [GLS_LAMBDA^i]pt, so every split
    sum_i k_i*psi^i(pt) with sum_i k_i*GLS_LAMBDA^i = k (mod r) is k*pt
    exactly. On a twist point outside G2, psi is not [GLS_LAMBDA] and a
    split term is wrong."""
    multiples = tuple(_odd_multiples([pt], TABLE_WIDTH, _jac2_double, _jac2_madd,
                                     _jac2_to_affine)[0])
    return Table(multiples, tuple(map(g2_frobenius, multiples)))


def g2_mul(pt, k):
    return g2_multi_exp([(pt, k)])


def g2_in_subgroup(pt):
    """Whether pt lies in G2, the order-r subgroup of the twist (the
    identity included), exactly: pt is on the twist and [u+1]pt +
    psi([u]pt) + psi^2([u]pt) == psi^3([2u]pt) for u = T_PARAM (Dai, Lin,
    Zhao and Zhou, "Fast subgroup membership testings for G1, G2 and GT on
    pairing-friendly curves", ePrint 2022/348). On G2, psi is [p] and
    (u+1) + u*p + u*p^2 - 2u*p^3 = 0 (mod r); the paper shows that no
    other twist point passes. The twist has the cofactor 2p - r, so being
    on it is not enough. [u]pt is one unsplit 63-bit multiplication, as
    psi may not stand in for a multiple here; it calls
    :func:`_jacobian_multi_exp` directly, so traced :func:`g2_multi_exp`
    calls count exponentiations only."""
    if pt is None:
        return True
    if not g2_is_on_curve(pt):
        return False
    upt = _jacobian_multi_exp([(pt, T_PARAM)], _jac2_double, _jac2_madd, g2_neg,
                              _jac2_to_affine, None)
    if upt is None:  # then the left side is pt and the right side O
        return False
    lhs = g2_add(g2_add(g2_add(upt, pt), g2_frobenius(upt)), g2_frobenius_sq(upt))
    twice = g2_add(upt, upt)  # never O: the twist's order r(2p - r) is odd
    return lhs == g2_frobenius(g2_frobenius_sq(twice))


# Frobenius on twist coordinates: untwist, apply x -> x^p, re-twist.
_TWIST_FROB_X = fq2_pow(XI, (P - 1) // 3)
_TWIST_FROB_Y = fq2_pow(XI, (P - 1) // 2)
# For p^2 both factors lie in Fp: XI^((p^2 - 1)/2) = -1, so psi^2 is
# (x, y) -> (_FROB2_X * x, -y).
_FROB2_X = fq2_pow(XI, (P * P - 1) // 3)[0]


def g2_frobenius(pt):
    x, y = pt
    return (fq2_mul(fq2_conj(x), _TWIST_FROB_X), fq2_mul(fq2_conj(y), _TWIST_FROB_Y))


def _neg_frobenius_sq(pt):
    """-psi^2(x, y) = (_FROB2_X * x, y)."""
    (x0, x1), y = pt
    return ((_FROB2_X * x0 % P, _FROB2_X * x1 % P), y)


def g2_frobenius_sq(pt):
    return g2_neg(_neg_frobenius_sq(pt))


# ---------------------------------------------------------------------------
# Pairing. Lines are evaluated on the twist; through the untwist
# (x', y') -> (x' w^2, y' w^3) a line at R' evaluated at P in G1 becomes
#   yP - lam*xP*w + (lam*xR' - yR')*w^3
# i.e. a sparse Fp12 element with coefficients at w^0 (Fp), w^1, w^3 (Fp2).
# A line is kept as the four ints (l0, l1, c0, c1) of lam = l0 + l1*u and
# c = lam*xR' - yR', which do not depend on P. The Miller loop multiplies it
# in divided by yP, as 1 - (xP/yP)*lam*w + (c/yP)*w^3: yP is a nonzero Fp
# factor (E(Fp) has odd order, so no point of it has y = 0), and the easy
# part of the final exponentiation sends every nonzero Fp element to 1.


def _mul_line(f, b, c):
    """f * (1 + b*w + c*w^3), a normalized line: in the tower the line is
    1 + (b + c*v)*w, so for f = F + G*w the product is
    (F + v*G*(b + c*v)) + (F*(b + c*v) + G)*w. Both sparse Fp6 products are
    written out on the integer components, one reduction per output
    coefficient."""
    f0, f1, f2, f3, f4, f5, g0, g1, g2, g3, g4, g5 = f
    b0, b1 = b
    c0, c1 = c
    # F*(b + c*v) = (F_0 b + XI F_2 c) + (F_0 c + F_1 b) v + (F_1 c + F_2 b) v^2
    pr, pi = f4 * c0 - f5 * c1, f4 * c1 + f5 * c0
    e0r, e0i = f0 * b0 - f1 * b1 + 9 * pr - pi, f0 * b1 + f1 * b0 + pr + 9 * pi
    e1r = f0 * c0 - f1 * c1 + f2 * b0 - f3 * b1
    e1i = f0 * c1 + f1 * c0 + f2 * b1 + f3 * b0
    e2r = f2 * c0 - f3 * c1 + f4 * b0 - f5 * b1
    e2i = f2 * c1 + f3 * c0 + f4 * b1 + f5 * b0
    # G*(b + c*v), the same way
    pr, pi = g4 * c0 - g5 * c1, g4 * c1 + g5 * c0
    h0r, h0i = g0 * b0 - g1 * b1 + 9 * pr - pi, g0 * b1 + g1 * b0 + pr + 9 * pi
    h1r = g0 * c0 - g1 * c1 + g2 * b0 - g3 * b1
    h1i = g0 * c1 + g1 * c0 + g2 * b1 + g3 * b0
    h2r = g2 * c0 - g3 * c1 + g4 * b0 - g5 * b1
    h2i = g2 * c1 + g3 * c0 + g4 * b1 + g5 * b0
    return ((f0 + 9 * h2r - h2i) % P, (f1 + h2r + 9 * h2i) % P,
            (f2 + h0r) % P, (f3 + h0i) % P, (f4 + h1r) % P, (f5 + h1i) % P,
            (e0r + g0) % P, (e0i + g1) % P, (e1r + g2) % P, (e1i + g3) % P,
            (e2r + g4) % P, (e2i + g5) % P)


def _step_lines(rs, addends):
    """The line through each R_i and its addend, None where vertical; R_i
    becomes R_i + addend by :func:`_g2_add_pairs`, whose slope lam is the
    line's, so the line is (lam, lam*xR' - yR') at the old R_i. Where R_i =
    -addend the line is the vertical xP - xR'*w^2, which lies in Fp6; the
    easy part of the final exponentiation (the power p^6 - 1) sends every
    nonzero Fp6 element to 1, so that line is left out."""
    olds = list(rs)
    lines = _g2_add_pairs(rs, addends)
    for i, ((xr0, xr1), (yr0, yr1)) in enumerate(olds):
        if lines[i] is not None:
            l0, l1 = lines[i]
            lines[i] = (l0, l1, (l0 * xr0 - l1 * xr1 - yr0) % P,
                        (l0 * xr1 + l1 * xr0 - yr1) % P)
    return lines


# ATE_LOOP's non-adjacent form, most significant digit first: 66 digits, 22 nonzero.
ATE_NAF = tuple(dict(_wnaf(ATE_LOOP, 2)).get(i, 0) for i in range(ATE_LOOP.bit_length(), -1, -1))


def _steps(qs, rs):
    """Per Miller-loop step for the points qs with running points rs: whether
    f is squared first, and each R_i's addend. Each NAF digit after the first
    doubles R, then adds Q on a 1 and -Q on a -1, and R ends adding pi(Q) and
    -pi^2(Q): 65 + 21 + 2 = 88 steps, against 64 + 36 + 2 = 102 on the bits
    (Vercauteren, "Optimal pairings", IEEE Trans. IT 2010)."""
    negs = [g2_neg(q) for q in qs]
    for digit in ATE_NAF[1:]:
        yield True, rs
        if digit:
            yield False, qs if digit > 0 else negs
    yield False, [g2_frobenius(q) for q in qs]
    yield False, [_neg_frobenius_sq(q) for q in qs]


_SQUARES = tuple(square for square, _ in _steps([], []))  # whether each step squares f first


def g2_lines(pts):
    """The lines of the Miller loop's 88 steps for each G2 point of pts, none
    the identity: one list of 88 per point, None at a vertical line. All the
    points are walked together, one fq_batch_inv per step for all. A pair
    on lines costs one :func:`_mul_line` per step and no slope (Costello and
    Stebila, "Fixed argument pairings", LATINCRYPT 2010): ``groups`` builds
    them on a G2 element's first pairing, for all the unlined points of that
    product, and keeps them on the element."""
    rs = list(pts)
    steps = [_step_lines(rs, addends) for _, addends in _steps(pts, rs)]
    return [list(lines) for lines in zip(*steps)]


def miller_loop_product(pairs):
    """Product of Miller loops over [(g1_affine, lines), ...], where lines
    are the :func:`g2_lines` of a G2 point and neither side is the
    identity; no pairs give one, with no step walked. One fq_batch_inv
    inverts every pair's yP, and one walk of the steps multiplies each
    pair's line into f divided by yP, as the normalized line of
    :func:`_mul_line`. The caller applies final_exponentiation, which the
    normalization needs."""
    if not pairs:
        return FQ12_ONE
    scaled = [(-xp * k % P, k, lines)
              for ((xp, _), lines), k in zip(pairs, fq_batch_inv([p[1] for p, _ in pairs]))]
    f = FQ12_ONE
    for i, square in enumerate(_SQUARES):
        f = fq12_sqr(f) if square else f
        for x, k, lines in scaled:
            if lines[i] is not None:
                l0, l1, c0, c1 = lines[i]
                f = _mul_line(f, (x * l0 % P, x * l1 % P), (c0 * k % P, c1 * k % P))
    return f


def _hard_part_chain(m):
    """t^((p^4 - p^2 + 1)/r) via the standard BN addition chain in the
    curve parameter x (valid for x > 0, which holds here)."""
    fx = gt_multi_exp([(m, T_PARAM)])
    fx2 = gt_multi_exp([(fx, T_PARAM)])
    fx3 = gt_multi_exp([(fx2, T_PARAM)])
    y0 = fq12_mul(fq12_mul(fq12_frobenius(m, 1), fq12_frobenius(m, 2)),
                  fq12_frobenius(m, 3))
    y1 = fq12_conj(m)
    y2 = fq12_frobenius(fx2, 2)
    y3 = fq12_conj(fq12_frobenius(fx, 1))
    y4 = fq12_conj(fq12_mul(fx, fq12_frobenius(fx2, 1)))
    y5 = fq12_conj(fx2)
    y6 = fq12_conj(fq12_mul(fx3, fq12_frobenius(fx3, 1)))
    t0 = fq12_mul(fq12_mul(fq12_cyc_sqr(y6), y4), y5)
    t1 = fq12_mul(fq12_mul(y3, y5), t0)
    t0 = fq12_mul(t0, y2)
    t1 = fq12_cyc_sqr(fq12_mul(fq12_cyc_sqr(t1), t0))
    t0 = fq12_mul(t1, y1)
    t1 = fq12_mul(t1, y0)
    t0 = fq12_cyc_sqr(t0)
    return fq12_mul(t0, t1)


def final_exponentiation(f):
    # easy part: f^((p^6 - 1)(p^2 + 1))
    t = fq12_mul(fq12_conj(f), fq12_inv(f))
    t = fq12_mul(fq12_frobenius(t, 2), t)
    return _hard_part_chain(t)


def pairing(p, q):
    """Full optimal ate pairing e(P, Q) for P in G1, Q in G2 (twist coords),
    both affine; one if either is the identity. Q is lined here
    (:func:`g2_lines`) and its lines are not kept."""
    if p is None or q is None:
        return FQ12_ONE
    return final_exponentiation(miller_loop_product([(p, g2_lines([q])[0])]))


def fq12_cyc_sqr(x):
    """Granger-Scott squaring, valid only in the cyclotomic subgroup
    (which contains every pairing output and hence all of G_T). Over
    Fp4 = Fp2[s] / (s^2 - v) each pair (z0, z1), (z2, z3), (z4, z5) squares
    as (a + b*s)^2 = (a^2 + XI*b^2) + 2ab*s; the results combine as
    3t - 2z and 3t + 2z, one reduction per output coefficient."""
    z0r, z0i, z4r, z4i, z3r, z3i, z2r, z2i, z1r, z1i, z5r, z5i = x
    sr, si = (z1r + z1i) * (z1r - z1i), 2 * z1r * z1i  # z1^2
    t0r = (z0r + z0i) * (z0r - z0i) + 9 * sr - si  # z0^2 + XI z1^2
    t0i = 2 * z0r * z0i + sr + 9 * si
    t1r, t1i = 2 * (z0r * z1r - z0i * z1i), 2 * (z0r * z1i + z0i * z1r)  # 2 z0 z1
    sr, si = (z3r + z3i) * (z3r - z3i), 2 * z3r * z3i
    t2r = (z2r + z2i) * (z2r - z2i) + 9 * sr - si  # z2^2 + XI z3^2
    t2i = 2 * z2r * z2i + sr + 9 * si
    t3r, t3i = 2 * (z2r * z3r - z2i * z3i), 2 * (z2r * z3i + z2i * z3r)  # 2 z2 z3
    sr, si = (z5r + z5i) * (z5r - z5i), 2 * z5r * z5i
    t4r = (z4r + z4i) * (z4r - z4i) + 9 * sr - si  # z4^2 + XI z5^2
    t4i = 2 * z4r * z4i + sr + 9 * si
    t5r, t5i = 2 * (z4r * z5r - z4i * z5i), 2 * (z4r * z5i + z4i * z5r)  # 2 z4 z5
    t5r, t5i = 9 * t5r - t5i, t5r + 9 * t5i  # XI * 2 z4 z5
    return ((3 * t0r - 2 * z0r) % P, (3 * t0i - 2 * z0i) % P,
            (3 * t2r - 2 * z4r) % P, (3 * t2i - 2 * z4i) % P,
            (3 * t4r - 2 * z3r) % P, (3 * t4i - 2 * z3i) % P,
            (3 * t5r + 2 * z2r) % P, (3 * t5i + 2 * z2i) % P,
            (3 * t1r + 2 * z1r) % P, (3 * t1i + 2 * z1i) % P,
            (3 * t3r + 2 * z5r) % P, (3 * t3i + 2 * z5i) % P)


def gt_multi_exp(pairs):
    """prod x_i^(k_i mod ORDER) for cyclotomic x_i, one shared chain: the
    interleaved 4-NAF with cyclotomic squarings and the free conjugation
    inverse; each table [x, x^3, x^5, x^7] takes one cyclotomic squaring.
    The product of no terms, or of zero powers only, is one."""
    terms = []
    for x, k in pairs:
        k %= ORDER
        if k:
            twice = fq12_cyc_sqr(x)
            table = [x]
            for _ in range(3):
                table.append(fq12_mul(table[-1], twice))
            terms.append((table, 4, k))
    acc = _interleaved_wnaf(terms, fq12_cyc_sqr,
                            lambda acc, y: y if acc is None else fq12_mul(acc, y), fq12_conj)
    return FQ12_ONE if acc is None else acc


def gt_pow(x, e):
    """Exponentiation in G_T (order-r subgroup): the one-term
    :func:`gt_multi_exp`. The final exponentiation and
    :func:`gt_has_order_r` call :func:`gt_multi_exp` directly, so traced
    ``gt_pow`` calls count G_T work only."""
    return gt_multi_exp([(x, e)])


def gt_has_order_r(x):
    """Whether x lies in G_T, the order-r subgroup of Fp12*, exactly: x is
    cyclotomic and x^(u+1) * (x^u)^p * (x^u)^(p^2) == (x^(2u))^(p^3), as in
    :func:`g2_in_subgroup`. On the cyclotomic subgroup that is x^e == 1 for
    e = (u+1) + u*p + u*p^2 - 2u*p^3, and gcd(e, p^4 - p^2 + 1) = r. x^u is
    one 63-bit power, valid only there, so the cyclotomic test comes first."""
    if not fq12_is_cyclotomic(x):
        return False
    xu = gt_multi_exp([(x, T_PARAM)])
    lhs = fq12_mul(fq12_mul(fq12_mul(xu, x), fq12_frobenius(xu, 1)), fq12_frobenius(xu, 2))
    return lhs == fq12_frobenius(fq12_cyc_sqr(xu), 3)
