"""Self-contained BN254 (alt_bn128) arithmetic: Fp towers, both source groups,
and the optimal ate pairing with a shared-Miller-loop product form.

Field elements are plain tuples of ints and module-level functions, not
classes; the interpreter overhead of an object layer is what kills pure
Python pairings. Only `groups` should import this module directly.
"""

from __future__ import annotations

# Curve parameters (the Ethereum alt_bn128 instantiation).
P = 21888242871839275222246405745257275088696311157297823662689037894645226208583
ORDER = 21888242871839275222246405745257275088548364400416034343698204186575808495617
B = 3
T_PARAM = 4965661367192848881
ATE_LOOP = 6 * T_PARAM + 2

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


def fq2_inv(x):
    a, b = x
    norm = pow(a * a + b * b, -1, P)
    return (a * norm % P, -b * norm % P)


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
# Fp6 = Fp2[v] / (v^3 - XI), elements (c0, c1, c2).

FQ6_ZERO = (FQ2_ZERO, FQ2_ZERO, FQ2_ZERO)
FQ6_ONE = (FQ2_ONE, FQ2_ZERO, FQ2_ZERO)


def fq6_add(x, y):
    return (fq2_add(x[0], y[0]), fq2_add(x[1], y[1]), fq2_add(x[2], y[2]))


def fq6_sub(x, y):
    return (fq2_sub(x[0], y[0]), fq2_sub(x[1], y[1]), fq2_sub(x[2], y[2]))


def fq6_neg(x):
    return (fq2_neg(x[0]), fq2_neg(x[1]), fq2_neg(x[2]))


def fq6_mul(x, y):
    a0, a1, a2 = x
    b0, b1, b2 = y
    t0 = fq2_mul(a0, b0)
    t1 = fq2_mul(a1, b1)
    t2 = fq2_mul(a2, b2)
    c0 = fq2_add(t0, fq2_mul_xi(fq2_sub(fq2_mul(fq2_add(a1, a2), fq2_add(b1, b2)), fq2_add(t1, t2))))
    c1 = fq2_add(fq2_sub(fq2_mul(fq2_add(a0, a1), fq2_add(b0, b1)), fq2_add(t0, t1)), fq2_mul_xi(t2))
    c2 = fq2_add(fq2_sub(fq2_mul(fq2_add(a0, a2), fq2_add(b0, b2)), fq2_add(t0, t2)), t1)
    return (c0, c1, c2)


def fq6_sqr(x):
    return fq6_mul(x, x)


def fq6_mul_by_v(x):
    return (fq2_mul_xi(x[2]), x[0], x[1])


def fq6_inv(x):
    a0, a1, a2 = x
    c0 = fq2_sub(fq2_sqr(a0), fq2_mul_xi(fq2_mul(a1, a2)))
    c1 = fq2_sub(fq2_mul_xi(fq2_sqr(a2)), fq2_mul(a0, a1))
    c2 = fq2_sub(fq2_sqr(a1), fq2_mul(a0, a2))
    norm = fq2_add(fq2_mul(a0, c0), fq2_mul_xi(fq2_add(fq2_mul(a2, c1), fq2_mul(a1, c2))))
    inv = fq2_inv(norm)
    return (fq2_mul(c0, inv), fq2_mul(c1, inv), fq2_mul(c2, inv))


# ---------------------------------------------------------------------------
# Fp12 = Fp6[w] / (w^2 - v), elements (c0, c1).

FQ12_ONE = (FQ6_ONE, FQ6_ZERO)


def fq12_mul(x, y):
    a0, a1 = x
    b0, b1 = y
    t0 = fq6_mul(a0, b0)
    t1 = fq6_mul(a1, b1)
    c0 = fq6_add(t0, fq6_mul_by_v(t1))
    c1 = fq6_sub(fq6_sub(fq6_mul(fq6_add(a0, a1), fq6_add(b0, b1)), t0), t1)
    return (c0, c1)


def fq12_sqr(x):
    a0, a1 = x
    t = fq6_mul(a0, a1)
    c0 = fq6_sub(fq6_sub(fq6_mul(fq6_add(a0, a1), fq6_add(a0, fq6_mul_by_v(a1))), t), fq6_mul_by_v(t))
    c1 = fq6_add(t, t)
    return (c0, c1)


def fq12_conj(x):
    return (x[0], fq6_neg(x[1]))


def fq12_inv(x):
    a0, a1 = x
    norm = fq6_inv(fq6_sub(fq6_sqr(a0), fq6_mul_by_v(fq6_sqr(a1))))
    return (fq6_mul(a0, norm), fq6_neg(fq6_mul(a1, norm)))


# Frobenius: write x = sum b_i w^i with b_i in Fp2; then x^(p^k) maps
# b_i -> conj^k(b_i) * XI^(i (p^k - 1) / 6). The (c0, c1) tower packs the
# w-coefficients as c0 = (b0, b2, b4), c1 = (b1, b3, b5).
_FROB_COEFF = {
    k: [fq2_pow(XI, i * (P ** k - 1) // 6) for i in range(6)] for k in (1, 2, 3)
}


def fq12_frobenius(x, k):
    coeffs = _FROB_COEFF[k]
    (b0, b2, b4), (b1, b3, b5) = x
    bs = [b0, b1, b2, b3, b4, b5]
    if k % 2 == 1:
        bs = [fq2_conj(b) for b in bs]
    bs = [fq2_mul(b, coeffs[i]) for i, b in enumerate(bs)]
    return ((bs[0], bs[2], bs[4]), (bs[1], bs[3], bs[5]))


# ---------------------------------------------------------------------------
# G1: y^2 = x^3 + 3 over Fp, affine tuples (x, y) with None as infinity.


def g1_neg(pt):
    if pt is None:
        return None
    return (pt[0], -pt[1] % P)


def g1_add(p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if (y1 + y2) % P == 0:
            return None
        lam = 3 * x1 * x1 * pow(2 * y1, -1, P) % P
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, P) % P
    x3 = (lam * lam - x1 - x2) % P
    return (x3, (lam * (x1 - x3) - y1) % P)


# Jacobian coordinates (X, Y, Z) = (X/Z^2, Y/Z^3), None as infinity, for
# inversion-free scalar multiplication.

def _jac1_double(pt):
    X, Y, Z = pt
    A = X * X % P
    Bv = Y * Y % P
    C = Bv * Bv % P
    D = 2 * ((X + Bv) * (X + Bv) - A - C) % P
    E = 3 * A % P
    nX = (E * E - 2 * D) % P
    nY = (E * (D - nX) - 8 * C) % P
    nZ = 2 * Y * Z % P
    return None if nZ == 0 else (nX, nY, nZ)


def _jac1_add(p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    X1, Y1, Z1 = p1
    X2, Y2, Z2 = p2
    Z1Z1 = Z1 * Z1 % P
    Z2Z2 = Z2 * Z2 % P
    U1 = X1 * Z2Z2 % P
    U2 = X2 * Z1Z1 % P
    S1 = Y1 * Z2 * Z2Z2 % P
    S2 = Y2 * Z1 * Z1Z1 % P
    if U1 == U2:
        if S1 == S2:
            return _jac1_double(p1)
        return None
    H = U2 - U1
    I = 4 * H * H % P
    J = H * I % P
    rr = 2 * (S2 - S1)
    V = U1 * I % P
    nX = (rr * rr - J - 2 * V) % P
    nY = (rr * (V - nX) - 2 * S1 * J) % P
    nZ = 2 * Z1 * Z2 * H % P
    return (nX, nY, nZ)


def _jac1_neg(pt):
    return (pt[0], -pt[1] % P, pt[2])


def _jac1_to_affine(pt):
    if pt is None:
        return None
    X, Y, Z = pt
    zi = pow(Z, -1, P)
    zi2 = zi * zi % P
    return (X * zi2 % P, Y * zi2 * zi % P)


def g1_multi_exp(pairs):
    """prod pt_i^{k_i} with one shared doubling chain (interleaved 4-NAF)."""
    return _interleaved_wnaf(pairs, lambda pt: (*pt, 1), _jac1_double, _jac1_add, _jac1_neg,
                             _jac1_to_affine)


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


def g2_add(p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if fq2_add(y1, y2) == FQ2_ZERO:
            return None
        lam = fq2_mul(fq2_scale(fq2_sqr(x1), 3), fq2_inv(fq2_scale(y1, 2)))
    else:
        lam = fq2_mul(fq2_sub(y2, y1), fq2_inv(fq2_sub(x2, x1)))
    x3 = fq2_sub(fq2_sub(fq2_sqr(lam), x1), x2)
    return (x3, fq2_sub(fq2_mul(lam, fq2_sub(x1, x3)), y1))


# Jacobian coordinates over Fp2 for inversion-free scalar multiplication.

def _jac2_double(pt):
    X, Y, Z = pt
    A = fq2_sqr(X)
    Bv = fq2_sqr(Y)
    C = fq2_sqr(Bv)
    D = fq2_scale(fq2_sub(fq2_sub(fq2_sqr(fq2_add(X, Bv)), A), C), 2)
    E = fq2_scale(A, 3)
    F = fq2_sqr(E)
    nX = fq2_sub(F, fq2_scale(D, 2))
    nY = fq2_sub(fq2_mul(E, fq2_sub(D, nX)), fq2_scale(C, 8))
    nZ = fq2_scale(fq2_mul(Y, Z), 2)
    return None if nZ == FQ2_ZERO else (nX, nY, nZ)


def _jac2_add(p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    X1, Y1, Z1 = p1
    X2, Y2, Z2 = p2
    Z1Z1 = fq2_sqr(Z1)
    Z2Z2 = fq2_sqr(Z2)
    U1 = fq2_mul(X1, Z2Z2)
    U2 = fq2_mul(X2, Z1Z1)
    S1 = fq2_mul(fq2_mul(Y1, Z2), Z2Z2)
    S2 = fq2_mul(fq2_mul(Y2, Z1), Z1Z1)
    if U1 == U2:
        if S1 == S2:
            return _jac2_double(p1)
        return None
    H = fq2_sub(U2, U1)
    I = fq2_sqr(fq2_scale(H, 2))
    J = fq2_mul(H, I)
    rr = fq2_scale(fq2_sub(S2, S1), 2)
    V = fq2_mul(U1, I)
    nX = fq2_sub(fq2_sub(fq2_sqr(rr), J), fq2_scale(V, 2))
    nY = fq2_sub(fq2_mul(rr, fq2_sub(V, nX)), fq2_scale(fq2_mul(S1, J), 2))
    nZ = fq2_mul(fq2_sub(fq2_sub(fq2_sqr(fq2_add(Z1, Z2)), Z1Z1), Z2Z2), H)
    return (nX, nY, nZ)


def _jac2_neg(pt):
    return (pt[0], fq2_neg(pt[1]), pt[2])


def _jac2_to_affine(pt):
    if pt is None:
        return None
    X, Y, Z = pt
    zi = fq2_inv(Z)
    zi2 = fq2_sqr(zi)
    return (fq2_mul(X, zi2), fq2_mul(Y, fq2_mul(zi2, zi)))


def _wnaf(k, w=4):
    """Width-w non-adjacent form, least significant digit first."""
    digits = []
    while k:
        if k & 1:
            d = k & ((1 << w) - 1)
            if d >= 1 << (w - 1):
                d -= 1 << w
            k -= d
            digits.append(d)
        else:
            digits.append(0)
        k >>= 1
    return digits


def _interleaved_wnaf(pairs, lift, double, add, neg, finish):
    """prod x_i^{k_i} in one group, exponents mod ORDER: every term's 4-NAF
    digits share one doubling chain (Moeller, "Algorithms for
    multi-exponentiation", SAC 2001).

    The group is given by its working form: ``lift`` takes an element (never
    None) into it, ``double``, ``add`` and ``neg`` are its group law, and
    ``finish`` takes the result back, None standing for the identity."""
    tables, naf_rows = [], []
    for x, k in pairs:
        k %= ORDER
        if x is None or k == 0:
            continue
        base = lift(x)
        twice = double(base)
        table = [base]  # odd powers 1, 3, 5, 7 (wNAF digits up to +-7)
        for _ in range(3):
            table.append(add(table[-1], twice))
        tables.append(table)
        naf_rows.append(_wnaf(k))
    length = max(map(len, naf_rows), default=0)
    acc = None
    for i in range(length - 1, -1, -1):
        if acc is not None:
            acc = double(acc)
        for table, row in zip(tables, naf_rows):
            if i < len(row) and row[i]:
                d = row[i]
                entry = table[d >> 1] if d > 0 else neg(table[(-d) >> 1])
                acc = entry if acc is None else add(acc, entry)
    return finish(acc)


def g2_multi_exp(pairs):
    """prod pt_i^{k_i} with one shared doubling chain (interleaved 4-NAF)."""
    return _interleaved_wnaf(pairs, lambda pt: (*pt, FQ2_ONE), _jac2_double, _jac2_add,
                             _jac2_neg, _jac2_to_affine)


def g2_mul(pt, k):
    return g2_multi_exp([(pt, k)])


def g2_in_subgroup(pt):
    # The twist has a nontrivial cofactor, so on-curve does not imply order r.
    return g2_is_on_curve(pt) and g2_mul(pt, ORDER) is None


# Frobenius on twist coordinates: untwist, apply x -> x^p, re-twist.
_TWIST_FROB_X = fq2_pow(XI, (P - 1) // 3)
_TWIST_FROB_Y = fq2_pow(XI, (P - 1) // 2)
_TWIST_FROB2_X = fq2_pow(XI, (P * P - 1) // 3)
_TWIST_FROB2_Y = fq2_pow(XI, (P * P - 1) // 2)


def g2_frobenius(pt):
    x, y = pt
    return (fq2_mul(fq2_conj(x), _TWIST_FROB_X), fq2_mul(fq2_conj(y), _TWIST_FROB_Y))


def g2_frobenius_sq(pt):
    x, y = pt
    return (fq2_mul(x, _TWIST_FROB2_X), fq2_mul(y, _TWIST_FROB2_Y))


# ---------------------------------------------------------------------------
# Pairing. Lines are evaluated on the twist; through the untwist
# (x', y') -> (x' w^2, y' w^3) a line at R' evaluated at P in G1 becomes
#   yP - lam*xP*w + (lam*xR' - yR')*w^3
# i.e. a sparse Fp12 element with coefficients at w^0 (Fp), w^1, w^3 (Fp2).


def fq2_batch_inv(xs):
    """[fq2_inv(x) for x in xs] with one inversion in Fp: 1/x = conj(x) / N(x)
    with the norm N(a + bu) = a^2 + b^2, and the norms are inverted together
    by Montgomery's trick (running products, one inverse, then back down)."""
    norms = [(a * a + b * b) % P for a, b in xs]
    prefix = []
    acc = 1
    for n in norms:
        prefix.append(acc)
        acc = acc * n % P
    inv = pow(acc, -1, P)
    out = [None] * len(xs)
    for i in range(len(xs) - 1, -1, -1):
        a, b = xs[i]
        n_inv = inv * prefix[i] % P
        inv = inv * norms[i] % P
        out[i] = (a * n_inv % P, -b * n_inv % P)
    return out


def _fq6_mul_by_01(x, b0, b1):
    """x * (b0 + b1*v): the Fp6 product with a zero v^2 coefficient, 5 fq2_mul."""
    a0, a1, a2 = x
    t0 = fq2_mul(a0, b0)
    t1 = fq2_mul(a1, b1)
    c0 = fq2_add(t0, fq2_mul_xi(fq2_sub(fq2_mul(fq2_add(a1, a2), b1), t1)))
    c1 = fq2_sub(fq2_sub(fq2_mul(fq2_add(a0, a1), fq2_add(b0, b1)), t0), t1)
    c2 = fq2_add(fq2_sub(fq2_mul(fq2_add(a0, a2), b0), t0), t1)
    return (c0, c1, c2)


def _fq6_scale(x, k):
    return (fq2_scale(x[0], k), fq2_scale(x[1], k), fq2_scale(x[2], k))


def _mul_line(f, a, b, c):
    """f * (a + b*w + c*w^3) with a in Fp: in the tower the line is
    (a, 0, 0) + (b, c, 0)*w, so the product takes two sparse Fp6 products
    and Fp scalings instead of a dense fq12_mul."""
    f0, f1 = f
    return (fq6_add(_fq6_scale(f0, a), fq6_mul_by_v(_fq6_mul_by_01(f1, b, c))),
            fq6_add(_fq6_mul_by_01(f0, b, c), _fq6_scale(f1, a)))


def _miller_step(f, rs, addends, ps):
    """f times the line through each R_i and its addend at P_i; R_i becomes
    R_i + addend. ``addends`` may be ``rs`` itself: that is the doubling step.

    Every slope's denominator is inverted in one :func:`fq2_batch_inv`.
    Where R_i = -addend the line is the vertical xP - xR'*w^2, which lies in
    Fp6; the easy part of the final exponentiation (the power p^6 - 1) sends
    every nonzero Fp6 element to 1, so that line is left out, and R_i
    becomes None, the identity."""
    slopes = []  # (numerator, denominator), or None for a vertical line
    for r, q in zip(rs, addends):
        if r[0] != q[0]:
            slopes.append((fq2_sub(q[1], r[1]), fq2_sub(q[0], r[0])))
        elif r[1] == q[1]:
            slopes.append((fq2_scale(fq2_sqr(r[0]), 3), fq2_scale(r[1], 2)))
        else:
            slopes.append(None)
    invs = iter(fq2_batch_inv([s[1] for s in slopes if s is not None]))
    for i, (r, q, p, s) in enumerate(zip(rs, addends, ps, slopes)):
        if s is None:
            rs[i] = None
            continue
        lam = fq2_mul(s[0], next(invs))
        xr, yr = r
        x3 = fq2_sub(fq2_sub(fq2_sqr(lam), xr), q[0])
        rs[i] = (x3, fq2_sub(fq2_mul(lam, fq2_sub(xr, x3)), yr))
        f = _mul_line(f, p[1], fq2_scale(lam, -p[0] % P), fq2_sub(fq2_mul(lam, xr), yr))
    return f


_ATE_BITS = bin(ATE_LOOP)[2:]


def miller_loop_product(pairs):
    """Product of Miller loops over [(g1_affine, g2_affine), ...].

    Pairs with an identity on either side contribute the unit and are skipped.
    The caller applies final_exponentiation.
    """
    live = [(p, q) for p, q in pairs if p is not None and q is not None]
    if not live:
        return FQ12_ONE
    ps = [p for p, _ in live]
    qs = [q for _, q in live]
    rs = list(qs)
    f = FQ12_ONE
    for bit in _ATE_BITS[1:]:
        f = _miller_step(fq12_sqr(f), rs, rs, ps)
        if bit == "1":
            f = _miller_step(f, rs, qs, ps)
    f = _miller_step(f, rs, [g2_frobenius(q) for q in qs], ps)
    return _miller_step(f, rs, [g2_neg(g2_frobenius_sq(q)) for q in qs], ps)


def _hard_part_chain(m):
    """t^((p^4 - p^2 + 1)/r) via the standard BN addition chain in the
    curve parameter x (valid for x > 0, which holds here)."""
    fx = _cyc_pow(m, T_PARAM)
    fx2 = _cyc_pow(fx, T_PARAM)
    fx3 = _cyc_pow(fx2, T_PARAM)
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
    """Full optimal ate pairing e(P, Q) for P in G1, Q in G2 (twist coords)."""
    return final_exponentiation(miller_loop_product([(p, q)]))


def gt_mul(x, y):
    return fq12_mul(x, y)


def gt_inv(x):
    # valid for elements of the order-r subgroup (cyclotomic)
    return fq12_conj(x)


def _fq4_sqr(a, b):
    # (a + b*s)^2 with s^2 = v: returns (a^2 + XI*b^2, (a+b)^2 - a^2 - b^2)
    t0 = fq2_sqr(a)
    t1 = fq2_sqr(b)
    return (
        fq2_add(fq2_mul_xi(t1), t0),
        fq2_sub(fq2_sub(fq2_sqr(fq2_add(a, b)), t0), t1),
    )


def fq12_cyc_sqr(x):
    """Granger-Scott squaring, valid only in the cyclotomic subgroup
    (which contains every pairing output and hence all of G_T)."""
    (z0, z4, z3), (z2, z1, z5) = x
    t0, t1 = _fq4_sqr(z0, z1)
    z0 = fq2_add(fq2_scale(fq2_sub(t0, z0), 2), t0)
    z1 = fq2_add(fq2_scale(fq2_add(t1, z1), 2), t1)
    t0, t1 = _fq4_sqr(z2, z3)
    t2, t3 = _fq4_sqr(z4, z5)
    z4 = fq2_add(fq2_scale(fq2_sub(t0, z4), 2), t0)
    z5 = fq2_add(fq2_scale(fq2_add(t1, z5), 2), t1)
    t0 = fq2_mul_xi(t3)
    z2 = fq2_add(fq2_scale(fq2_add(t0, z2), 2), t0)
    z3 = fq2_add(fq2_scale(fq2_sub(t2, z3), 2), t2)
    return ((z0, z4, z3), (z2, z1, z5))


def gt_pow(x, e):
    """Exponentiation in G_T (order-r subgroup)."""
    return _cyc_pow(x, e)


def _cyc_pow(x, e):
    """x^(e mod ORDER) for cyclotomic x: the interleaved 4-NAF with
    cyclotomic squarings and the free conjugation inverse. The final
    exponentiation calls it directly with T_PARAM < ORDER, so traced
    ``gt_pow`` calls count G_T work only."""
    return _interleaved_wnaf([(x, e)], lambda y: y, fq12_cyc_sqr, fq12_mul, fq12_conj,
                             lambda acc: FQ12_ONE if acc is None else acc)
