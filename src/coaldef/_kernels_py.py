"""Pure-Python arithmetic kernels behind :class:`coaldef.exactlinalg.Matrix`.

Data layout:

* rational matrices travel as two flat row-major lists ``(num, den)``;
  every entry is normalized (lowest terms, positive denominator, zero
  stored as ``0/1``), which makes list equality semantic equality;
* prime-field matrices travel as one flat row-major list of ints in
  ``[0, p)``.

Matrix products and Kronecker products skip exact zeros, so the cost
tracks the number of nonzero entries rather than the dense size.
Rational products run fraction-free: each row of the left factor and
each column of the right one is brought to its common denominator, the
entries are integer dot products, and each is reduced once at the end.
"""

from math import gcd, lcm
from operator import floordiv, mul

# ---------------------------------------------------------------------------
# scalar helpers (rationals as int pairs, mirroring fractions.Fraction)


def _q_add(na, da, nb, db):
    g = gcd(da, db)
    if g == 1:
        return na * db + nb * da, da * db
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return t, s * db
    return t // g2, s * (db // g2)


def _q_mul(na, da, nb, db):
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return na * nb, da * db


# ---------------------------------------------------------------------------
# rational kernels


def q_add(an, ad, bn, bd):
    cn = []
    cd = []
    for i in range(len(an)):
        n, d = _q_add(an[i], ad[i], bn[i], bd[i])
        cn.append(n)
        cd.append(d)
    return cn, cd


def q_sub(an, ad, bn, bd):
    cn = []
    cd = []
    for i in range(len(an)):
        n, d = _q_add(an[i], ad[i], -bn[i], bd[i])
        cn.append(n)
        cd.append(d)
    return cn, cd


def q_neg(an, ad):
    return [-n for n in an], list(ad)


def q_scale(an, ad, sn, sd):
    if sn == 0:
        size = len(an)
        return [0] * size, [1] * size
    cn = []
    cd = []
    for i in range(len(an)):
        n, d = _q_mul(an[i], ad[i], sn, sd)
        cn.append(n)
        cd.append(d)
    return cn, cd


def q_matmul(an, ad, bn, bd, n, k, m):
    """Fraction-free product of an n x k and a k x m rational matrix.

    Row i of A is scaled by the lcm L_i of its denominators and column j
    of B by the lcm M_j of its own, so every term is an integer product
    and entry (i, j) is one integer dot product over L_i M_j, reduced
    once with one gcd.  Integer matrices skip the scaling and the
    reduction.
    """
    size = n * m
    a_int = ad.count(1) == len(ad)
    b_int = bd.count(1) == len(bd)
    if not b_int:
        cden = [lcm(*bd[j::m]) for j in range(m)]
        bn = list(map(mul, bn, map(floordiv, cden * k, bd)))
    if not a_int:
        rden = []
    cn = [0] * size
    scale = 1
    for i in range(n):
        ik = i * k
        im = i * m
        if not a_int:
            scale = lcm(*ad[ik:ik + k])
            rden.append(scale)
        for t in range(k):
            na = an[ik + t]
            if not na:
                continue
            if scale != 1:
                na *= scale // ad[ik + t]
            tm = t * m
            for j in range(m):
                nb = bn[tm + j]
                if nb:
                    cn[im + j] += na * nb
    if a_int:
        if b_int:
            return cn, [1] * size
        cd = cden * n
    elif b_int:
        cd = []
        for ri in rden:
            cd += [ri] * m
    else:
        cd = [ri * cj for ri in rden for cj in cden]
    for idx in range(size):
        x = cn[idx]
        if x:
            g = gcd(x, cd[idx])
            if g != 1:
                cn[idx] = x // g
                cd[idx] //= g
        else:
            cd[idx] = 1
    return cn, cd


def q_kron(an, ad, ar, ac, bn, bd, br, bc):
    outc = ac * bc
    size = ar * br * outc
    cn = [0] * size
    cd = [1] * size
    for i in range(ar):
        iac = i * ac
        for j in range(ac):
            na = an[iac + j]
            if not na:
                continue
            da = ad[iac + j]
            for s in range(br):
                base = (i * br + s) * outc + j * bc
                sbc = s * bc
                for t in range(bc):
                    nb = bn[sbc + t]
                    if not nb:
                        continue
                    pn, pd = _q_mul(na, da, nb, bd[sbc + t])
                    cn[base + t] = pn
                    cd[base + t] = pd
    return cn, cd


def q_rref(an, ad, rows, cols):
    """Reduced row echelon form by Gauss-Jordan elimination.

    Deterministic: leftmost pivot column, first nonzero row at or below
    the pivot row.  Returns ``(num, den, pivot_columns)``.
    """
    rn = list(an)
    rd = list(ad)
    pivots = []
    pr = 0
    for pc in range(cols):
        if pr >= rows:
            break
        sel = -1
        for r in range(pr, rows):
            if rn[r * cols + pc]:
                sel = r
                break
        if sel < 0:
            continue
        if sel != pr:
            a = sel * cols
            b = pr * cols
            for c in range(pc, cols):
                rn[a + c], rn[b + c] = rn[b + c], rn[a + c]
                rd[a + c], rd[b + c] = rd[b + c], rd[a + c]
        base = pr * cols
        pn = rn[base + pc]
        pd = rd[base + pc]
        if pn != pd:
            # scale pivot row by pd/pn
            inv_n, inv_d = (pd, pn) if pn > 0 else (-pd, -pn)
            rn[base + pc] = 1
            rd[base + pc] = 1
            for c in range(pc + 1, cols):
                if rn[base + c]:
                    rn[base + c], rd[base + c] = _q_mul(
                        rn[base + c], rd[base + c], inv_n, inv_d
                    )
        for r in range(rows):
            if r == pr:
                continue
            rbase = r * cols
            fn = rn[rbase + pc]
            if not fn:
                continue
            fd = rd[rbase + pc]
            rn[rbase + pc] = 0
            rd[rbase + pc] = 1
            for c in range(pc + 1, cols):
                if rn[base + c]:
                    pn2, pd2 = _q_mul(rn[base + c], rd[base + c], fn, fd)
                    rn[rbase + c], rd[rbase + c] = _q_add(
                        rn[rbase + c], rd[rbase + c], -pn2, pd2
                    )
        pivots.append(pc)
        pr += 1
    return rn, rd, pivots


# ---------------------------------------------------------------------------
# prime-field kernels


def p_add(a, b, p):
    return [(a[i] + b[i]) % p for i in range(len(a))]


def p_sub(a, b, p):
    return [(a[i] - b[i]) % p for i in range(len(a))]


def p_neg(a, p):
    return [(-x) % p for x in a]


def p_scale(a, s, p):
    return [(x * s) % p for x in a]


def p_matmul(a, b, n, k, m, p):
    c = [0] * (n * m)
    for i in range(n):
        ik = i * k
        im = i * m
        for t in range(k):
            va = a[ik + t]
            if not va:
                continue
            tm = t * m
            for j in range(m):
                vb = b[tm + j]
                if vb:
                    c[im + j] += va * vb
    return [x % p for x in c]


def p_kron(a, ar, ac, b, br, bc, p):
    outc = ac * bc
    c = [0] * (ar * br * outc)
    for i in range(ar):
        iac = i * ac
        for j in range(ac):
            va = a[iac + j]
            if not va:
                continue
            for s in range(br):
                base = (i * br + s) * outc + j * bc
                sbc = s * bc
                for t in range(bc):
                    vb = b[sbc + t]
                    if vb:
                        c[base + t] = (va * vb) % p
    return c


def p_rref(a, rows, cols, p):
    r_ = list(a)
    pivots = []
    pr = 0
    for pc in range(cols):
        if pr >= rows:
            break
        sel = -1
        for r in range(pr, rows):
            if r_[r * cols + pc]:
                sel = r
                break
        if sel < 0:
            continue
        if sel != pr:
            ab = sel * cols
            bb = pr * cols
            for c in range(pc, cols):
                r_[ab + c], r_[bb + c] = r_[bb + c], r_[ab + c]
        base = pr * cols
        pv = r_[base + pc]
        if pv != 1:
            inv = pow(pv, p - 2, p)
            r_[base + pc] = 1
            for c in range(pc + 1, cols):
                if r_[base + c]:
                    r_[base + c] = (r_[base + c] * inv) % p
        for r in range(rows):
            if r == pr:
                continue
            rbase = r * cols
            f = r_[rbase + pc]
            if not f:
                continue
            r_[rbase + pc] = 0
            for c in range(pc + 1, cols):
                if r_[base + c]:
                    r_[rbase + c] = (r_[rbase + c] - f * r_[base + c]) % p
        pivots.append(pc)
        pr += 1
    return r_, pivots
