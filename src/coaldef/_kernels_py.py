"""Pure-Python arithmetic kernels behind :class:`coaldef.exactlinalg.Matrix`.

A matrix travels as one flat row-major list of ints; its common
denominator and the field's normalization stay with
:class:`~coaldef.exactlinalg.Matrix`.  So the same three kernels --
linear combination, matrix product and Kronecker product -- serve QQ
and GF(p) alike: they do integer arithmetic only, and the caller
reduces the result once (by the gcd over QQ, modulo p over GF(p)).
Products skip exact zeros, so their cost tracks the number of nonzero
entries rather than the dense size.

``pack`` and ``unpack`` carry a whole truncated matrix power series
through the same kernels (Kronecker substitution): each entry of the
series sum_i x_i t^i becomes the one int sum_i x_i 2^(i w), so one
integer product of packed matrices forms every Cauchy coefficient at
once, and ``unpack`` reads the coefficients back exactly as long as
each one it reads, and every lower one, lies strictly between
-2^(w-1) and 2^(w-1).

The reduced row echelon forms ``q_rref`` (per-entry normalized integer
pairs) and ``p_rref`` (ints in ``[0, p)``) keep their own entry layouts.
"""

from math import gcd

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
# integer kernels (both fields)


def lincomb(a, s, b=None, t=0):
    """The entrywise integer combination s a + t b; without b, just s a."""
    if b is None:
        return [s * x for x in a]
    return [s * x + t * y for x, y in zip(a, b)]


def matmul(a, b, n, k, m):
    """Integer product of an n x k and a k x m matrix, skipping zeros."""
    c = [0] * (n * m)
    for i in range(n):
        ik = i * k
        im = i * m
        for t in range(k):
            x = a[ik + t]
            if not x:
                continue
            tm = t * m
            for j in range(m):
                y = b[tm + j]
                if y:
                    c[im + j] += x * y
    return c


def kron(a, ar, ac, b, br, bc):
    """Integer Kronecker product of an ar x ac and a br x bc matrix."""
    outc = ac * bc
    c = [0] * (ar * br * outc)
    for i in range(ar):
        iac = i * ac
        for j in range(ac):
            x = a[iac + j]
            if not x:
                continue
            for s in range(br):
                base = (i * br + s) * outc + j * bc
                sbc = s * bc
                for t in range(bc):
                    y = b[sbc + t]
                    if y:
                        c[base + t] = x * y
    return c


def pack(series, w):
    """The entrywise ints sum_i x_i 2^(i w) of the int lists ``series[i]``
    (one per power of t, all of one length)."""
    out = [0] * len(series[0])
    for ints in reversed(series):
        out = [(v << w) + x for v, x in zip(out, ints)]
    return out


def unpack(packed, w, slots):
    """For each n in ``slots``, the list of the signed slot-n ints of the
    packed entries (see the module docstring for the bound they need).

    Adding 2^(w-1) to every slot up to the highest one read makes each
    of them a w-bit field with no borrow between them, so the bits
    above the highest slot can be dropped and one shift and one mask
    read slot n.
    """
    half = 1 << (w - 1)
    low = (1 << (max(slots) + 1) * w) - 1
    bias = half * low // ((1 << w) - 1)
    mask = (1 << w) - 1
    shifts = [n * w for n in slots]
    out = [[] for _ in slots]
    for v in packed:
        u = (v + bias) & low
        for ints, shift in zip(out, shifts):
            ints.append(((u >> shift) & mask) - half)
    return out


# ---------------------------------------------------------------------------
# reduced row echelon forms


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
