"""Pure-Python arithmetic kernels behind :class:`coaldef.exactlinalg.Matrix`.

A matrix travels as one flat row-major list of ints; its common
denominator and the field's normalization stay with
:class:`~coaldef.exactlinalg.Matrix`.  So the same kernels -- linear
combination, matrix product, sparse operator times vector and Kronecker
product -- serve QQ and GF(p) alike: they do integer arithmetic only,
and the caller reduces the result once (by the gcd over QQ, modulo p
over GF(p)).  Products skip exact zeros, so their cost tracks the
number of nonzero entries rather than the dense size.

``pack`` and ``unpack`` carry a whole truncated matrix power series
through the same kernels (Kronecker substitution): each entry of the
series sum_i x_i t^i becomes the one int sum_i x_i 2^(i w), so one
integer product of packed matrices forms every Cauchy coefficient at
once, and ``unpack`` reads the coefficients back exactly as long as
each one it reads, and every lower one, lies strictly between
-2^(w-1) and 2^(w-1).  They also carry the rows of one matrix, its
columns as the slots: ``pack`` of the list of its columns gives one
int per row, a linear combination of such ints is the same combination
of the rows, and ``unpack`` reads its columns back under the same
bound.

Elimination is not here: it is sparse, in :mod:`coaldef.sparse`.
"""

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


def sparse_apply(entries, x, rows):
    """The ``rows`` ints of the sparse operator ``{(row, col): int}``
    applied to the int vector x, skipping the zero entries of x."""
    out = [0] * rows
    for (row, col), value in entries.items():
        if x[col]:
            out[row] += value * x[col]
    return out


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
    biased = [(v + bias) & low for v in packed]
    return [[((u >> n * w) & mask) - half for u in biased] for n in slots]
