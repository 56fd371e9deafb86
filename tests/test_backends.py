"""The compiled kernel and the pure fallback must agree bit for bit."""

import importlib
import sys
from math import gcd

import pytest

import coaldef
from coaldef import _backend
from coaldef import _kernels_py as pure

from helpers import fresh_rng, rational

try:
    from coaldef import _kernels as compiled
except ImportError:
    compiled = None

needs_compiled = pytest.mark.skipif(compiled is None,
                                    reason="compiled kernel not built")


def rand_pairs(rng, size):
    num, den = [], []
    for _ in range(size):
        f = rational(rng, 20)
        num.append(f.numerator)
        den.append(f.denominator)
    return num, den


@needs_compiled
@pytest.mark.parametrize("seed", range(10))
def test_rational_kernels_agree(seed):
    rng = fresh_rng(seed)
    n, k, m = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
    an, ad = rand_pairs(rng, n * k)
    bn, bd = rand_pairs(rng, k * m)
    cn, cd = rand_pairs(rng, n * k)
    assert compiled.q_matmul(an, ad, bn, bd, n, k, m) == \
        pure.q_matmul(an, ad, bn, bd, n, k, m)
    assert compiled.q_kron(an, ad, n, k, bn, bd, k, m) == \
        pure.q_kron(an, ad, n, k, bn, bd, k, m)
    assert compiled.q_rref(an, ad, n, k) == pure.q_rref(an, ad, n, k)
    assert compiled.q_add(an, ad, cn, cd) == pure.q_add(an, ad, cn, cd)
    assert compiled.q_sub(an, ad, cn, cd) == pure.q_sub(an, ad, cn, cd)
    assert compiled.q_neg(an, ad) == pure.q_neg(an, ad)
    s = rational(rng, 9)
    assert compiled.q_scale(an, ad, s.numerator, s.denominator) == \
        pure.q_scale(an, ad, s.numerator, s.denominator)
    # the shapes of the fused series products: stacks of up to about 13
    # coefficients of dimension 3, times [R | S] blocks of 2d^2 = 32
    # columns at d = 4, with zero rows on both sides
    n, k, m = rng.randint(0, 9), rng.randint(0, 40), rng.randint(0, 32)
    an, ad = rand_pairs(rng, n * k)
    bn, bd = rand_pairs(rng, k * m)
    for i in rng.sample(range(n), n // 3):
        an[i * k:(i + 1) * k] = [0] * k
        ad[i * k:(i + 1) * k] = [1] * k
    for t in rng.sample(range(k), k // 3):
        bn[t * m:(t + 1) * m] = [0] * m
        bd[t * m:(t + 1) * m] = [1] * m
    assert compiled.q_matmul(an, ad, bn, bd, n, k, m) == \
        pure.q_matmul(an, ad, bn, bd, n, k, m)


@needs_compiled
@pytest.mark.parametrize("seed,p", [(0, 2), (1, 3), (2, 5), (3, 13), (4, 97)])
def test_prime_kernels_agree(seed, p):
    rng = fresh_rng(seed)
    n, k, m = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
    a = [rng.randrange(p) for _ in range(n * k)]
    b = [rng.randrange(p) for _ in range(k * m)]
    c = [rng.randrange(p) for _ in range(n * k)]
    assert compiled.p_matmul(a, b, n, k, m, p) == pure.p_matmul(a, b, n, k, m, p)
    assert compiled.p_kron(a, n, k, b, k, m, p) == pure.p_kron(a, n, k, b, k, m, p)
    assert compiled.p_rref(a, n, k, p) == pure.p_rref(a, n, k, p)
    assert compiled.p_add(a, c, p) == pure.p_add(a, c, p)
    assert compiled.p_sub(a, c, p) == pure.p_sub(a, c, p)
    assert compiled.p_scale(a, 7, p) == pure.p_scale(a, 7, p)


@pytest.mark.parametrize("kernel", [
    pytest.param(pure, id="pure"),
    pytest.param(compiled, id="compiled", marks=needs_compiled),
])
def test_outputs_stay_normalized(kernel):
    rng = fresh_rng(99)
    an, ad = rand_pairs(rng, 36)
    bn, bd = rand_pairs(rng, 36)
    for out_n, out_d in (
        kernel.q_matmul(an, ad, bn, bd, 6, 6, 6),
        kernel.q_add(an, ad, bn, bd),
        kernel.q_rref(an, ad, 6, 6)[:2],
    ):
        for x, y in zip(out_n, out_d):
            assert y > 0
            assert gcd(x, y) == 1
            assert x != 0 or y == 1


def test_falls_back_to_pure_kernel(monkeypatch):
    monkeypatch.setitem(sys.modules, "coaldef._kernels", None)
    monkeypatch.delattr(coaldef, "_kernels", raising=False)
    try:
        importlib.reload(_backend)
        assert _backend.kernel() is pure
        assert _backend.backend_name() == "pure"
    finally:
        monkeypatch.undo()
        importlib.reload(_backend)
