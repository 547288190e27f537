from __future__ import annotations

from collections import Counter
import random

from qtchar import kernels


def _rand_mono(rng, size):
    keys = rng.sample([(i, s) for i in range(1, 4) for s in range(-5, 6)], size)
    return tuple(sorted((i, s, rng.choice([-3, -2, -1, 1, 2, 3])) for i, s in keys))


def _rand_poly(rng, size):
    exps = rng.sample(range(-8, 9), size)
    return {e: rng.choice([-9, -3, -1, 1, 2, 5]) for e in exps}


def _rand_map(rng, size):
    keys = rng.sample([(i, s) for i in range(1, 4) for s in range(-5, 6)], size)
    return {k: rng.randint(-6, 6) for k in keys}


# Naive references.  Counter.update adds counts (negative ones included);
# _nonzero then drops the cancelled entries the kernels must not keep.


def _nonzero(counter):
    return {k: v for k, v in counter.items() if v}


def _ref_mono_mul(a, b):
    c = Counter()
    for i, s, e in a + b:
        c[(i, s)] += e
    return tuple(sorted((i, s, e) for (i, s), e in c.items() if e))


def _ref_poly_mul(p, q, shift=0):
    c = Counter()
    for n, x in p.items():
        for m, y in q.items():
            c[n + m + shift] += x * y
    return c


def test_backend_tag():
    # perfbench/run.py probes this attribute for every benchmark run
    assert kernels.BACKEND == "python"


def test_mono_ops_match_reference():
    rng = random.Random(11)
    for _ in range(300):
        a = _rand_mono(rng, rng.randint(0, 6))
        b = _rand_mono(rng, rng.randint(0, 6))
        assert kernels.mono_mul(a, b) == _ref_mono_mul(a, b)
        n = rng.randint(0, 4)
        power = ()
        for _ in range(n):
            power = _ref_mono_mul(power, a)
        assert kernels.mono_pow(a, n) == power


def test_mono_mul_cancels_zero_exponents():
    a = ((1, 0, 2), (2, 1, -1))
    b = ((1, 0, -2), (2, 1, 1), (3, 3, 5))
    assert kernels.mono_mul(a, b) == ((3, 3, 5),)
    assert kernels.mono_pow(a, 0) == ()


def test_poly_ops_match_reference():
    rng = random.Random(23)
    for _ in range(300):
        p = _rand_poly(rng, rng.randint(0, 7))
        q = _rand_poly(rng, rng.randint(0, 7))
        plus, minus = Counter(p), Counter(p)
        plus.update(q)
        minus.subtract(q)
        assert kernels.poly_add(p, q) == _nonzero(plus)
        assert kernels.poly_sub(p, q) == _nonzero(minus)
        assert kernels.poly_mul(p, q) == _nonzero(_ref_poly_mul(p, q))
        shift = rng.randint(-3, 3)
        assert kernels.poly_scale(p, shift) == _nonzero(_ref_poly_mul(p, {0: 1}, shift))
        acc = dict(p)
        kernels.poly_acc_mul(acc, q, q, shift)
        total = Counter(p)
        total.update(_ref_poly_mul(q, q, shift))
        assert acc == _nonzero(total)


def test_poly_acc_mul_deletes_cancelled_entries():
    acc = {0: 1}
    kernels.poly_acc_mul(acc, {0: -1}, {0: 1}, 0)
    assert acc == {}


def test_dot_shifted_matches_reference(dot_shifted):
    rng = random.Random(37)
    for _ in range(300):
        a = _rand_map(rng, rng.randint(0, 8))
        b = _rand_map(rng, rng.randint(0, 8))
        for shift in (-2, -1, 0, 1, 2):
            expected = sum(
                w * v
                for (i, s), v in b.items()
                for (j, t), w in a.items()
                if j == i and t == s + shift
            )
            assert dot_shifted(a, b, shift) == expected


def test_dot_shifted_orientation(dot_shifted):
    # the shift is applied to the first argument's keys, summed over the
    # second argument's support
    a = {(1, 3): 5}
    b = {(1, 2): 7}
    assert dot_shifted(a, b, 1) == 35
    assert dot_shifted(a, b, -1) == 0
    assert dot_shifted(b, a, 1) == 0
