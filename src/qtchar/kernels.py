"""Dict and tuple kernels behind monomials and Laurent polynomials.

Data conventions:

* a monomial is a tuple of (node, shift, exponent) triples sorted by
  (node, shift), with no zero exponents;
* a coefficient polynomial is a dict {exponent: int} with no zero values.

Callers look these functions up as ``kernels.<name>`` at call time, so a
profiler can count them by replacing the module attributes.
"""

BACKEND = "python"


def mono_mul(a, b):
    """Merge two sorted monomials, summing exponents and dropping zeros."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i, j, na, nb = 0, 0, len(a), len(b)
    while i < na and j < nb:
        ta, tb = a[i], b[j]
        ka = (ta[0], ta[1])
        kb = (tb[0], tb[1])
        if ka < kb:
            out.append(ta)
            i += 1
        elif kb < ka:
            out.append(tb)
            j += 1
        else:
            e = ta[2] + tb[2]
            if e:
                out.append((ta[0], ta[1], e))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_pow(a, n):
    if n == 0:
        return ()
    if n == 1:
        return a
    return tuple((i, s, e * n) for (i, s, e) in a)


def poly_add(p, q):
    out = dict(p)
    for n, c in q.items():
        r = out.get(n, 0) + c
        if r:
            out[n] = r
        else:
            out.pop(n, None)
    return out


def poly_sub(p, q):
    out = dict(p)
    for n, c in q.items():
        r = out.get(n, 0) - c
        if r:
            out[n] = r
        else:
            out.pop(n, None)
    return out


def poly_mul(p, q):
    out = {}
    for n, c in p.items():
        for m, d in q.items():
            k = n + m
            r = out.get(k, 0) + c * d
            if r:
                out[k] = r
            else:
                del out[k]
    return out


def poly_scale(p, n):
    """t^n * p."""
    return {m + n: d for m, d in p.items()}


def poly_acc_mul(acc, p, q, shift):
    """acc += p * q * t^shift, updating acc in place."""
    for n, c in p.items():
        for m, d in q.items():
            k = n + m + shift
            r = acc.get(k, 0) + c * d
            if r:
                acc[k] = r
            else:
                del acc[k]

