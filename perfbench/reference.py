"""Reference series computed apart from sepclass.

Nothing here imports the package.  A series is a plain dict mapping
``(q_exponent, marks)`` to a nonzero integer coefficient, with ``marks`` a
tuple of marker exponents in the package's marker order: (mu, nu) for
P/Pprime, (mu, nu, om) for R/Rr, (z,) for the overpartition classes.
Specs are the grid's JSON dicts, e.g. ``{"class": "P", "a": 1, "b": 2,
"k": 2, "r": 1}``.

Two sources:

- ``enumerated_series``: a small enumerator written from the class
  definitions (brute force over all partitions or overpartitions of each
  weight, filtered by the class rules);
- ``product_series``: infinite-product formulas for the specs that have
  one, expanded with plain dict arithmetic.
"""

OVERPARTITION_CLASSES = ("Fbar", "Lbar", "Fr", "Lr")


def _partitions(n, cap):
    if n == 0:
        yield ()
        return
    for part in range(min(n, cap), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _overpartitions(n, first):
    """Each overpartition of n as a tuple of (part, overlined) pairs.

    At most one copy of each distinct part is overlined: the first copy
    under the first-occurrence convention, the last copy otherwise."""
    for parts in _partitions(n, n):
        distinct = sorted(set(parts))
        for mask in range(1 << len(distinct)):
            chosen = {d for i, d in enumerate(distinct) if mask >> i & 1}
            out = []
            for i, p in enumerate(parts):
                edge = (i == 0 or parts[i - 1] != p) if first else \
                    (i + 1 == len(parts) or parts[i + 1] != p)
                out.append((p, p in chosen and edge))
            yield tuple(out)


def _longest_run(flags):
    best = run = 0
    for flag in flags:
        run = run + 1 if flag else 0
        best = max(best, run)
    return best


def _partition_marks(spec, parts):
    """Marker exponents of a member of a partition class, None otherwise."""
    kind, k = spec["class"], spec["k"]
    res = [p % k for p in parts]
    a, b = spec["a"] % k, spec["b"] % k
    if kind in ("P", "Pprime"):
        if any(x not in (a, b) for x in res):
            return None
        limited = b if kind == "P" else a
        if _longest_run([x == limited for x in res]) > spec["r"]:
            return None
        return (res.count(a), res.count(b))
    c = spec["c"] % k
    if any(x not in (a, b, c) for x in res):
        return None
    for i in range(len(parts) - 1):
        if res[i] == c and parts[i] == parts[i + 1]:
            return None
        if res[i] == a and res[i + 1] not in (a, c):
            return None
    if kind == "Rr" and _longest_run([x == b for x in res]) >= spec["r"]:
        return None
    return (res.count(a), res.count(b), res.count(c))


def _overpartition_marks(spec, parts):
    kind = spec["class"]
    flags = [over for _, over in parts]
    if kind in ("Fbar", "Lbar"):
        if any(flags[i] and flags[i + 1] for i in range(len(flags) - 1)):
            return None
    elif _longest_run([not f for f in flags]) >= spec["r"]:
        return None
    return (sum(flags),)


def enumerated_series(spec, trunc):
    """Refined generating series up to q^trunc by brute-force enumeration."""
    out = {}
    over = spec["class"] in OVERPARTITION_CLASSES
    for n in range(trunc + 1):
        if over:
            first = spec["class"] in ("Fbar", "Fr")
            objs, marks_of = _overpartitions(n, first), _overpartition_marks
        else:
            objs, marks_of = _partitions(n, n), _partition_marks
        for obj in objs:
            marks = marks_of(spec, obj)
            if marks is not None:
                key = (n, marks)
                out[key] = out.get(key, 0) + 1
    return out


# -- product formulas ----------------------------------------------------------

def _times_one_plus(series, e, marks, trunc):
    """series * (1 + x q^e), x the marker monomial with exponents marks."""
    out = dict(series)
    for (q, ms), coeff in series.items():
        if q + e <= trunc:
            key = (q + e, tuple(m + d for m, d in zip(ms, marks)))
            out[key] = out.get(key, 0) + coeff
    return out


def _over_one_minus(series, e, marks, trunc):
    """series / (1 - x q^e), expanded as a geometric series."""
    out = dict(series)
    for (q, ms), coeff in series.items():
        j = 1
        while q + j * e <= trunc:
            key = (q + j * e, tuple(m + j * d for m, d in zip(ms, marks)))
            out[key] = out.get(key, 0) + coeff
            j += 1
    return out


def product_series(spec, trunc):
    """The product formula for spec up to q^trunc, or None if it has none.

    - Fr, Lr with r = 1: prod (1 + z q^n);
    - Fr, Lr with r > trunc: prod (1 + z q^n) / (1 - q^n);
    - P, Pprime with r > trunc:
      prod_j 1 / ((1 - mu q^(a+kj)) (1 - nu q^(b+kj)));
    - Rr with r = 1: prod_j (1 + om q^(c+kj)) / (1 - mu q^(a+kj)).

    A run bound r > trunc never binds below weight r, so up to q^trunc the
    class is unrestricted.
    """
    kind, r = spec["class"], spec.get("r")
    factors = []        # (numerator?, q exponent, marks)
    if kind in ("Fr", "Lr") and (r == 1 or r > trunc):
        factors += [(True, n, (1,)) for n in range(1, trunc + 1)]
        if r > trunc:
            factors += [(False, n, (0,)) for n in range(1, trunc + 1)]
    elif kind in ("P", "Pprime") and r > trunc:
        a, b, k = spec["a"], spec["b"], spec["k"]
        factors += [(False, e, (1, 0)) for e in range(a, trunc + 1, k)]
        factors += [(False, e, (0, 1)) for e in range(b, trunc + 1, k)]
    elif kind == "Rr" and r == 1:
        a, c, k = spec["a"], spec["c"], spec["k"]
        factors += [(True, e, (0, 0, 1)) for e in range(c, trunc + 1, k)]
        factors += [(False, e, (1, 0, 0)) for e in range(a, trunc + 1, k)]
    else:
        return None
    width = len(factors[0][2])
    out = {(0, (0,) * width): 1}
    for numerator, e, marks in factors:
        step = _times_one_plus if numerator else _over_one_minus
        out = step(out, e, marks, trunc)
    return out
