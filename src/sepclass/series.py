"""Truncated formal power series in q with optional marker variables.

Coefficients are exact Python integers.  A series is a sparse map from
(q_exponent, marker_exponents) to a nonzero coefficient; everything with
q-exponent above the truncation order, or a marker exponent above its cap,
is discarded.  Within those bounds all arithmetic is exact.
"""

from __future__ import annotations


class ShapeMismatchError(ValueError):
    """Two series with different truncation order, markers or caps."""


class Series:
    """Sparse truncated power series with bigint coefficients.

    ``markers`` is a tuple of variable names (e.g. ``("mu", "nu")``); each
    term key is ``(q_exp, marks)`` with ``marks`` a tuple of the same length.
    Marker caps default to the truncation order, which is always enough here
    because every marked object contributes at least 1 to the weight.
    """

    __slots__ = ("trunc", "markers", "caps", "terms")

    def __init__(self, trunc, markers=(), caps=None, terms=None):
        if trunc < 0:
            raise ValueError("truncation order must be nonnegative")
        markers = tuple(markers)
        if caps is None:
            caps = (trunc,) * len(markers)
        caps = tuple(caps)
        if len(caps) != len(markers):
            raise ValueError("one cap per marker required")
        clean = {}
        if terms:
            for (q, marks), coeff in terms.items():
                marks = tuple(marks)
                if len(marks) != len(markers):
                    raise ValueError("marker arity mismatch in term")
                if coeff == 0 or q > trunc:
                    continue
                if any(m > c for m, c in zip(marks, caps)):
                    continue
                if q < 0 or any(m < 0 for m in marks):
                    raise ValueError("negative exponent in term")
                clean[(q, marks)] = coeff
        self.trunc = trunc
        self.markers = markers
        self.caps = caps
        self.terms = clean

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, trunc, markers=(), caps=None):
        return cls(trunc, markers, caps)

    @classmethod
    def one(cls, trunc, markers=(), caps=None):
        m = (0,) * len(tuple(markers))
        return cls(trunc, markers, caps, {(0, m): 1})

    def is_zero(self):
        return not self.terms

    def same_shape(self, other):
        return (self.trunc == other.trunc and self.markers == other.markers
                and self.caps == other.caps)

    def _require_shape(self, other):
        if not self.same_shape(other):
            raise ShapeMismatchError(
                f"shape mismatch: (N={self.trunc}, markers={self.markers}, "
                f"caps={self.caps}) vs (N={other.trunc}, "
                f"markers={other.markers}, caps={other.caps})")

    # -- ring operations -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.same_shape(other) and self.terms == other.terms

    def __hash__(self):
        return hash((self.trunc, self.markers, self.caps,
                     frozenset(self.terms.items())))

    def __add__(self, other):
        self._require_shape(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            total = terms.get(key, 0) + coeff
            if total:
                terms[key] = total
            else:
                terms.pop(key, None)
        out = Series(self.trunc, self.markers, self.caps)
        out.terms = terms
        return out

    def __neg__(self):
        out = Series(self.trunc, self.markers, self.caps)
        out.terms = {key: -c for key, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            out = Series(self.trunc, self.markers, self.caps)
            if other:
                out.terms = {key: c * other for key, c in self.terms.items()}
            return out
        self._require_shape(other)
        trunc, caps = self.trunc, self.caps
        terms = {}
        for (q1, m1), c1 in self.terms.items():
            for (q2, m2), c2 in other.terms.items():
                q = q1 + q2
                if q > trunc:
                    continue
                marks = tuple(a + b for a, b in zip(m1, m2))
                if any(m > c for m, c in zip(marks, caps)):
                    continue
                key = (q, marks)
                total = terms.get(key, 0) + c1 * c2
                if total:
                    terms[key] = total
                else:
                    terms.pop(key, None)
        out = Series(trunc, self.markers, caps)
        out.terms = terms
        return out

    __rmul__ = __mul__

    def div_one_minus(self, q_exp, marks=None):
        """Multiply by the geometric series 1/(1 - q^e * marker-monomial).

        The divisor must not be a unit: ``q_exp >= 1`` or some marker
        exponent positive, otherwise the expansion does not terminate.
        """
        if marks is None:
            marks = (0,) * len(self.markers)
        marks = tuple(marks)
        if len(marks) != len(self.markers):
            raise ValueError("marker arity mismatch")
        if q_exp <= 0 and all(m <= 0 for m in marks):
            raise ValueError("non-unit divisor required (zero exponents)")
        terms = {}
        trunc, caps = self.trunc, self.caps
        for (q, ms), coeff in self.terms.items():
            j = 0
            while True:
                qq = q + j * q_exp
                if qq > trunc:
                    break
                mm = tuple(a + j * b for a, b in zip(ms, marks))
                if any(m > c for m, c in zip(mm, caps)):
                    break
                key = (qq, mm)
                total = terms.get(key, 0) + coeff
                if total:
                    terms[key] = total
                else:
                    terms.pop(key, None)
                if q_exp == 0 and all(m == 0 for m in marks):
                    break
                j += 1
        out = Series(trunc, self.markers, caps)
        out.terms = terms
        return out

    # -- queries -------------------------------------------------------------

    def coefficient(self, q_exp, marks=None):
        """Coefficient of one term, or the sum over all marks if marks is None."""
        if marks is not None:
            return self.terms.get((q_exp, tuple(marks)), 0)
        return sum(c for (q, _), c in self.terms.items() if q == q_exp)

    def q_profile(self):
        """Map q_exp -> total coefficient with every marker set to 1."""
        out = {}
        for (q, _), coeff in self.terms.items():
            out[q] = out.get(q, 0) + coeff
        return {q: c for q, c in out.items() if c}

    def collapse_markers(self):
        """Forget the markers, producing the plain counting series."""
        out = Series(self.trunc)
        terms = {}
        for (q, _), coeff in self.terms.items():
            total = terms.get((q, ()), 0) + coeff
            if total:
                terms[(q, ())] = total
            else:
                terms.pop((q, ()), None)
        out.terms = terms
        return out

    def sorted_terms(self):
        return sorted(self.terms.items())

    # -- serialization -------------------------------------------------------

    def to_json_dict(self):
        return {
            "trunc": self.trunc,
            "markers": list(self.markers),
            "caps": list(self.caps),
            "terms": [
                {"q": q, "marks": list(marks), "coeff": str(coeff)}
                for (q, marks), coeff in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data):
        terms = {
            (t["q"], tuple(t["marks"])): int(t["coeff"])
            for t in data["terms"]
        }
        return cls(data["trunc"], tuple(data["markers"]),
                   tuple(data.get("caps") or ()) or None, terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        names = ("q",) + self.markers
        bits = []
        for (q, marks), coeff in self.sorted_terms():
            exps = (q,) + marks
            mono = "*".join(
                f"{n}^{e}" if e > 1 else n
                for n, e in zip(names, exps) if e)
            if not mono:
                bits.append(str(coeff))
            elif coeff == 1:
                bits.append(mono)
            elif coeff == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{coeff}*{mono}")
        return " + ".join(bits).replace("+ -", "- ")


def monomial(q_exp, marks, coeff, trunc, markers=(), caps=None):
    """A one-term series; terms past the truncation bounds give zero."""
    marks = tuple(marks)
    markers = tuple(markers)
    if len(marks) != len(markers):
        raise ValueError("marks length must equal marker count")
    return Series(trunc, markers, caps, {(q_exp, marks): coeff})


# -- raw q-polynomial helpers (dict exp -> coeff), used to keep the q-binomial
# machinery free of per-term Series overhead --------------------------------

def _poly_mul(d1, d2, trunc):
    out = {}
    for e1, c1 in d1.items():
        for e2, c2 in d2.items():
            e = e1 + e2
            if e > trunc:
                continue
            total = out.get(e, 0) + c1 * c2
            if total:
                out[e] = total
            else:
                out.pop(e, None)
    return out


# (A, B, k, trunc) -> [A, B]_k, for one truncation order at a time
_gauss_cache = {}


def _gauss_terms(A, B, k, trunc):
    """Gaussian polynomial [A, B]_k as a dict, via the Pascal recurrence
    [a, b] = [a-1, b] + q^{k(a-b)} [a-1, b-1].

    The cells are filled from an explicit stack in the order a recursion
    would visit them, so A is not limited by the interpreter's recursion
    depth.  A call with a new truncation order empties the cache first.
    """
    if A < 0 or B < 0 or B > A:
        return {}
    if B == 0 or B == A:
        return {0: 1}
    cache = _gauss_cache
    if cache and next(iter(cache))[3] != trunc:
        cache.clear()
    elif (A, B, k, trunc) in cache:
        return cache[(A, B, k, trunc)]
    stack = [(A, B)]
    while stack:
        a, b = stack[-1]
        if (a, b, k, trunc) in cache:
            stack.pop()
            continue
        # both neighbours satisfy 0 <= b' <= a-1; the edges are 1
        left = {0: 1} if b == a - 1 else cache.get((a - 1, b, k, trunc))
        right = {0: 1} if b == 1 else cache.get((a - 1, b - 1, k, trunc))
        if left is None or right is None:
            if left is None:
                stack.append((a - 1, b))
            if right is None:
                stack.append((a - 1, b - 1))
            continue
        stack.pop()
        shift = k * (a - b)
        out = dict(left)
        if shift <= trunc:
            for e, c in right.items():
                e2 = e + shift
                if e2 > trunc:
                    continue
                total = out.get(e2, 0) + c
                if total:
                    out[e2] = total
                else:
                    out.pop(e2, None)
        cache[(a, b, k, trunc)] = out
    return cache[(A, B, k, trunc)]


def _wrap_poly(d, trunc, markers, caps=None):
    markers = tuple(markers)
    zero_marks = (0,) * len(markers)
    return Series(trunc, markers, caps,
                  {(e, zero_marks): c for e, c in d.items()})


def pochhammer(k, n, trunc, markers=()):
    """The polynomial (q^k; q^k)_n = prod_{i=1}^{n} (1 - q^{ki}), truncated."""
    if k < 1:
        raise ValueError("k must be positive")
    out = {0: 1}
    for i in range(1, n + 1):
        out = _poly_mul(out, {0: 1, k * i: -1} if k * i <= trunc else {0: 1},
                        trunc)
    return _wrap_poly(out, trunc, markers)


def gaussian(A, B, k, trunc, markers=()):
    """The q-binomial coefficient [A, B]_{q^k}; zero unless A >= B >= 0."""
    if k < 1:
        raise ValueError("k must be positive")
    return _wrap_poly(_gauss_terms(A, B, k, trunc), trunc, markers)


def gaussian_by_division(A, B, k, trunc, markers=()):
    """Independent route for the q-binomial: product formula plus exact
    division by the denominator Pochhammers (each factor has unit constant
    term, so division is a chain of geometric multiplications)."""
    if k < 1:
        raise ValueError("k must be positive")
    if not (A >= B >= 0):
        return Series.zero(trunc, markers)
    out = pochhammer(k, A, trunc, markers)
    for i in list(range(1, B + 1)) + list(range(1, A - B + 1)):
        if k * i <= trunc:
            out = out.div_one_minus(k * i)
    return out


def g_poly(k, r, h, s, trunc, markers=()):
    """The alternating q-binomial sum
    sum_i (-1)^i q^{rk(i^2-i)/2} [s, i]_{rk} [h-ri+s-1, s-1]_k.

    Finite: [s, i] vanishes for i > s, and the second factor vanishes once
    its row index drops below s-1.
    """
    if s < 1:
        raise ValueError("s must be positive")
    total = {}
    for i in range(s + 1):
        shift = r * k * (i * i - i) // 2
        if shift > trunc:
            break
        row = h - r * i + s - 1
        if row < s - 1:
            break
        first = _gauss_terms(s, i, r * k, trunc)
        second = _gauss_terms(row, s - 1, k, trunc)
        if not first or not second:
            continue
        prod = _poly_mul(first, second, trunc)
        sign = -1 if i % 2 else 1
        for e, c in prod.items():
            e2 = e + shift
            if e2 > trunc:
                continue
            tot = total.get(e2, 0) + sign * c
            if tot:
                total[e2] = tot
            else:
                total.pop(e2, None)
    return _wrap_poly(total, trunc, markers)
