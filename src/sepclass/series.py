"""Truncated formal power series in q with optional marker variables.

Coefficients are exact integers.  A series is stored by marker slices: a
dict ``{marks: packed}`` from a tuple of marker exponents to one Python
int that holds the q-polynomial of that slice by Kronecker substitution,
W bits per coefficient, the coefficient of q^i in bits [W*i, W*(i+1)).
Terms with q-exponent or a marker exponent above the truncation order N
are discarded.

Packed form.  A slice is the residue of P(2^W) modulo M = 2^(W*(N+1)), a
nonnegative int below M.  Multiplying by q^e is a shift by W*e bits,
truncation is ``& (M - 1)``, ``+``/``-`` are int additions and ``*`` is
one big-int product per pair of slices, which CPython computes in C
(Kronecker substitution; Schoenhage 1982, Harvey arXiv:0712.4046).
Dividing by 1 - q^e is one product with the packed geometric series.
These are ring operations modulo M, so digits may carry while a result
is built; a series reads back exactly once its own coefficients lie in
[-2^(W-1), 2^(W-1)).  Digits are read as signed values (``_unpack``).
``terms``, ``sorted_terms()`` and ``to_json_dict()`` are the boundary:
the unpacked ``{(q, marks): coeff}`` view is built once per series and
cached; ``coefficient()`` decodes only the digits it reads.  This module
is the only one that knows the layout: ``add_term`` and ``Series._packed``
are how ``theorems`` builds series from packed polynomials,
``shift_into`` and ``Series.tally`` are how the oracle and basis sweeps
move and wrap their packed tallies, and ``first_difference`` is the
comparison.

Digit width.  Write p(N) for the number of partitions of N, pbar(N) for
the number of overpartitions, and A <= B for "coefficientwise at most".
With P = 1/(q;q)_oo and Pbar = (-q;q)_oo/(q;q)_oo:

1. a Gaussian polynomial, 1/(q^k;q^k)_m and |(q^k;q^k)_m| are <= P, so
   their coefficients are at most p(N);
2. sum_i q^(rk(i^2-i)/2) [s, i]_{q^rk} = prod_{j<s} (1 + q^(rkj)) is
   <= 2(-q;q)_oo, so the even-i and odd-i halves of ``g_poly``, and |G|,
   are <= 2 Pbar, with coefficients at most 2 pbar(N);
3. a lemma term of ``theorems`` (a monomial times two of the above) is
   <= 2 P Pbar, and one marker slice of B_m sums at most 2(N+1) of them;
4. the assembly adds at most N+1 products B_m[marks] / (q^k;q^k)_m and
   the constant 1 into one marker slice;
5. an oracle or basis tally counts distinct objects: at most pbar(N).

So every coefficient the library builds at order N is at most
B(N) = 4(N+1)^2 [q^N] P^2 Pbar + 1 in absolute value (the coefficients of
P^2 Pbar never decrease, so [q^N] bounds every [q^n], n <= N), and the
library width is the least multiple of 8 above the bit length of B(N)
(``_bounds``; 40 bits at N=25, 72 at N=100, 104 at N=200).  A series
built from given terms, or by arithmetic on other series, carries an
upper bound on its coefficients and is widened before the bound could
reach 2^(W-1), so nothing wraps.  ``_WIDTH`` fixes one width instead;
then a bound that does not fit raises OverflowError.
"""

from __future__ import annotations

from functools import lru_cache


class ShapeMismatchError(ValueError):
    """Two series with different truncation order or markers."""


# bits per coefficient for every series; None derives the width from the
# coefficient bounds.  A fixed width (a multiple of 8) exists for tests of
# the overflow checks.
_WIDTH = None


@lru_cache(maxsize=256)
def _bounds(trunc):
    """(p(N), pbar(N), B(N)) of the module docstring, for N = trunc."""
    coeffs = [1] + [0] * trunc

    def divide(start, step):
        # multiply by 1/prod (1 - q^j) over j = start, start + step, ...
        for j in range(start, trunc + 1, step):
            for n in range(j, trunc + 1):
                coeffs[n] += coeffs[n - j]
    divide(1, 1)
    p = coeffs[trunc]
    divide(1, 2)            # Pbar = P / (q; q^2)_oo
    pbar = coeffs[trunc]
    divide(1, 1)
    divide(1, 1)            # P^2 Pbar
    return p, pbar, 4 * (trunc + 1) ** 2 * coeffs[trunc] + 1


def _width(bound, trunc=None):
    """Digit width (a multiple of 8) for coefficients of absolute value at
    most bound, and at least the library width of trunc when given."""
    need = (bound.bit_length() + 8) // 8 * 8
    if _WIDTH is not None:
        if need > _WIDTH:
            raise OverflowError(
                f"coefficients up to {bound} need {need}-bit digits; "
                f"the width is fixed at {_WIDTH} bits")
        return _WIDTH
    if trunc is not None:
        need = max(need, _width(_bounds(trunc)[2]))
    return need


# caches of packed q-polynomials at the library width of one truncation
# order; a call at another order (or width) empties them first
_gauss_cache = {}       # (A, B, k, trunc) -> [A, B]_{q^k}
_g_cache = {}           # (k, r, h, s) -> (need, G_{k,r}(h, s) to q^need)
_inv_poch_cache = {}    # k -> [1/(q^k; q^k)_m for m = 0, 1, ...]
_cache_order = None     # (trunc, _WIDTH, width, mask) the caches hold


def packing(trunc):
    """(width, mask) of the library's packed polynomials at order trunc."""
    global _cache_order
    if _cache_order is None or _cache_order[:2] != (trunc, _WIDTH):
        for cache in (_gauss_cache, _g_cache, _inv_poch_cache):
            cache.clear()
        width = _width(_bounds(trunc)[2])
        _cache_order = (trunc, _WIDTH, width, (1 << width * (trunc + 1)) - 1)
    return _cache_order[2], _cache_order[3]


def _low_digit(x, width):
    """Index of the lowest nonzero digit of a nonzero packed int."""
    return ((x & -x).bit_length() - 1) // width


def _span(x, width):
    """Number of digits from the lowest to the highest nonzero one."""
    return (x.bit_length() - 1) // width - _low_digit(x, width) + 1


def mul_packed(a, b, width, trunc):
    """Packed a*b truncated after q^trunc; low zero digits are shifted off
    first, so the product is only as long as the part that survives."""
    if not a or not b:
        return 0
    lo_a, lo_b = _low_digit(a, width), _low_digit(b, width)
    n = trunc + 1 - lo_a - lo_b
    if n <= 0:
        return 0
    keep = (1 << width * n) - 1
    prod = ((a >> width * lo_a) & keep) * ((b >> width * lo_b) & keep)
    return (prod & keep) << width * (lo_a + lo_b)


def _geometric(e, width, trunc):
    """Packed 1/(1 - q^e) = 1 + q^e + q^2e + ... up to q^trunc."""
    if e > trunc:
        return 1
    step = width * e
    return ((1 << step * (trunc // e + 1)) - 1) // ((1 << step) - 1)


def _unpack(x, width, trunc):
    """(exponent, coefficient) pairs of a packed residue, every digit read
    as a signed value in [-2^(width-1), 2^(width-1))."""
    if not x:
        return []
    size = width // 8
    lo = _low_digit(x, width)
    # up to one digit above the highest nonzero one, which takes its borrow
    count = min((x.bit_length() - 1) // width + 2, trunc + 1) - lo
    raw = (x >> width * lo).to_bytes(size * count, "little")
    half, base = 1 << (width - 1), 1 << width
    out = []
    carry = 0
    for i in range(count):
        d = int.from_bytes(raw[i * size:(i + 1) * size], "little") + carry
        carry = 1 if d >= half else 0
        if carry:
            d -= base
        if d:
            out.append((lo + i, d))
    return out


def _pack(pairs, width):
    """Packed int of (exponent, coefficient) pairs, not yet reduced."""
    return sum(c << width * q for q, c in pairs)


class Series:
    """Truncated power series with exact integer coefficients, packed by
    marker slice (see the module docstring).

    ``markers`` is a tuple of variable names (e.g. ``("mu", "nu")``); each
    term key is ``(q_exp, marks)`` with ``marks`` a tuple of the same
    length.  Marker exponents are cut at the truncation order N, which
    loses nothing here because every marked object contributes at least 1
    to the weight.  ``width`` is the digit width of ``slices`` and
    ``bound`` an upper bound on the absolute value of every coefficient.
    The public constructor builds from terms; every series, whatever
    builds it, comes out of ``_packed``.
    """

    __slots__ = ("trunc", "markers", "width", "bound", "slices", "_terms")

    def __new__(cls, trunc, markers=(), terms=None):
        if trunc < 0:
            raise ValueError("truncation order must be nonnegative")
        markers = tuple(markers)
        by_marks = {}
        if terms:
            for (q, marks), coeff in terms.items():
                marks = tuple(marks)
                if len(marks) != len(markers):
                    raise ValueError("marker arity mismatch in term")
                if coeff == 0 or q > trunc or any(m > trunc for m in marks):
                    continue
                if q < 0 or any(m < 0 for m in marks):
                    raise ValueError("negative exponent in term")
                by_marks.setdefault(marks, []).append((q, coeff))
        bound = max((abs(c) for pairs in by_marks.values()
                     for _, c in pairs), default=0)
        width = _width(bound, trunc)
        return cls._packed(trunc, markers,
                           {marks: _pack(pairs, width)
                            for marks, pairs in by_marks.items()},
                           width, bound)

    @classmethod
    def _packed(cls, trunc, markers, slices, width=None, bound=None):
        """The series of the given packed slices, each reduced modulo
        2^(W(N+1)); the slices that reduce to zero are dropped.  ``width``
        defaults to the library width of trunc (``packing``) and ``bound``
        to B(trunc)."""
        if width is None:
            width = packing(trunc)[0]
        if bound is None:
            bound = _bounds(trunc)[2]
        mask = (1 << width * (trunc + 1)) - 1
        out = object.__new__(cls)
        out.trunc = trunc
        out.markers = tuple(markers)
        out.width = width
        out.bound = bound
        out.slices = {marks: r for marks, x in slices.items()
                      if (r := x & mask)}
        out._terms = None
        return out

    # -- construction helpers ------------------------------------------------

    @classmethod
    def tally(cls, trunc, markers, slices):
        """The series of packed slices at the library width of trunc that
        count distinct objects, each coefficient at most pbar(N) (point 5
        of the module docstring)."""
        return cls._packed(trunc, markers, slices, None, _bounds(trunc)[1])

    @classmethod
    def zero(cls, trunc, markers=()):
        return cls(trunc, markers)

    @classmethod
    def one(cls, trunc, markers=()):
        m = (0,) * len(tuple(markers))
        return cls(trunc, markers, {(0, m): 1})

    def is_zero(self):
        return not self.slices

    def same_shape(self, other):
        return self.trunc == other.trunc and self.markers == other.markers

    def _require_shape(self, other):
        if not self.same_shape(other):
            raise ShapeMismatchError(
                f"shape mismatch: (N={self.trunc}, markers={self.markers}) "
                f"vs (N={other.trunc}, markers={other.markers})")

    def _at(self, width):
        """This series repacked at a digit width no smaller than needed."""
        if width == self.width:
            return self
        return Series._packed(
            self.trunc, self.markers,
            {marks: _pack(_unpack(x, self.width, self.trunc), width)
             for marks, x in self.slices.items()}, width, self.bound)

    def _width_for(self, bound, other=None):
        """Width of a result bounded by bound, no narrower than the
        operands."""
        width = _width(bound)
        if _WIDTH is None:
            width = max(width, self.width, other.width if other else 0)
        return width

    # -- ring operations -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.same_shape(other) and \
            first_difference([self, other]) is None

    def __add__(self, other):
        self._require_shape(other)
        bound = self.bound + other.bound
        width = self._width_for(bound, other)
        slices = dict(self._at(width).slices)
        for marks, x in other._at(width).slices.items():
            slices[marks] = slices.get(marks, 0) + x
        return Series._packed(self.trunc, self.markers, slices, width, bound)

    def __neg__(self):
        return Series._packed(self.trunc, self.markers,
                              {marks: -x for marks, x in self.slices.items()},
                              self.width, self.bound)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        trunc = self.trunc
        if isinstance(other, int):
            bound = self.bound * abs(other)
            width = self._width_for(bound)
            return Series._packed(
                trunc, self.markers,
                {marks: x * other
                 for marks, x in self._at(width).slices.items()},
                width, bound)
        self._require_shape(other)
        # a coefficient of the product sums at most min(terms) products
        count = min(sum(_span(x, self.width) for x in self.slices.values()),
                    sum(_span(x, other.width) for x in other.slices.values()))
        bound = self.bound * other.bound * count
        width = self._width_for(bound, other)
        slices = {}
        right = other._at(width).slices.items()
        for m1, x1 in self._at(width).slices.items():
            for m2, x2 in right:
                marks = tuple(a + b for a, b in zip(m1, m2))
                if any(m > trunc for m in marks):
                    continue
                prod = mul_packed(x1, x2, width, trunc)
                if prod:
                    slices[marks] = slices.get(marks, 0) + prod
        return Series._packed(trunc, self.markers, slices, width, bound)

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
        if q_exp < 0 or any(m < 0 for m in marks):
            raise ValueError("negative exponent in divisor")
        if q_exp == 0 and not any(marks):
            raise ValueError("non-unit divisor required (zero exponents)")
        trunc = self.trunc
        # the largest power of the divisor's monomial inside the bounds
        top = trunc // max((q_exp, *marks))
        bound = self.bound * (top + 1)
        width = self._width_for(bound)
        if not any(marks):
            geom = _geometric(q_exp, width, trunc)
            slices = {ms: mul_packed(x, geom, width, trunc)
                      for ms, x in self._at(width).slices.items()}
        else:
            slices = {}
            for ms, x in self._at(width).slices.items():
                for j in range(top + 1):
                    mm = tuple(a + j * b for a, b in zip(ms, marks))
                    if any(m > trunc for m in mm):
                        break
                    slices[mm] = slices.get(mm, 0) + \
                        (x << width * j * q_exp)
        return Series._packed(trunc, self.markers, slices, width, bound)

    # -- queries -------------------------------------------------------------

    def _pairs(self):
        for marks, x in self.slices.items():
            for q, c in _unpack(x, self.width, self.trunc):
                yield (q, marks), c

    @property
    def terms(self):
        """The unpacked view ``{(q, marks): coeff}``, built once."""
        if self._terms is None:
            self._terms = dict(self._pairs())
        return self._terms

    def term_count(self):
        """Number of nonzero terms, counted without unpacking.  Every
        coefficient lies strictly inside +-2^(W-1) (the width bound), so
        adding 2^(W-1) to every digit leaves W-bit lanes with no carry
        between them, and a lane's low W-1 bits are zero exactly when its
        digit is."""
        width = self.width
        mask = (1 << width * (self.trunc + 1)) - 1
        ones = mask // ((1 << width) - 1)       # 1 in every lane
        high = ones << (width - 1)              # the top bit of every lane
        low = high - ones                       # the other bits
        # adding ``low`` to the low bits carries into the top bit of
        # exactly the nonzero lanes
        return sum(((((x + high) & low) + low) & high).bit_count()
                   for x in self.slices.values())

    def coefficient(self, q_exp, marks=None):
        """Coefficient of one term, or the sum over all marks if marks is
        None."""
        if not 0 <= q_exp <= self.trunc:
            return 0
        width = self.width
        slices = self.slices.values() if marks is None \
            else [self.slices.get(tuple(marks), 0)]
        # decode digit q_exp and the one below, which decides the borrow
        # into it; no lower digit matters
        lo = max(q_exp - 1, 0)
        at = q_exp - lo
        keep = (1 << width * (at + 1)) - 1
        return sum(c for x in slices
                   for q, c in _unpack(x >> width * lo & keep, width, at)
                   if q == at)

    def collapse_markers(self):
        """Forget the markers, producing the plain counting series."""
        bound = self.bound * max(len(self.slices), 1)
        width = self._width_for(bound)
        return Series._packed(self.trunc, (),
                              {(): sum(self._at(width).slices.values())},
                              width, bound)

    def sorted_terms(self):
        # without a cached view, unpack straight into the sorted list
        return sorted(self._pairs() if self._terms is None
                      else self._terms.items())

    # -- serialization -------------------------------------------------------

    def to_json_dict(self):
        # every marker exponent is cut at N; "caps" records that
        return {
            "trunc": self.trunc,
            "markers": list(self.markers),
            "caps": [self.trunc] * len(self.markers),
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
        return cls(data["trunc"], tuple(data["markers"]), terms)

    def __repr__(self):
        if not self.slices:
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


def first_difference(series):
    """The least key (q, marks) at which two of the given series differ,
    or None when all agree.  The series must share one shape.  They are
    compared slice by slice at the widest of their digit widths, where the
    lowest set bit of ``a ^ b`` lies in the first digit at which two
    packed slices differ."""
    for s in series[1:]:
        series[0]._require_shape(s)
    width = max(s.width for s in series)
    slices = [s._at(width).slices for s in series]
    first = None
    for marks in set().union(*slices):
        head, *rest = (sl.get(marks, 0) for sl in slices)
        for other in rest:
            diff = head ^ other
            if diff:
                key = (_low_digit(diff, width), marks)
                if first is None or key < first:
                    first = key
    return first


def monomial(q_exp, marks, coeff, trunc, markers=()):
    """A one-term series; terms past the truncation order give zero."""
    return Series(trunc, markers, {(q_exp, tuple(marks)): coeff})


def add_term(total, marks, e, f, g, trunc):
    """Add q^e * f * g to ``total[marks]``, where f and g are polynomials
    packed at the library width of trunc: their product truncated after
    q^(trunc - e), shifted up e digits.  ``total`` holds packed slices
    that ``Series._packed`` reduces."""
    width, _ = packing(trunc)
    prod = mul_packed(f, g, width, trunc - e)
    if prod:
        total[marks] = total.get(marks, 0) + (prod << width * e)


def shift_into(total, slices, e, mark, trunc):
    """Add q^e times the packed marker slices ``slices`` into ``total``,
    each with marker exponent ``mark`` raised by one (None raises none).
    Both hold polynomials packed at the library width of trunc; terms past
    q^trunc are dropped, and a slice with no term left adds nothing.  The
    slices must be nonnegative, as tallies are, so the sums need no
    further reduction."""
    width, mask = packing(trunc)
    shift = width * e
    for marks, x in slices.items():
        x = (x << shift) & mask
        if x:
            if mark is not None:
                marks = marks[:mark] + (marks[mark] + 1,) + marks[mark + 1:]
            total[marks] = total.get(marks, 0) + x


def _wrap(packed, trunc, markers, bound):
    """A library polynomial in q alone as a series with markers."""
    markers = tuple(markers)
    return Series._packed(trunc, markers, {(0,) * len(markers): packed},
                          None, bound)


# -- packed q-machinery ------------------------------------------------------

def gauss_packed(A, B, k, trunc):
    """Packed Gaussian polynomial [A, B]_{q^k}, via the Pascal recurrence
    [a, b] = [a-1, b] + q^{k(a-b)} [a-1, b-1].

    The cells are filled from an explicit stack in the order a recursion
    would visit them, so A is not limited by the interpreter's recursion
    depth.  One cell is one shift and one addition.
    """
    if A < 0 or B < 0 or B > A:
        return 0
    if B == 0 or B == A:
        return 1
    width, mask = packing(trunc)
    cache = _gauss_cache
    if (A, B, k, trunc) in cache:
        return cache[(A, B, k, trunc)]
    stack = [(A, B)]
    while stack:
        a, b = stack[-1]
        if (a, b, k, trunc) in cache:
            stack.pop()
            continue
        # both neighbours satisfy 0 <= b' <= a-1; the edges are 1
        left = 1 if b == a - 1 else cache.get((a - 1, b, k, trunc))
        right = 1 if b == 1 else cache.get((a - 1, b - 1, k, trunc))
        if left is None or right is None:
            if left is None:
                stack.append((a - 1, b))
            if right is None:
                stack.append((a - 1, b - 1))
            continue
        stack.pop()
        shift = k * (a - b)
        if shift <= trunc:
            left = (left + (right << width * shift)) & mask
        cache[(a, b, k, trunc)] = left
    return cache[(A, B, k, trunc)]


def g_packed(k, r, h, s, trunc, need=None):
    """Packed G_{k,r}(h, s) (see ``g_poly``) up to q^need at least (need
    defaults to trunc): the even-i and the odd-i terms are summed apart and
    subtracted once.  Cached at one truncation order with the largest need
    computed so far; a caller that needs less truncates the product it
    forms anyway.  The lemma bodies of ``theorems`` ask for each G first at
    its largest need (their exponent e grows with m, and the assembly runs
    m upwards), so one closed route computes each G once; a later route at
    the same order may recompute one to a higher degree."""
    width, mask = packing(trunc)
    need = trunc if need is None else need
    done, g = _g_cache.get((k, r, h, s), (-1, 0))
    if done >= need:
        return g
    halves = [0, 0]
    for i in range(s + 1):
        shift = r * k * (i * i - i) // 2
        if shift > need:
            break
        row = h - r * i + s - 1
        if row < s - 1:
            break
        prod = mul_packed(gauss_packed(s, i, r * k, trunc),
                          gauss_packed(row, s - 1, k, trunc),
                          width, need - shift)
        halves[i % 2] += prod << width * shift
    g = (halves[0] - halves[1]) & mask
    _g_cache[(k, r, h, s)] = (need, g)
    return g


def inv_pochhammer(k, m, trunc):
    """Packed 1/(q^k; q^k)_m, each one the previous times 1/(1 - q^{km});
    cached per k at one truncation order."""
    width, _ = packing(trunc)
    table = _inv_poch_cache.setdefault(k, [1])
    while len(table) <= m:
        j = len(table)
        prev = table[-1]
        table.append(prev if k * j > trunc else mul_packed(
            prev, _geometric(k * j, width, trunc), width, trunc))
    return table[m]


def pochhammer(k, n, trunc, markers=()):
    """The polynomial (q^k; q^k)_n = prod_{i=1}^{n} (1 - q^{ki}), truncated."""
    if k < 1:
        raise ValueError("k must be positive")
    width, mask = packing(trunc)
    out = 1
    for i in range(1, n + 1):
        if k * i <= trunc:
            out = (out - (out << width * k * i)) & mask
    return _wrap(out, trunc, markers, _bounds(trunc)[0])


def gaussian(A, B, k, trunc, markers=()):
    """The q-binomial coefficient [A, B]_{q^k}; zero unless A >= B >= 0."""
    if k < 1:
        raise ValueError("k must be positive")
    return _wrap(gauss_packed(A, B, k, trunc), trunc, markers,
                 _bounds(trunc)[0])


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
    return _wrap(g_packed(k, r, h, s, trunc), trunc, markers,
                 2 * _bounds(trunc)[1])
