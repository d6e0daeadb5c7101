"""Packed series core: digit width, overflow checks, signed digits, and
the packed operations against a plain-dict reference."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepclass import (ClassSpec, Series, ShapeMismatchError, check_identity,
                      closed_form_gf, compare_routes, g_poly, monomial)
from sepclass import series as series_module

# -- plain-dict reference: {(q, marks): coeff} with zero terms dropped -------


def ref_clean(terms, trunc, caps):
    return {(q, marks): c for (q, marks), c in terms.items()
            if c and q <= trunc and all(m <= cap for m, cap in
                                        zip(marks, caps))}


def ref_add(a, b):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def ref_mul(a, b, trunc, caps):
    out = {}
    for (q1, m1), c1 in a.items():
        for (q2, m2), c2 in b.items():
            key = (q1 + q2, tuple(x + y for x, y in zip(m1, m2)))
            out[key] = out.get(key, 0) + c1 * c2
    return ref_clean(out, trunc, caps)


def ref_div_one_minus(a, e, marks, trunc, caps):
    out = {}
    for (q, ms), c in a.items():
        j = 0
        while True:
            key = (q + j * e, tuple(x + j * y for x, y in zip(ms, marks)))
            if key[0] > trunc or any(m > cap for m, cap in
                                     zip(key[1], caps)):
                break
            out[key] = out.get(key, 0) + c
            j += 1
    return ref_clean(out, trunc, caps)


MARKERS = [(), ("z",), ("mu", "nu")]
coeffs = st.one_of(st.integers(-3, 3), st.integers(-10**15, 10**15))


@st.composite
def series_pair(draw):
    trunc = draw(st.integers(0, 10))
    markers = draw(st.sampled_from(MARKERS))
    key = st.tuples(st.integers(0, trunc + 2),
                    st.tuples(*[st.integers(0, trunc + 1)
                                for _ in markers]))

    def one():
        return draw(st.dictionaries(key, coeffs, max_size=6))
    return trunc, markers, one(), one()


class TestAgainstDictReference:
    @settings(max_examples=150, deadline=None)
    @given(series_pair())
    def test_add_and_mul(self, case):
        trunc, markers, ta, tb = case
        caps = (trunc,) * len(markers)
        a, b = (Series(trunc, markers, t) for t in (ta, tb))
        ra, rb = (ref_clean(t, trunc, caps) for t in (ta, tb))
        assert a.terms == ra
        assert (a + b).terms == ref_add(ra, rb)
        assert (a - b).terms == ref_add(ra, {k: -c for k, c in rb.items()})
        assert (a * b).terms == ref_mul(ra, rb, trunc, caps)
        assert (a * -7).terms == {k: -7 * c for k, c in ra.items()}

    @settings(max_examples=150, deadline=None)
    @given(series_pair(), st.integers(0, 4), st.data())
    def test_div_one_minus(self, case, e, data):
        trunc, markers, ta, _ = case
        caps = (trunc,) * len(markers)
        marks = tuple(data.draw(st.integers(0, 2)) for _ in markers)
        if e == 0 and not any(marks):
            e = 1
        a = Series(trunc, markers, ta)
        want = ref_div_one_minus(ref_clean(ta, trunc, caps), e, marks,
                                 trunc, caps)
        assert a.div_one_minus(e, marks).terms == want
        if not any(marks):          # pure-q: one product per slice
            assert a.div_one_minus(e).terms == want

    @settings(max_examples=150, deadline=None)
    @given(series_pair())
    def test_term_count(self, case):
        trunc, markers, ta, tb = case
        a, b = (Series(trunc, markers, t) for t in (ta, tb))
        for s in (a, a - b, a * b):
            assert s.term_count() == len(s.terms)

    @settings(max_examples=100, deadline=None)
    @given(series_pair())
    def test_first_discrepancy(self, case):
        trunc, markers, ta, tb = case
        a, b = (Series(trunc, markers, t) for t in (ta, tb))
        report = compare_routes({"a": a, "b": b}, {}, trunc)
        keys = sorted(k for k in set(a.terms) | set(b.terms)
                      if a.terms.get(k, 0) != b.terms.get(k, 0))
        if not keys:
            assert report.matched
            return
        q, marks = keys[0]
        assert report.first_discrepancy == {
            "q": q, "marks": list(marks),
            "coeffs": {"a": str(a.terms.get(keys[0], 0)),
                       "b": str(b.terms.get(keys[0], 0))}}


class TestWidth:
    def test_width_follows_the_bound(self):
        # B(N) = 4(N+1)^2 [q^N] P^2 Pbar + 1 needs 36 bits at N=25
        p, pbar, bound = series_module._bounds(25)
        assert (p, pbar) == (1958, 31066)
        assert bound.bit_length() == 36
        assert series_module.packing(25)[0] == 40
        assert Series.one(25).width == 40
        assert closed_form_gf(ClassSpec("Fbar"), 25).width == 40

    def test_signed_digits(self):
        s = monomial(0, (), -1, 6) + monomial(3, (), 2, 6) + \
            monomial(6, (), -(2 ** 38), 6)
        assert s.terms == {(0, ()): -1, (3, ()): 2, (6, ()): -(2 ** 38)}
        assert [s.coefficient(q) for q in range(7)] == \
            [-1, 0, 0, 2, 0, 0, -(2 ** 38)]

    def test_divisor_beyond_truncation(self):
        # 1/(1 - q^e) is 1 below q^e
        s = monomial(2, (), 3, 10)
        assert s.div_one_minus(11) == s
        assert Series.one(10).div_one_minus(10 ** 6) == Series.one(10)

    def test_large_coefficients_widen(self):
        big = Series(10, (), {(q, ()): 10 ** 20 for q in range(11)})
        square = big * big
        assert square.width > big.width
        assert square.terms == {(q, ()): (q + 1) * 10 ** 40
                                for q in range(11)}

    def test_different_widths_compare_by_value(self):
        narrow = monomial(2, (), -1, 10)
        big = monomial(4, (), 2 ** 100, 10)
        wide = narrow + big - big
        assert wide.width > narrow.width
        assert wide == narrow
        assert compare_routes({"n": narrow, "w": wide}, {}, 10).matched
        report = compare_routes({"n": narrow, "w": wide + big}, {}, 10)
        assert report.first_discrepancy == {
            "q": 4, "marks": [], "coeffs": {"n": "0", "w": str(2 ** 100)}}

    def test_different_shapes_refused(self):
        with pytest.raises(ShapeMismatchError):
            compare_routes({"a": Series.one(10), "b": Series.one(11)}, {}, 10)

    def test_fixed_width_refuses_a_route(self, monkeypatch):
        # N=40 needs 46-bit digits; a fixed 16-bit width must not wrap
        monkeypatch.setattr(series_module, "_WIDTH", 16)
        with pytest.raises(OverflowError):
            closed_form_gf(ClassSpec("P", a=1, b=2, k=2, r=1), 40)
        with pytest.raises(OverflowError):
            g_poly(1, 2, 3, 4, 40)

    def test_fixed_width_refuses_arithmetic(self, monkeypatch):
        monkeypatch.setattr(series_module, "_WIDTH", 16)
        small = Series(10, (), {(q, ()): 100 for q in range(11)})
        assert (small * 3).coefficient(10) == 300
        with pytest.raises(OverflowError):
            small * small                   # up to 100 * 100 * 11
        with pytest.raises(OverflowError):
            monomial(0, (), 2 ** 14, 10) + monomial(0, (), 2 ** 14, 10)
        with pytest.raises(OverflowError):
            monomial(0, (), 2 ** 16, 10)

    @pytest.mark.parametrize("width", [48, 64, 136])
    def test_any_sufficient_width_gives_the_same_series(self, monkeypatch,
                                                        width):
        spec = ClassSpec("Rr", a=1, b=2, c=3, k=3, r=2)
        want = closed_form_gf(spec, 40).terms
        monkeypatch.setattr(series_module, "_WIDTH", width)
        got = closed_form_gf(spec, 40)
        assert got.width == width
        assert got.terms == want


class TestNegativeCoefficientIdentities:
    @pytest.mark.parametrize("s", [1, 2, 5, 9, 40])
    def test_cauchy1(self, s):
        assert check_identity("cauchy1", {"s": s}, 40).matched

    def test_cauchy1_has_negative_terms(self):
        lhs = Series.one(40, ("z",))
        for i in range(9):
            lhs = lhs * (Series.one(40, ("z",)) -
                         monomial(i, (1,), 1, 40, ("z",)))
        assert min(lhs.terms.values()) < 0

    @pytest.mark.parametrize("k,r,h,s", [(1, 2, 3, 2), (2, 3, 9, 4),
                                         (1, 2, 12, 11), (3, 4, 40, 12)])
    def test_vanishing(self, k, r, h, s):
        assert check_identity("vanishing",
                              {"k": k, "r": r, "h": h, "s": s}, 40).matched
