"""Series ring: construction, arithmetic, q-machinery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepclass import (Series, ShapeMismatchError, check_identity, g_poly,
                      gaussian, gaussian_by_division, monomial, pochhammer)
from sepclass import series as series_module
from sepclass.objects import ClassSpec, enumerate_g


def poly(trunc, **coeffs):
    """Build a marker-free series from {exponent: coeff} kwargs like e0=1."""
    terms = {(int(k[1:]), ()): v for k, v in coeffs.items()}
    return Series(trunc, (), terms)


class TestMonomial:
    def test_identity_element(self):
        assert monomial(0, (), 1, 10) == Series.one(10)

    def test_beyond_truncation_is_zero(self):
        assert monomial(11, (), 5, 10).is_zero()

    def test_marker_term(self):
        s = monomial(3, (2,), -1, 10, ("z",))
        assert s.terms == {(3, (2,)): -1}

    def test_zero_coefficient(self):
        assert monomial(3, (), 0, 10).is_zero()

    def test_marker_cap_truncates(self):
        assert monomial(1, (11,), 1, 10, ("z",)).is_zero()


class TestAddMul:
    def test_add_zero(self):
        one = Series.one(10)
        assert one + Series.zero(10) == one

    def test_add_cancellation(self):
        s = poly(10, e0=1, e1=1) + poly(10, e0=1, e1=-1)
        assert s == poly(10, e0=2)
        t = poly(10, e1=1, e2=1) + poly(10, e1=-1)
        assert t == poly(10, e2=1)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            Series.one(10) + Series.one(11)
        with pytest.raises(ShapeMismatchError):
            Series.one(10) * Series.one(10, ("z",))

    def test_mul_basic(self):
        assert poly(10, e0=1, e1=1) * poly(10, e0=1, e1=-1) == \
            poly(10, e0=1, e2=-1)

    def test_mul_truncates(self):
        assert poly(1, e0=1, e1=1) * poly(1, e0=1, e1=1) == \
            poly(1, e0=1, e1=2)

    def test_marker_cap_truncates_product(self):
        zq = monomial(1, (6,), 1, 10, ("z",))
        assert (zq * zq).is_zero()

    def test_scalar_mul(self):
        assert 3 * poly(5, e1=2) == poly(5, e1=6)


class TestDivOneMinus:
    def test_geometric(self):
        assert Series.one(3).div_one_minus(1) == \
            poly(3, e0=1, e1=1, e2=1, e3=1)

    def test_exact_inverse(self):
        assert poly(5, e0=1, e1=-1).div_one_minus(1) == poly(5, e0=1)

    def test_step_two(self):
        assert Series.one(5).div_one_minus(2) == poly(5, e0=1, e2=1, e4=1)

    def test_unit_divisor_rejected(self):
        with pytest.raises(ValueError):
            Series.one(5).div_one_minus(0)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(1, 0, 10) == Series.one(10)

    def test_two_factors(self):
        # hand multiplication: (1-q)(1-q^2) = 1 - q - q^2 + q^3
        expected = {0: 1, 1: -1, 2: -1, 3: 1}
        got = {}
        for e1, c1 in {0: 1, 1: -1}.items():
            for e2, c2 in {0: 1, 2: -1}.items():
                got[e1 + e2] = got.get(e1 + e2, 0) + c1 * c2
        assert got == expected
        assert pochhammer(1, 2, 10) == Series(
            10, (), {(e, ()): c for e, c in expected.items()})

    def test_single_factor(self):
        assert pochhammer(2, 1, 10) == poly(10, e0=1, e2=-1)


class TestGaussian:
    def test_column_zero(self):
        assert gaussian(5, 0, 1, 10) == Series.one(10)

    def test_out_of_range_is_zero(self):
        assert gaussian(1, 2, 1, 10).is_zero()
        assert gaussian(-1, 0, 1, 10).is_zero()
        assert gaussian(3, -1, 1, 10).is_zero()

    def test_two_choose_one(self):
        assert gaussian(2, 1, 1, 10) == poly(10, e0=1, e1=1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_counts_bounded_partitions(self, k):
        # coefficient of q^n counts partitions with at most B parts, each
        # divisible by k and at most k(A-B)
        A, B, N = 6, 3, 20
        series = gaussian(A, B, k, N)
        for n in range(N + 1):
            count = 0
            for parts in _bounded_partitions(n, B, k * (A - B)):
                if all(p % k == 0 for p in parts):
                    count += 1
            assert series.coefficient(n) == count

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_division_route_agrees(self, k):
        for A in range(0, 8):
            for B in range(-1, A + 2):
                assert gaussian(A, B, k, 15) == \
                    gaussian_by_division(A, B, k, 15)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pascal_recurrence(self, k):
        N = 30
        for A in range(2, 13):
            for B in range(1, A):
                rhs = gaussian(A - 1, B, k, N)
                shift = k * (A - B)
                if shift <= N:
                    rhs = rhs + monomial(shift, (), 1, N) * \
                        gaussian(A - 1, B - 1, k, N)
                assert gaussian(A, B, k, N) == rhs

    def test_long_row_needs_no_recursion(self):
        # one Pascal step per row: 1100 rows exceed the default recursion
        # limit of a recursive fill
        expected = Series(10, (), {(e, ()): 1 for e in range(11)})
        assert gaussian(1100, 1, 1, 10) == expected
        assert check_identity("qbinom-recurrence",
                              {"A": 1100, "B": 1, "k": 1}, 10).matched

    def test_cache_holds_one_truncation_order(self):
        gaussian(12, 5, 1, 20)
        assert {key[3] for key in series_module._gauss_cache} == {20}
        gaussian(12, 5, 1, 21)
        assert {key[3] for key in series_module._gauss_cache} == {21}
        # a repeated order reuses the cache instead of emptying it
        size = len(series_module._gauss_cache)
        gaussian(13, 5, 1, 21)
        assert len(series_module._gauss_cache) > size


def _bounded_partitions(n, max_parts, max_part):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        if max_parts == 0:
            return
        for rest in _bounded_partitions(n - first, max_parts - 1, first):
            yield (first,) + rest


class TestGPoly:
    def test_small_case_vs_enumeration(self):
        # members of the d=1, k=1, r=2, h=1, s=2 bounded set are (1), (2)
        assert g_poly(1, 2, 1, 2, 10) == poly(10, e0=1, e1=1)

    def test_vanishing_beyond_capacity(self):
        assert g_poly(1, 2, 3, 1, 10).is_zero()

    def test_empty_partition_case(self):
        assert g_poly(2, 1, 0, 3, 10) == Series.one(10)

    def test_matches_enumeration_grid(self):
        N = 25
        for k in (1, 2):
            for r in (1, 2, 3):
                for s in (1, 2, 3):
                    for h in range(0, 6):
                        for d in range(1, k + 1):
                            spec = ClassSpec("Gset", d=d, k=k, r=r, h=h, s=s)
                            counts = {}
                            for p in enumerate_g(spec):
                                counts[p.weight] = counts.get(p.weight, 0) + 1
                            series = g_poly(k, r, h, s, N)
                            for n in range(N + 1):
                                want = counts.get(n + h * d, 0) \
                                    if n + h * d <= N else 0
                                if n + h * d <= N:
                                    assert series.coefficient(n) == want


small_series = st.builds(
    lambda terms: Series(8, (),
                         {(q, ()): c for q, c in terms.items()}),
    st.dictionaries(st.integers(0, 8), st.integers(-5, 5), max_size=5))


class TestRingAxioms:
    @settings(max_examples=50, deadline=None)
    @given(small_series, small_series)
    def test_commutative(self, s, t):
        assert s + t == t + s
        assert s * t == t * s

    @settings(max_examples=50, deadline=None)
    @given(small_series, small_series, small_series)
    def test_associative_distributive(self, s, t, u):
        assert (s + t) + u == s + (t + u)
        assert (s * t) * u == s * (t * u)
        assert s * (t + u) == s * t + s * u


class TestSerialization:
    def test_round_trip(self):
        s = monomial(3, (2, 0), -7, 10, ("mu", "nu")) + \
            monomial(0, (0, 0), 1, 10, ("mu", "nu"))
        assert Series.from_json_dict(s.to_json_dict()) == s

    def test_terms_sorted_and_stringly(self):
        s = monomial(2, (), 10**30, 5) + monomial(1, (), -1, 5)
        data = s.to_json_dict()
        assert [t["q"] for t in data["terms"]] == [1, 2]
        assert data["terms"][1]["coeff"] == str(10**30)
