"""Basis sets, greedy decomposition, uniqueness, residue shifts."""

import functools
import itertools
from collections import Counter

import pytest

from conftest import P, op, op_set
from sepclass import (ClassSpec, KindMismatchError, NotAMemberError,
                      Partition, all_overpartitions, all_partitions,
                      basis_gf, brute_force_decompositions, decompose,
                      enumerate_basis, enumerate_members, is_basis_member,
                      is_member, load_grid, reconstruct, residue_shift)
from sepclass import bases, objects

GRID_SPECS = load_grid()[1]

BP_1232 = [
    (1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1), (4, 2, 1, 1), (4, 2, 2, 1),
    (4, 4, 2, 1), (5, 4, 2, 1), (4, 4, 2, 2), (5, 4, 2, 2), (4, 4, 4, 2),
    (5, 4, 4, 2), (5, 5, 4, 2), (7, 5, 4, 2),
]

BPP_1232 = [
    (2, 2, 1, 1), (4, 2, 1, 1), (2, 2, 2, 1), (4, 2, 2, 1), (4, 4, 2, 1),
    (5, 4, 2, 1), (2, 2, 2, 2), (4, 2, 2, 2), (4, 4, 2, 2), (5, 4, 2, 2),
    (5, 4, 4, 2), (5, 5, 4, 2), (7, 5, 4, 2),
]

BRR_12342 = [
    (1, 1, 1), (2, 1, 1), (3, 1, 1), (3, 2, 1), (5, 3, 1), (6, 3, 1),
    (7, 3, 1), (5, 3, 2), (6, 3, 2), (7, 3, 2), (5, 5, 3), (6, 5, 3),
    (7, 5, 3), (7, 6, 3), (9, 7, 3), (10, 7, 3), (11, 7, 3),
]

BR_1234_EXTRAS = [(2, 2, 1), (2, 2, 2), (3, 2, 2), (6, 6, 3)]

BFBAR_4 = ["1,1,1,1", "1~,1,1,1", "2,1~,1,1", "2,2,1~,1", "2~,2,1~,1",
           "2,2,2,1~", "2~,2,2,1~", "3,2~,2,1~"]

BF3_4 = ["2,1~,1,1", "2~,1~,1,1", "2,2,1~,1", "2~,2,1~,1", "3,2~,1~,1",
         "3~,2~,1~,1", "2~,2,2,1~", "3,2~,2,1~", "3~,2~,2,1~", "3,3,2~,1~",
         "3~,3,2~,1~", "4,3~,2~,1~", "4~,3~,2~,1~"]

BLBAR_4 = ["1,1,1,1", "2~,1,1,1", "2,2~,1,1", "2,2,2~,1", "3~,2,2~,1",
           "1,1,1,1~", "2~,1,1,1~", "2,2~,1,1~"]

BL3_4 = ["2,2~,1,1", "3~,2~,1,1", "2,2,2~,1", "3~,2,2~,1", "3,3~,2~,1",
         "4~,3~,2~,1", "2~,1,1,1~", "2,2~,1,1~", "3~,2~,1,1~",
         "2,2,2~,1~", "3~,2,2~,1~", "3,3~,2~,1~", "4~,3~,2~,1~"]

P_SPEC = ClassSpec("P", a=1, b=2, k=3, r=2)
PP_SPEC = ClassSpec("Pprime", a=1, b=2, k=3, r=2)
RR_SPEC = ClassSpec("Rr", a=1, b=2, c=3, k=4, r=2)
R_SPEC = ClassSpec("R", a=1, b=2, c=3, k=4)


class TestBasisSets:
    def test_p_basis_exact(self):
        got = enumerate_basis(P_SPEC, 4)
        assert {p.parts for p in got} == set(BP_1232)

    def test_pprime_basis_exact(self):
        got = enumerate_basis(PP_SPEC, 4)
        assert {p.parts for p in got} == set(BPP_1232)

    def test_rr_basis_exact(self):
        got = enumerate_basis(RR_SPEC, 3)
        assert {p.parts for p in got} == set(BRR_12342)

    def test_r_basis_exact(self):
        got = enumerate_basis(R_SPEC, 3)
        assert {p.parts for p in got} == set(BRR_12342) | set(BR_1234_EXTRAS)

    @pytest.mark.parametrize("spec,listed,conv", [
        (ClassSpec("Fbar"), BFBAR_4, "first"),
        (ClassSpec("Fr", r=3), BF3_4, "first"),
        (ClassSpec("Lbar"), BLBAR_4, "last"),
        (ClassSpec("Lr", r=3), BL3_4, "last"),
    ])
    def test_overpartition_bases_exact(self, spec, listed, conv):
        assert set(enumerate_basis(spec, 4)) == op_set(listed, conv)

    def test_ordering_deterministic(self):
        got = enumerate_basis(P_SPEC, 4)
        keys = [tuple(-x for x in p.parts) for p in got]
        assert keys == sorted(keys)

    def test_max_weight_prunes_consistently(self):
        full = enumerate_basis(P_SPEC, 4)
        bounded = enumerate_basis(P_SPEC, 4, max_weight=12)
        assert bounded == [p for p in full if p.weight <= 12]

    def test_basis_inside_class(self, sample_specs):
        for spec in sample_specs:
            for m in (1, 2, 3, 4):
                for obj in enumerate_basis(spec, m):
                    assert is_member(spec, obj)
                    assert is_basis_member(spec, obj)


class TestIsBasisMember:
    def test_rejects_nonmembers(self):
        assert not is_basis_member(P_SPEC, P(7, 1))        # gap >= k
        assert not is_basis_member(P_SPEC, P(4, 3))        # bottom not a or b
        assert not is_basis_member(RR_SPEC, P(7, 3, 3))    # repeated c-part
        assert not is_basis_member(ClassSpec("Fbar"),
                                   op("2,1", "first"))     # gap without flag

    def test_kind_guard(self):
        with pytest.raises(KindMismatchError):
            is_basis_member(ClassSpec("Fbar"), P(1, 1))
        with pytest.raises(KindMismatchError):
            is_basis_member(ClassSpec("Gset", d=1, k=1, r=2, h=1, s=1), P(1))


class TestDecompose:
    def test_worked_example(self):
        dec = decompose(ClassSpec("P", a=1, b=2, k=2, r=1), P(5, 2))
        assert dec.basis.parts == (3, 2)
        assert dec.padding == (2, 0)

    def test_overpartition_example(self):
        dec = decompose(ClassSpec("Fbar"), op("3~,1", "first"))
        assert dec.basis == op("1~,1", "first")
        assert dec.padding == (2, 0)

    def test_rejects_nonmember(self):
        with pytest.raises(NotAMemberError):
            decompose(ClassSpec("P", a=1, b=2, k=2, r=1), P(2, 2))

    def test_round_trip(self, sample_specs):
        for spec in sample_specs:
            for n in range(1, 13):
                for obj in enumerate_members(spec, n):
                    dec = decompose(spec, obj)
                    assert reconstruct(spec, dec) == obj

    def test_uniqueness_small(self, sample_specs):
        for spec in sample_specs[:8]:
            for n in range(1, 13):
                for obj in enumerate_members(spec, n):
                    found = brute_force_decompositions(spec, obj)
                    assert len(found) == 1
                    assert found[0] == decompose(spec, obj)

    def test_uniqueness_overpartitions(self):
        for spec in (ClassSpec("Fbar"), ClassSpec("Lbar"),
                     ClassSpec("Fr", r=2), ClassSpec("Lr", r=3)):
            for n in range(1, 10):
                for obj in enumerate_members(spec, n):
                    found = brute_force_decompositions(spec, obj)
                    assert len(found) == 1
                    assert found[0] == decompose(spec, obj)


class TestReconstruct:
    def test_rejects_bad_padding(self):
        dec = decompose(P_SPEC, P(4, 2, 1, 1))
        from sepclass import Decomposition
        with pytest.raises(ValueError):
            reconstruct(P_SPEC, Decomposition(dec.basis, (0, 3, 0, 0)))
        with pytest.raises(ValueError):
            reconstruct(P_SPEC, Decomposition(dec.basis, (1, 0, 0, 0)))
        with pytest.raises(ValueError):
            reconstruct(P_SPEC, Decomposition(dec.basis, (0, 0)))

    def test_rejects_non_basis(self):
        from sepclass import Decomposition
        with pytest.raises(ValueError):
            reconstruct(P_SPEC, Decomposition(P(7, 1), (0, 0)))

    def test_closure(self, sample_specs):
        # every basis element plus valid padding lands back in the class
        for spec in sample_specs:
            step = 1 if spec.is_overpartition_class else spec.modulus
            for m in (1, 2, 3):
                for basis in enumerate_basis(spec, m, max_weight=3 * m + 6):
                    pads = [tuple(sorted(c, reverse=True)) for c in
                            itertools.combinations_with_replacement(
                                (0, step, 2 * step), m)]
                    for pad in set(pads):
                        from sepclass import Decomposition
                        obj = reconstruct(spec, Decomposition(basis, pad))
                        assert is_member(spec, obj)


class TestResidueShift:
    def test_round_trip_and_cardinality(self):
        for m in (1, 2, 3, 4, 5):
            from_b = [p for p in enumerate_basis(P_SPEC, m)
                      if p.parts[-1] == P_SPEC.b]
            to_a = [p for p in enumerate_basis(PP_SPEC, m)
                    if p.parts[-1] == PP_SPEC.a]
            assert len(from_b) == len(to_a)
            images = set()
            for p in from_b:
                img = residue_shift(P_SPEC, PP_SPEC, p)
                assert residue_shift(PP_SPEC, P_SPEC, img) == p
                images.add(img)
            assert images == set(to_a)

    def test_weight_shift_is_constant(self):
        for m in (2, 3, 4):
            for p in enumerate_basis(P_SPEC, m):
                if p.parts[-1] != P_SPEC.b:
                    continue
                img = residue_shift(P_SPEC, PP_SPEC, p)
                na = p.residue_count(P_SPEC.k, P_SPEC.a)
                nb = m - na
                drop = na * (P_SPEC.k - P_SPEC.b + P_SPEC.a) + \
                    nb * (P_SPEC.b - P_SPEC.a)
                assert p.weight - img.weight == drop

    def test_rejects_mismatched_specs(self):
        with pytest.raises(ValueError):
            residue_shift(P_SPEC, P_SPEC, P(2, 2))
        other = ClassSpec("Pprime", a=1, b=2, k=3, r=3)
        with pytest.raises(ValueError):
            residue_shift(P_SPEC, other, P(2, 2))

    def test_stratification_covers_basis(self):
        # smallest part is always a or b, so the two strata partition BP(m)
        for spec in (P_SPEC, PP_SPEC):
            for m in (1, 2, 3, 4):
                basis = enumerate_basis(spec, m)
                strata = {spec.a: 0, spec.b: 0}
                for p in basis:
                    strata[p.parts[-1]] += 1
                assert sum(strata.values()) == len(basis)


class TestLastConventionShiftBijection:
    def test_append_overlined_one(self):
        # dropping a bottom overlined 1 maps the smallest-part-overlined
        # stratum with s+1 overlines onto the smallest-part-plain stratum
        # with s overlines, one level down
        for spec in (ClassSpec("Lbar"), ClassSpec("Lr", r=2),
                     ClassSpec("Lr", r=3)):
            for m in range(1, 8):
                lower = enumerate_basis(spec, m)
                upper = enumerate_basis(spec, m + 1)
                plain_bottom = [o for o in lower if not o.parts[-1][1]]
                over_bottom = [o for o in upper if o.parts[-1][1]
                               and o.parts[-2] == (1, False)]
                lifted = set()
                from sepclass import Overpartition
                for o in plain_bottom:
                    lifted.add(Overpartition(o.parts + ((1, True),),
                                             spec.convention))
                assert lifted == set(over_bottom)


@functools.lru_cache(maxsize=None)
def _universe(convention, max_weight):
    """Every partition (convention None) or overpartition of weight at
    most max_weight."""
    if convention is None:
        return [Partition(p) for n in range(max_weight + 1)
                for p in all_partitions(n)]
    return [o for n in range(max_weight + 1)
            for o in all_overpartitions(n, convention)]


def _filtered_basis(spec, m, max_weight):
    """The m-part basis elements of weight <= max_weight by the filter
    route: the universe kept by is_basis_member, in enumerate_basis's
    decreasing order."""
    found = [u for u in _universe(spec.convention, max_weight)
             if len(u) == m and is_basis_member(spec, u)]
    if spec.is_overpartition_class:
        return sorted(found, key=lambda o: tuple((-g, v) for g, v in o.parts))
    return sorted(found, key=lambda p: tuple(-x for x in p.parts))


@pytest.mark.parametrize("spec", GRID_SPECS, ids=str)
class TestBasisWalkAgainstFilter:
    """The bottom-up basis walk against the is_basis_member filter of the
    whole universe, on every grid spec."""

    def test_enumerate_basis_in_filter_order(self, spec):
        for m in range(1, 13):
            assert enumerate_basis(spec, m, max_weight=12) == \
                _filtered_basis(spec, m, 12)

    def test_basis_gf_equals_filtered_tally(self, spec):
        for m in range(1, 13):
            tally = Counter((u.weight, spec.marker_exponents(u))
                            for u in _filtered_basis(spec, m, 12))
            assert basis_gf(spec, m, 12).terms == tally


@pytest.mark.parametrize("spec", GRID_SPECS, ids=str)
class TestBasisSweepAgainstWalk:
    """The basis sweep against a tally of the depth-first basis walk, on
    every grid spec at N=25."""

    @staticmethod
    def walk_tally(spec, trunc, parts=None):
        """{m: {(weight, marks): count}} of the basis chains."""
        walk = objects._walk(spec, bases._basis_parts(spec), trunc, parts)
        by_m = {}
        for weight, marks, chain in walk:
            if chain:
                by_m.setdefault(len(chain), Counter())[weight, marks] += 1
        return by_m

    def test_basis_polys_equal_walk_tally(self, spec):
        polys = bases.basis_polys(spec, 25)
        assert {m: poly.terms for m, poly in polys.items()} == \
            self.walk_tally(spec, 25)

    def test_basis_gf_equals_walk_tally(self, spec):
        for m in range(1, 7):
            assert basis_gf(spec, m, 25).terms == \
                self.walk_tally(spec, 25, m).get(m, {})
