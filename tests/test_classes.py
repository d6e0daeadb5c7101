"""Domain objects, membership, enumeration, refined counting series."""

from collections import Counter

import pytest

from conftest import P, op, op_set
from sepclass import (ClassSpec, KindMismatchError, Overpartition, Partition,
                      all_overpartitions, all_partitions, closed_form_gf,
                      enumerate_g, enumerate_members, is_member, load_grid,
                      refined_gf)
from sepclass import objects

GRID_SPECS = load_grid()[1]

KNOWN_P_1221_7 = [
    (7,), (6, 1), (5, 2), (5, 1, 1), (4, 3), (4, 1, 1, 1), (3, 3, 1),
    (3, 2, 1, 1), (3, 1, 1, 1, 1), (2, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 1, 1, 1),
]

KNOWN_PP_1222_7 = [
    (7,), (6, 1), (5, 2), (4, 3), (4, 2, 1), (3, 2, 2), (3, 2, 1, 1),
    (2, 2, 2, 1),
]

KNOWN_RR_23442_12 = [
    (12,), (10, 2), (8, 4), (8, 2, 2), (6, 6), (6, 4, 2), (6, 2, 2, 2),
    (4, 2, 2, 2, 2), (2, 2, 2, 2, 2, 2),
]

KNOWN_R_EXTRAS_12 = [(7, 3, 2), (4, 3, 3, 2), (3, 3, 3, 3), (3, 3, 2, 2, 2)]

KNOWN_FBAR_4 = ["4", "4~", "3,1", "3~,1", "3,1~", "2,2", "2~,2",
                "2,1,1", "2~,1,1", "2,1~,1", "1,1,1,1", "1~,1,1,1"]
KNOWN_LBAR_4 = ["4", "4~", "3,1", "3~,1", "3,1~", "2,2", "2,2~",
                "2,1,1", "2~,1,1", "2,1,1~", "2~,1,1~", "1,1,1,1",
                "1,1,1,1~"]
KNOWN_F2_4 = ["4", "4~", "3~,1", "3,1~", "3~,1~", "2~,2", "2,1~,1",
              "2~,1~,1"]
KNOWN_L2_4 = ["4", "4~", "3~,1", "3,1~", "3~,1~", "2,2~", "2~,1,1~"]


class TestPartition:
    def test_weight(self):
        assert Partition().weight == 0
        assert P(7, 5, 3, 1).weight == 16

    def test_invalid(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((0,))

    def test_residue_count(self):
        assert P(3, 2, 1, 1).residue_count(2, 1) == 3
        assert Partition().residue_count(5, 2) == 0
        assert P(5, 2).residue_count(2, 2) == 1   # d reduced mod k

    def test_json_round_trip(self):
        p = P(7, 5, 3, 1)
        assert Partition.from_json_dict(p.to_json_dict()) == p


class TestOverpartition:
    def test_weight_ignores_overlines(self):
        assert op("4~,3,1~", "first").weight == 8

    def test_canonical_placement_enforced(self):
        op("2,1~,1", "first")
        with pytest.raises(ValueError):
            op("2,1,1~", "first")
        op("2,1,1~", "last")
        with pytest.raises(ValueError):
            op("2,1~,1", "last")

    def test_one_overline_per_magnitude(self):
        with pytest.raises(ValueError):
            Overpartition(((1, True), (1, True)), "first")

    def test_reenumeration_is_canonical(self):
        for n in range(7):
            for o in all_overpartitions(n, "first"):
                assert Overpartition(o.parts, "first") == o
            for o in all_overpartitions(n, "last"):
                assert Overpartition(o.parts, "last") == o

    def test_json_round_trip(self):
        o = op("4~,3,1~", "last")
        assert Overpartition.from_json_dict(o.to_json_dict()) == o


class TestClassSpec:
    def test_validation_eager(self):
        with pytest.raises(ValueError):
            ClassSpec("P", a=2, b=2, k=3, r=1)
        with pytest.raises(ValueError):
            ClassSpec("R", a=1, b=2, c=3, k=2)
        with pytest.raises(ValueError):
            ClassSpec("Fr", r=0)
        with pytest.raises(ValueError):
            ClassSpec("Q")

    def test_rejects_parameters_the_kind_does_not_use(self):
        # a stray parameter would change the label, hence the golden path
        with pytest.raises(ValueError):
            ClassSpec("Fbar", r=3, a=9)
        with pytest.raises(ValueError):
            ClassSpec("R", a=1, b=2, c=3, k=4, r=2)
        with pytest.raises(ValueError):
            ClassSpec("Fr", r=2, k=1)
        assert ClassSpec("Rr", a=1, b=2, c=3, k=4, r=2).label() == \
            "Rr_a1_b2_c3_k4_r2"

    def test_json_round_trip(self):
        spec = ClassSpec("Rr", a=1, b=2, c=3, k=4, r=2)
        assert ClassSpec.from_json_dict(spec.to_json_dict()) == spec


class TestMembership:
    def test_known_examples(self):
        assert is_member(ClassSpec("P", a=1, b=2, k=2, r=1), P(3, 3, 1))
        assert not is_member(ClassSpec("Rr", a=2, b=3, c=4, k=4, r=2),
                             P(3, 3, 2, 2, 2))
        spec = ClassSpec("Lr", r=2)
        assert is_member(spec, op("2~,1,1~", "last"))
        assert not is_member(spec, op("2,1,1", "last"))

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            is_member(ClassSpec("P", a=1, b=2, k=2, r=1), op("1", "first"))
        with pytest.raises(KindMismatchError):
            is_member(ClassSpec("Fbar"), P(3, 1))
        with pytest.raises(KindMismatchError):
            is_member(ClassSpec("Fbar"), op("3,1", "last"))


class TestEnumeration:
    def test_p_known_list_in_order(self):
        got = enumerate_members(ClassSpec("P", a=1, b=2, k=2, r=1), 7)
        assert [g.parts for g in got] == KNOWN_P_1221_7

    def test_pprime_known_list(self):
        got = enumerate_members(ClassSpec("Pprime", a=1, b=2, k=2, r=2), 7)
        assert {g.parts for g in got} == set(KNOWN_PP_1222_7)

    def test_r_known_lists(self):
        rr = enumerate_members(ClassSpec("Rr", a=2, b=3, c=4, k=4, r=2), 12)
        assert {g.parts for g in rr} == set(KNOWN_RR_23442_12)
        r = enumerate_members(ClassSpec("R", a=2, b=3, c=4, k=4), 12)
        assert {g.parts for g in r} == \
            set(KNOWN_RR_23442_12) | set(KNOWN_R_EXTRAS_12)

    def test_overpartition_known_lists(self):
        cases = [
            (ClassSpec("Fbar"), KNOWN_FBAR_4, "first"),
            (ClassSpec("Lbar"), KNOWN_LBAR_4, "last"),
            (ClassSpec("Fr", r=2), KNOWN_F2_4, "first"),
            (ClassSpec("Lr", r=2), KNOWN_L2_4, "last"),
        ]
        for spec, listed, conv in cases:
            assert set(enumerate_members(spec, 4)) == op_set(listed, conv)

    def test_weight_zero(self, sample_specs):
        for spec in sample_specs:
            members = enumerate_members(spec, 0)
            assert len(members) == 1
            assert members[0].weight == 0

    def test_soundness_completeness(self, sample_specs):
        for spec in sample_specs:
            limit = 20 if not spec.is_overpartition_class else 10
            for n in range(limit + 1):
                got = enumerate_members(spec, n)
                assert len(set(got)) == len(got)
                if spec.is_overpartition_class:
                    universe = all_overpartitions(n, spec.convention)
                else:
                    universe = [Partition(p) for p in all_partitions(n)]
                expected = {u for u in universe if is_member(spec, u)}
                assert set(got) == expected

    def test_rr_subset_relations(self):
        r_spec = ClassSpec("R", a=2, b=3, c=4, k=4)
        for n in range(16):
            r_members = set(enumerate_members(r_spec, n))
            for r in (1, 2, 3):
                rr = set(enumerate_members(
                    ClassSpec("Rr", a=2, b=3, c=4, k=4, r=r), n))
                assert rr <= r_members
            # r=1 drops every part congruent to b mod k
            r1 = enumerate_members(ClassSpec("Rr", a=2, b=3, c=4, k=4, r=1),
                                   n)
            assert all(p.residue_count(4, 3) == 0 for p in r1)


class TestEnumerateG:
    def test_examples(self):
        got = enumerate_g(ClassSpec("Gset", d=1, k=1, r=2, h=1, s=2))
        assert {p.parts for p in got} == {(1,), (2,)}
        assert enumerate_g(ClassSpec("Gset", d=1, k=1, r=2, h=3, s=1)) == []
        got = enumerate_g(ClassSpec("Gset", d=2, k=3, r=3, h=0, s=2))
        assert [p.parts for p in got] == [()]

    def test_capacity_bound(self):
        for r in (1, 2, 3):
            for s in (1, 2, 3):
                for h in range((r - 1) * s + 1, (r - 1) * s + 3):
                    spec = ClassSpec("Gset", d=1, k=2, r=r, h=h, s=s)
                    assert enumerate_g(spec) == []


class TestRefinedGf:
    def test_p_small(self):
        series = refined_gf(ClassSpec("P", a=1, b=2, k=2, r=1), 2)
        assert series.terms == {
            (0, (0, 0)): 1, (1, (1, 0)): 1, (2, (2, 0)): 1, (2, (0, 1)): 1}

    def test_fbar_small(self):
        series = refined_gf(ClassSpec("Fbar"), 1)
        assert series.terms == {(0, (0,)): 1, (1, (0,)): 1, (1, (1,)): 1}

    def test_trunc_zero(self, sample_specs):
        for spec in sample_specs:
            assert refined_gf(spec, 0) == Series_one(spec)

    def test_marker_collapse_counts(self, sample_specs):
        for spec in sample_specs[:6]:
            series = refined_gf(spec, 12)
            for n in range(13):
                assert series.coefficient(n) == \
                    len(enumerate_members(spec, n))


    def test_deep_members_need_no_recursion(self):
        # the all-ones member of weight 1100 has 1100 parts, more than the
        # default recursion limit; members are 1003^e 1001^x 3^f 1^y
        spec = ClassSpec("Rr", a=1, b=2, c=3, k=1000, r=1)
        expected = Counter()
        for e in (0, 1):
            for x in (0, 1):
                for f in (0, 1):
                    for y in range(1101):
                        w = 1003 * e + 1001 * x + 3 * f + y
                        if w <= 1100:
                            expected[(w, (x + y, 0, e + f))] += 1
        assert refined_gf(spec, 1100).terms == expected

    def test_gset_tallies_enumerate_g(self):
        spec = ClassSpec("Gset", d=1, k=2, r=3, h=2, s=3)
        series = refined_gf(spec, 6)
        assert series.terms == Counter(
            (p.weight, ()) for p in enumerate_g(spec) if p.weight <= 6)
        assert series.coefficient(6) == len(enumerate_members(spec, 6))


def _filtered_universe(spec, n):
    """Members of weight n by the old route: every partition or
    overpartition of n, filtered by is_member, in the universe's order."""
    if spec.is_overpartition_class:
        universe = all_overpartitions(n, spec.convention)
    else:
        universe = [Partition(p) for p in all_partitions(n)]
    return [u for u in universe if is_member(spec, u)]


@pytest.mark.parametrize("spec", GRID_SPECS, ids=str)
class TestWalkAgainstFilter:
    """The pruned walk against the filtered universe, on every grid spec."""

    def test_refined_gf_equals_filtered_tally(self, spec):
        tally = Counter((n, spec.marker_exponents(u)) for n in range(13)
                        for u in _filtered_universe(spec, n))
        assert refined_gf(spec, 12).terms == tally

    def test_enumerate_members_in_filter_order(self, spec):
        for n in range(11):
            assert enumerate_members(spec, n) == _filtered_universe(spec, n)


@pytest.mark.parametrize("spec", GRID_SPECS, ids=str)
def test_sweep_equals_walk_tally(spec):
    """The oracle's transfer-matrix sweep against a tally of the pruned
    depth-first walk, on every grid spec at N=30."""
    walk = objects._walk(spec, objects._next_parts(spec, 30), 30)
    tally = Counter((weight, marks) for weight, marks, _ in walk)
    assert refined_gf(spec, 30).terms == tally


def test_sweep_reaches_high_order():
    spec = ClassSpec("Fbar")
    assert refined_gf(spec, 200) == closed_form_gf(spec, 200)


def Series_one(spec):
    from sepclass import Series
    return Series.one(0, spec.markers)
