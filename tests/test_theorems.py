"""Closed forms, basis-driven assembly, supporting identities, verify."""

import pytest

from sepclass import (ClassSpec, Series, VerificationReport,
                      basis_closed_form, basis_driven_gf, basis_gf,
                      check_identity, closed_form_gf, compare_routes,
                      enumerate_basis, load_grid, refined_gf, verify)
from sepclass.theorems import IDENTITY_IDS


class TestClosedForm:
    def test_trunc_zero_is_one(self, sample_specs):
        for spec in sample_specs:
            assert closed_form_gf(spec, 0) == Series.one(0, spec.markers)

    def test_known_counts(self):
        # total mass at q^7 resp. q^4, matching the enumerated class sizes
        s = closed_form_gf(ClassSpec("P", a=1, b=2, k=2, r=1), 8)
        assert s.coefficient(7) == 11
        s = closed_form_gf(ClassSpec("Pprime", a=1, b=2, k=2, r=2), 8)
        assert s.coefficient(7) == 8
        s = closed_form_gf(ClassSpec("Fbar"), 5)
        assert s.coefficient(4) == 12
        s = closed_form_gf(ClassSpec("Lr", r=2), 5)
        assert s.coefficient(4) == 7

    def test_nonnegative_coefficients(self, sample_specs):
        for spec in sample_specs:
            s = closed_form_gf(spec, 15)
            assert all(c >= 0 for c in s.terms.values())

    def test_unknown_theorem_id(self):
        with pytest.raises(ValueError):
            closed_form_gf(ClassSpec("Fbar"), 5, "nope")
        with pytest.raises(ValueError):
            closed_form_gf(ClassSpec("Fbar"), 5, "Lr-literal")

    def test_lr_literal_diverges(self):
        spec = ClassSpec("Lr", r=2)
        oracle = refined_gf(spec, 10)
        literal = closed_form_gf(spec, 10, "Lr-literal")
        corrected = closed_form_gf(spec, 10)
        assert corrected == oracle
        assert literal != oracle
        report = compare_routes(
            {"oracle": oracle, "literal": literal}, spec, 10)
        assert report.status == "mismatch"
        assert report.first_discrepancy["q"] == 1
        assert report.first_discrepancy["marks"] == [1]


class TestBasisClosedForm:
    @pytest.mark.parametrize("fid,spec", [
        ("bp-total", ClassSpec("P", a=1, b=2, k=3, r=2)),
        ("bp-total", ClassSpec("P", a=2, b=3, k=4, r=1)),
        ("bpp-total", ClassSpec("Pprime", a=1, b=2, k=3, r=2)),
        ("bpp-total", ClassSpec("Pprime", a=1, b=3, k=3, r=3)),
        ("br-total", ClassSpec("R", a=1, b=2, c=3, k=4)),
        ("brr-total", ClassSpec("Rr", a=1, b=2, c=3, k=4, r=2)),
        ("bf-over", ClassSpec("Fbar")),
        ("bf-run", ClassSpec("Fr", r=3)),
        ("bl-over", ClassSpec("Lbar")),
        ("bl-run", ClassSpec("Lr", r=3)),
    ])
    def test_totals_match_basis_enumeration(self, fid, spec):
        N = 30
        for m in range(1, 7):
            assert basis_closed_form(fid, spec, m, N) == basis_gf(spec, m, N)

    def test_smallest_part_slices(self):
        spec = ClassSpec("P", a=1, b=2, k=3, r=2)
        N = 30
        for m in range(1, 7):
            whole = basis_closed_form("bp-total", spec, m, N)
            lo = basis_closed_form("bp-smallest-a", spec, m, N)
            hi = basis_closed_form("bp-smallest-b", spec, m, N)
            assert lo + hi == whole
            got_lo = {}
            for p in enumerate_basis(spec, m, max_weight=N):
                if p.parts[-1] == spec.a:
                    got_lo[p.weight] = got_lo.get(p.weight, 0) + 1
            assert {q: c for (q, _), c in lo.collapse_markers().terms.items()} \
                == got_lo

    def test_pprime_slices(self):
        spec = ClassSpec("Pprime", a=1, b=2, k=3, r=2)
        N = 30
        for m in range(1, 7):
            lo = basis_closed_form("bpp-smallest-a", spec, m, N)
            hi = basis_closed_form("bpp-smallest-b", spec, m, N)
            assert lo + hi == basis_closed_form("bpp-total", spec, m, N)

    def test_overline_slices_sum(self):
        spec = ClassSpec("Lbar")
        N = 25
        for m in range(1, 7):
            total = Series.zero(N, spec.markers)
            for s in range(m + 1):
                part = basis_closed_form("bl-over", spec, m, N, s=s)
                # the s slice only carries marker exponent s
                assert all(marks == (s,) for (_, marks) in part.terms)
                total = total + part
            assert total == basis_gf(spec, m, N)

    def test_bf_over_example(self):
        # the single all-plain basis element of m parts weighs m
        spec = ClassSpec("Fbar")
        got = basis_closed_form("bf-over", spec, 4, 10, s=0)
        assert got.terms == {(4, (0,)): 1}

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            basis_closed_form("bp-total", ClassSpec("Fbar"), 2, 10)
        with pytest.raises(ValueError):
            basis_closed_form("bp-total",
                              ClassSpec("P", a=1, b=2, k=2, r=1), 2, 10, s=1)
        with pytest.raises(ValueError):
            basis_closed_form("nope", ClassSpec("Fbar"), 2, 10)
        with pytest.raises(ValueError):
            basis_closed_form("bf-over", ClassSpec("Fbar"), 0, 10)


class TestBasisDriven:
    def test_matches_oracle(self, sample_specs):
        for spec in sample_specs:
            assert basis_driven_gf(spec, 14) == refined_gf(spec, 14)


class TestIdentities:
    def test_cauchy(self):
        for s in range(7):
            assert check_identity("cauchy1", {"s": s}, 20).matched
        for s in range(1, 7):
            assert check_identity("cauchy2", {"s": s}, 20).matched

    def test_vanishing(self):
        for r in (1, 2, 3):
            for s in (1, 2, 3):
                h = (r - 1) * s + 1
                assert check_identity(
                    "vanishing", {"k": 2, "r": r, "h": h, "s": s}, 20).matched
        with pytest.raises(ValueError):
            check_identity("vanishing", {"k": 1, "r": 2, "h": 1, "s": 2}, 10)

    def test_g_vs_enumeration(self):
        for k in (1, 2):
            for r in (2, 3):
                for h in range(4):
                    for s in (1, 2):
                        rep = check_identity(
                            "g-vs-enumeration",
                            {"d": 1, "k": k, "r": r, "h": h, "s": s}, 20)
                        assert rep.matched

    def test_r2_binomial_forms(self):
        for k in (1, 2, 3):
            for h in range(4):
                for s in range(1, 4):
                    assert check_identity(
                        "g-closed-r2", {"k": k, "h": h, "s": s}, 25).matched
                    assert check_identity(
                        "g-binomial-r2",
                        {"d": 1, "k": k, "h": h, "s": s}, 25).matched

    def test_qbinom_and_division(self):
        for A, B in ((5, 2), (8, 4), (3, 1)):
            assert check_identity(
                "qbinom-recurrence", {"A": A, "B": B, "k": 2}, 25).matched
            assert check_identity(
                "gaussian-division", {"A": A, "B": B, "k": 2}, 25).matched

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            check_identity("nope", {}, 5)

    def test_id_registry(self):
        assert len(IDENTITY_IDS) == len(set(IDENTITY_IDS)) == 8


class TestVerify:
    def test_sample_specs_match(self, sample_specs):
        for spec in sample_specs:
            report = verify(spec, 14)
            assert report.matched
            assert report.routes == ("oracle", "basis", "closed")
            assert report.first_discrepancy is None

    def test_report_serialization(self):
        spec = ClassSpec("Fbar")
        report = verify(spec, 8)
        data = report.to_json_dict()
        assert data["status"] == "match"
        assert data["spec"]["class"] == "Fbar"
        assert data["N"] == 8
        assert data["elapsed_ms"] >= 0

    def test_mismatch_report_pinpoints(self):
        a = Series(5, (), {(0, ()): 1, (3, ()): 2})
        b = Series(5, (), {(0, ()): 1, (3, ()): 5})
        report = compare_routes({"left": a, "right": b}, {"x": 1}, 5)
        assert report.status == "mismatch"
        assert report.first_discrepancy == {
            "q": 3, "marks": [],
            "coeffs": {"left": "2", "right": "5"}}
        assert isinstance(report, VerificationReport)


class TestGrid:
    def test_load_default(self):
        trunc, specs = load_grid()
        assert trunc == 25
        assert len(specs) == 44
        assert len(set(s.label() for s in specs)) == 44

    def test_load_path(self, tmp_path):
        import json
        p = tmp_path / "grid.json"
        p.write_text(json.dumps(
            {"trunc": 5, "specs": [{"class": "Fbar"}]}))
        trunc, specs = load_grid(str(p))
        assert trunc == 5
        assert specs == [ClassSpec("Fbar")]
