"""Regression lock at N=100: the three routes of every grid spec against
golden/digests_N100.json (written by tools/make_digests.py from the
closed route)."""

import hashlib
import json
from pathlib import Path

import pytest

from sepclass import (ClassSpec, basis_driven_gf, closed_form_gf, load_grid,
                      refined_gf)

DIGESTS = Path(__file__).resolve().parents[1] / "golden" / \
    "digests_N100.json"
DATA = json.loads(DIGESTS.read_text())


def digest(series):
    text = json.dumps(series.to_json_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_digests_cover_the_grid():
    _, specs = load_grid()
    assert DATA["N"] == 100
    assert [entry["spec"] for entry in DATA["specs"]] == \
        [spec.to_json_dict() for spec in specs]


@pytest.mark.parametrize("entry", DATA["specs"],
                         ids=[ClassSpec.from_json_dict(e["spec"]).label()
                              for e in DATA["specs"]])
def test_closed_route_matches_digest(entry):
    check(closed_form_gf, entry)


@pytest.mark.parametrize("route", [refined_gf, basis_driven_gf],
                         ids=["oracle", "basis"])
@pytest.mark.parametrize("entry", DATA["specs"],
                         ids=[ClassSpec.from_json_dict(e["spec"]).label()
                              for e in DATA["specs"]])
def test_counting_routes_match_digest(entry, route):
    check(route, entry)


def check(route, entry):
    trunc = DATA["N"]
    series = route(ClassSpec.from_json_dict(entry["spec"]), trunc)
    assert len(series.terms) == entry["terms"]
    assert str(series.coefficient(trunc)) == entry["coeff_qN"]
    assert digest(series) == entry["sha256"]
