"""Regression lock at N=100: the closed route of every grid spec against
golden/digests_N100.json (written by tools/make_digests.py)."""

import hashlib
import json
from pathlib import Path

import pytest

from sepclass import ClassSpec, closed_form_gf, load_grid

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
    trunc = DATA["N"]
    series = closed_form_gf(ClassSpec.from_json_dict(entry["spec"]), trunc)
    assert len(series.terms) == entry["terms"]
    assert str(series.coefficient(trunc)) == entry["coeff_qN"]
    assert digest(series) == entry["sha256"]
