"""Output checks, run after a pass has ended and outside every timed interval.

Outputs are read back from the worker's dump files into plain dicts
``{(q, marks): coefficient}`` and compared with:

- each other: every route of a job must agree term by term;
- the golden corpus: the q <= 25 prefix must equal ``golden/`` (which
  ``sepclass verify --bless``, run from the repo root, regenerates from a
  three-route match); a spec of the built-in grid must have its file;
- ``reference.enumerated_series`` for q <= ENUM_TRUNC;
- ``reference.product_series`` where the spec has a product formula;
- for closed_high, positivity of every coefficient.
"""

import json
from pathlib import Path

import reference

ENUM_TRUNC = 10
GOLDEN_DIR = Path("golden")
SPEC_FIELDS = ("a", "b", "c", "k", "r", "d", "h", "s")


def _from_json_terms(terms):
    """A series from the term list of Series.to_json_dict()."""
    return {(t["q"], tuple(t["marks"])): int(t["coeff"]) for t in terms}


def read_dump(path):
    if path.suffix == ".json":
        return _from_json_terms(json.loads(path.read_bytes())["terms"])
    out = {}
    with open(path) as fh:
        for line in fh:
            q, *marks, coeff = map(int, line.split())
            out[(q, tuple(marks))] = coeff
    return out


def spec_label(spec):
    """The golden corpus directory name of a spec, e.g. P_a1_b2_k2_r1."""
    return "_".join([spec["class"]] + [f"{f}{spec[f]}" for f in SPEC_FIELDS
                                       if f in spec])


def prefix(series, qmax):
    return {key: c for key, c in series.items() if key[0] <= qmax}


def _first_difference(got, want):
    for key in sorted(set(got) | set(want)):
        if got.get(key, 0) != want.get(key, 0):
            return f"q^{key[0]} marks {list(key[1])}: got " \
                   f"{got.get(key, 0)}, expected {want.get(key, 0)}"
    return None


class Checker:
    def __init__(self, grid_specs):
        self.grid_labels = {spec_label(s) for s in grid_specs}
        self.failures = []
        self.counts = {}

    def _expect(self, kind, what, got, want):
        self.counts[kind] = self.counts.get(kind, 0) + 1
        diff = _first_difference(got, want)
        if diff:
            self.failures.append(f"{kind}: {what}: {diff}")

    def golden(self, spec):
        """(trunc, series) from the golden corpus, or None."""
        label = spec_label(spec)
        paths = sorted((GOLDEN_DIR / spec["class"] / label).glob(
            "coeffs_N*.json"))
        if not paths:
            if label in self.grid_labels:
                self.failures.append(f"golden: no file for grid spec {label}")
            return None
        data = json.loads(paths[0].read_text())
        if data["spec"] != spec:
            self.failures.append(f"golden: {paths[0]} holds {data['spec']}")
            return None
        return data["N"], _from_json_terms(data["series"]["terms"])

    def check_job(self, workload, spec, trunc, routes):
        """Check one job's outputs, a dict route -> series dict."""
        label = spec_label(spec)
        names = list(routes)
        for name in names[1:]:
            self._expect("cross-route", f"{label} {name} vs {names[0]}",
                         routes[name], routes[names[0]])
        golden = self.golden(spec)
        enumerated = reference.enumerated_series(spec, ENUM_TRUNC)
        product = reference.product_series(spec, trunc)
        for name, series in routes.items():
            what = f"{label} {name} N={trunc}"
            if golden is not None:
                qmax = min(golden[0], trunc)
                self._expect("golden", what, prefix(series, qmax),
                             prefix(golden[1], qmax))
            self._expect("enumerator", what, prefix(series, ENUM_TRUNC),
                         enumerated)
            if product is not None:
                self._expect("product", what, series, product)
            if workload == "closed_high":
                self.counts["positive"] = self.counts.get("positive", 0) + 1
                bad = [key for key, c in series.items() if c <= 0]
                if bad:
                    self.failures.append(
                        f"positive: {what}: coefficient {series[bad[0]]} "
                        f"at {bad[0]}")
