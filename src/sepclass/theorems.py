"""Closed-form generating functions, basis-driven assembly, identity checks,
and three-route coefficient-by-coefficient verification.

Every class admits three series routes:
  oracle  - the members counted straight from the class definition, by
            one transfer-matrix sweep of the class clauses
            (``refined_gf``),
  basis   - the m-part basis polynomials B_m, counted by one sweep of
            the basis chains (``basis_polys``), fed through the
            separability assembly 1 + sum_m B_m / (q^k; q^k)_m,
  closed  - the lemma-level closed forms of B_m (``basis_closed_form``)
            fed through that same assembly.
The basis and closed routes share the assembly; only B_m differs, and the
lemma multi-sums that give it in the closed route share no code with the
basis sweep.  ``verify`` compares all three term by term.

Erratum: the printed closed form for the last-occurrence bounded-run class
carries a stray q^m factor on its overlined terms (the prefactor q^m is
already outside the braces).  The default evaluation follows the
proof-level per-(m, s) formula, which the oracle confirms; the literal
printed form stays available as the ``closed_form_gf`` theorem id
``"Lr-literal"`` and is expected to mismatch.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import partial
from importlib import resources

from .bases import basis_polys
from .objects import ClassSpec, refined_gf
from .series import (Series, add_term, first_difference, g_packed, g_poly,
                     gauss_packed, gaussian, gaussian_by_division,
                     inv_pochhammer, monomial)

# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    subject: object             # ClassSpec or identity descriptor dict
    trunc: int
    routes: tuple
    status: str                 # "match" | "mismatch"
    first_discrepancy: dict | None
    elapsed: float
    # per route: seconds to build its series, and its number of terms
    route_elapsed: dict | None = None
    route_terms: dict | None = None

    @property
    def matched(self):
        return self.status == "match"

    def to_json_dict(self):
        subject = (self.subject.to_json_dict()
                   if isinstance(self.subject, ClassSpec) else self.subject)
        out = {
            "spec": subject,
            "N": self.trunc,
            "routes": list(self.routes),
            "status": self.status,
            "first_discrepancy": self.first_discrepancy,
            "elapsed_ms": round(self.elapsed * 1000, 3),
        }
        if self.route_elapsed is not None:
            out["route_elapsed_ms"] = {
                name: round(s * 1000, 3)
                for name, s in self.route_elapsed.items()}
            out["route_terms"] = dict(self.route_terms)
        return out


def compare_routes(named_series, subject, trunc, started=None,
                   route_elapsed=None):
    """Build a report from named series of one shape; the first
    discrepancy is the lexicographically least (q, marks) key where any
    two routes differ (``series.first_difference``).  ``route_elapsed``
    gives the seconds each route took (``three_routes``); the report then
    also counts the terms of each series.
    """
    names = tuple(named_series)
    series = list(named_series.values())
    disc = first_difference(series)
    if disc is not None:
        q, marks = disc
        disc = {"q": q, "marks": list(marks),
                "coeffs": {name: str(s.coefficient(q, marks))
                           for name, s in zip(names, series)}}
    elapsed = (time.perf_counter() - started) if started else 0.0
    terms = None if route_elapsed is None else \
        {name: s.term_count() for name, s in named_series.items()}
    return VerificationReport(
        subject, trunc, names,
        "match" if disc is None else "mismatch", disc, elapsed,
        route_elapsed, terms)


# ---------------------------------------------------------------------------
# separability assembly
# ---------------------------------------------------------------------------

def _assemble(poly, spec, trunc):
    """1 + sum over m and marks of B_m[marks] / (q^k; q^k)_m, k the modulus.

    ``poly(spec, m, trunc)`` gives B_m as packed marker slices ``{marks:
    int}`` at the library width (see ``series``).  Each slice is multiplied
    once by the packed 1/(q^k; q^k)_m, which ``inv_pochhammer`` caches per
    (k, trunc) as the previous one times 1/(1 - q^{km}); the same code
    serves all eight classes.  The m loop ends at the largest m whose
    minimal basis weight fits under the truncation order (every part of a
    basis element is at least the least admissible bottom value).
    """
    k = spec.modulus
    min_part = 1 if spec.is_overpartition_class else spec.a
    out = {(0,) * len(spec.markers): 1}
    for m in range(1, trunc // min_part + 1):
        inverse = inv_pochhammer(k, m, trunc)
        for marks, b in poly(spec, m, trunc).items():
            add_term(out, marks, 0, b, inverse, trunc)
    return Series._packed(trunc, spec.markers, out)


def basis_driven_gf(spec, trunc):
    """The basis route: every m-part basis polynomial, counted by one
    sweep of the basis chains (``basis_polys``), through the separability
    assembly.  A tally is packed at the library width already: its counts
    are at most pbar(N) (``series`` docstring)."""
    polys = basis_polys(spec, trunc)
    return _assemble(
        lambda spec, m, trunc: polys[m].slices if m in polys else {},
        spec, trunc)


def closed_form_gf(spec, trunc, theorem_id=None):
    """The closed route: the lemma-level basis polynomials
    (``basis_closed_form``) through the separability assembly.

    ``theorem_id`` defaults to the class kind; pass ``"Lr-literal"`` to
    evaluate the printed (uncorrected) last-occurrence bounded-run form.
    """
    if theorem_id is None:
        theorem_id = spec.kind
    if theorem_id not in _THEOREMS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    if theorem_id.split("-")[0] != spec.kind:
        raise ValueError(f"theorem {theorem_id!r} does not apply to "
                         f"{spec.kind}")
    return _assemble(_THEOREMS[theorem_id], spec, trunc)


# ---------------------------------------------------------------------------
# basis polynomials (lemma level)
# ---------------------------------------------------------------------------

def basis_closed_form(formula_id, spec, m, trunc, s=None):
    """Lemma-level basis polynomial for the m-part basis (or its slice).

    Partition-class ids: bp-total, bp-smallest-a, bp-smallest-b,
    bpp-total, bpp-smallest-a, bpp-smallest-b, br-total, brr-total.
    Overpartition ids (per overline count s, summed over s when omitted):
    bf-over, bf-run, bl-over, bl-run.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if formula_id not in _FORMULAS:
        raise ValueError(f"unknown basis formula id {formula_id!r}")
    kind = _FORMULAS[formula_id][0]
    if spec.kind != kind:
        raise ValueError(f"{formula_id} applies to {kind}, not {spec.kind}")
    if s is not None and not spec.is_overpartition_class:
        raise ValueError(f"{formula_id} has no per-s slice")
    return Series._packed(trunc, spec.markers,
                          _closed_slices(formula_id, spec, m, trunc, s))


def _closed_slices(formula_id, spec, m, trunc, s=None):
    fn = _FORMULAS[formula_id][1]
    if not spec.is_overpartition_class:
        return fn(spec, m, trunc)
    if s is not None:
        return fn(spec, m, s, trunc)
    return _over_total(fn, spec, m, trunc)


# The lemma bodies below return B_m (or its per-s slice) as packed marker
# slices {marks: int} at the library width of trunc, each term
# q^e * marks * F * G added by ``series.add_term``; the slices are reduced
# where they become a series.


def _over_total(fn, spec, m, trunc):
    """Sum a per-(m, s) overpartition slice over the overline count s."""
    total = {}
    for s in range(m + 1):
        # no slice has a term below q^(m + (s^2-s)/2)
        if m + (s * s - s) // 2 > trunc:
            break
        total.update(fn(spec, m, s, trunc))     # the marks are (s,)
    return total


def _p_basis(spec, m, trunc, slices):
    """Basis polynomial of P or Pprime as a sum of slices.

    A slice (row, col, cx, cy, cs) is the double sum over s >= 0 and
    0 <= h <= (r-1)s of q^e [x+row, s+col]_{q^k} G_{k,r}(h, s) times the
    marker monomial, with G(0, 0) = 1.  Here x = m-h-s parts lie in the
    free residue class and y = h+s in the run-bounded one (b for P, a for
    Pprime, where the roles of a and b and of the two markers swap), and
    e = x*lo + y*hi + k(s^2 - s + cx*x + cy*y + cs*(s-1)).
    """
    k, r = spec.k, spec.r
    lo, hi = (spec.a, spec.b) if spec.kind == "P" else (spec.b, spec.a)
    total = {}
    for row, col, cx, cy, cs in slices:
        for s in range(m + 1):
            # every exponent of this s is at least k(s-1)^2
            if s and k * (s - 1) ** 2 > trunc:
                break
            for h in range((r - 1) * s + 1):
                x, y = m - h - s, h + s
                if x < 0 or x + row < s + col:
                    break
                e = x * lo + y * hi + \
                    k * (s * s - s + cx * x + cy * y + cs * (s - 1))
                if e > trunc:
                    continue
                marks = (x, y) if spec.kind == "P" else (y, x)
                add_term(total, marks, e,
                         gauss_packed(x + row, s + col, k, trunc),
                         g_packed(k, r, h, s, trunc, trunc - e) if s else 1,
                         trunc)
    return total


def _br_total(spec, m, trunc):
    """Basis polynomial of R and Rr: the double sum over s, h of
    q^e [m-h, s]_{q^k} times [h+s, s]_{q^k} (R) or G_{k,r}(h, s+1) (Rr)."""
    a, b, c, k = spec.a, spec.b, spec.c, spec.k
    total = {}
    for s in range(m + 1):
        for h in range(m - s + 1):
            e = (m - h - s) * a + h * b + s * c + k * (s * s - s) // 2
            if e > trunc:
                break
            left = gauss_packed(h + s, s, k, trunc) if spec.kind == "R" \
                else g_packed(k, spec.r, h, s + 1, trunc, trunc - e)
            add_term(total, (m - h - s, h, s), e, left,
                     gauss_packed(m - h, s, k, trunc), trunc)
    return total


def _bf_over_ms(spec, m, s, trunc):
    total = {}
    e = m + s * s - s
    if e <= trunc:
        add_term(total, (s,), e, 1, gauss_packed(m - s + 1, s, 1, trunc),
                 trunc)
    return total


def _bf_run_ms(spec, m, s, trunc):
    total = {}
    e = m + (s * s - s) // 2
    if e <= trunc:
        add_term(total, (s,), e, 1,
                 g_packed(1, spec.r, m - s, s + 1, trunc, trunc - e), trunc)
    return total


def _bl_over_ms(spec, m, s, trunc):
    total = {}
    for e, col in ((m + (s - 1) ** 2, s - 1), (m + s * s, s)):
        if e <= trunc:
            add_term(total, (s,), e, 1,
                     gauss_packed(m - s, col, 1, trunc), trunc)
    return total


def _bl_run_ms(spec, m, s, trunc, literal=False):
    """``literal`` adds the printed form's stray q^m to the overlined
    terms (see the erratum in the module docstring)."""
    r = spec.r
    total = {}
    if s == 0:
        if m <= r - 1 and m <= trunc:
            add_term(total, (0,), m, 1, 1, trunc)
        return total
    extra = (s * s - s) // 2 + (m if literal else 0)
    # (exponent, h) of the j = 0 term, then of j = 1 .. r-1 (zero for h < 0)
    terms = [(m + extra, m - s)] + \
        [(2 * m - j + extra, m - j - s) for j in range(1, min(r, m - s + 1))]
    for e, h in terms:
        if e <= trunc:
            add_term(total, (s,), e, 1,
                     g_packed(1, r, h, s, trunc, trunc - e), trunc)
    return total


# (row, col, cx, cy, cs) slices of _p_basis; the smallest part of the
# P basis is a in _BP_A and b in _BP_B, whose sum is the single slice of
# bp-total by the q-Pascal rule
_BP_A = (0, 0, 0, 0, 0)
_BP_B = (0, -1, 1, 0, -1)
_BPP_A = (0, -1, 0, 0, -1)
_BPP_B = (0, 0, 0, 1, 0)

# formula id -> (class kind, B_m or its per-s slice)
_FORMULAS = {
    "bp-total": ("P", partial(_p_basis, slices=[(1, 0, 0, 0, 0)])),
    "bp-smallest-a": ("P", partial(_p_basis, slices=[_BP_A])),
    "bp-smallest-b": ("P", partial(_p_basis, slices=[_BP_B])),
    "bpp-total": ("Pprime", partial(_p_basis, slices=[_BPP_A, _BPP_B])),
    "bpp-smallest-a": ("Pprime", partial(_p_basis, slices=[_BPP_A])),
    "bpp-smallest-b": ("Pprime", partial(_p_basis, slices=[_BPP_B])),
    "br-total": ("R", _br_total),
    "brr-total": ("Rr", _br_total),
    "bf-over": ("Fbar", _bf_over_ms),
    "bf-run": ("Fr", _bf_run_ms),
    "bl-over": ("Lbar", _bl_over_ms),
    "bl-run": ("Lr", _bl_run_ms),
}

# theorem id -> the packed B_m its closed form sums
_THEOREMS = {
    kind: partial(_closed_slices, formula_id)
    for formula_id, kind in (
        ("bp-total", "P"), ("bpp-total", "Pprime"), ("br-total", "R"),
        ("brr-total", "Rr"), ("bf-over", "Fbar"), ("bf-run", "Fr"),
        ("bl-over", "Lbar"), ("bl-run", "Lr"))
}
_THEOREMS["Lr-literal"] = partial(
    _over_total, partial(_bl_run_ms, literal=True))


# ---------------------------------------------------------------------------
# identities and verification
# ---------------------------------------------------------------------------

IDENTITY_IDS = ("cauchy1", "cauchy2", "vanishing", "g-vs-enumeration",
                "g-binomial-r2", "g-closed-r2", "qbinom-recurrence",
                "gaussian-division")


def check_identity(identity_id, params, trunc):
    """Compare the two sides of one of the supporting identities."""
    started = time.perf_counter()
    subject = {"identity": identity_id, "params": dict(params)}
    p = dict(params)
    if identity_id == "cauchy1":
        s = p["s"]
        lhs = Series.one(trunc, ("z",))
        for i in range(s):
            factor = Series.one(trunc, ("z",)) - \
                monomial(i, (1,), 1, trunc, ("z",))
            lhs = lhs * factor
        rhs = Series.zero(trunc, ("z",))
        for i in range(s + 1):
            e = (i * i - i) // 2
            if e > trunc:
                break
            sign = -1 if i % 2 else 1
            rhs = rhs + monomial(e, (i,), sign, trunc, ("z",)) * \
                gaussian(s, i, 1, trunc, ("z",))
        sides = {"product": lhs, "sum": rhs}
    elif identity_id == "cauchy2":
        s = p["s"]
        lhs = Series.one(trunc, ("z",))
        for i in range(s):
            lhs = lhs.div_one_minus(i, (1,))
        rhs = Series.zero(trunc, ("z",))
        for i in range(trunc + 1):
            rhs = rhs + monomial(0, (i,), 1, trunc, ("z",)) * \
                gaussian(i + s - 1, s - 1, 1, trunc, ("z",))
        sides = {"product": lhs, "sum": rhs}
    elif identity_id == "vanishing":
        k, r, h, s = p["k"], p["r"], p["h"], p["s"]
        if h <= (r - 1) * s:
            raise ValueError("vanishing requires h > (r-1)s")
        sides = {"sum": g_poly(k, r, h, s, trunc),
                 "zero": Series.zero(trunc)}
    elif identity_id == "g-vs-enumeration":
        d, k, r, h, s = p["d"], p["k"], p["r"], p["h"], p["s"]
        gspec = ClassSpec("Gset", d=d, k=k, r=r, h=h, s=s)
        closed = monomial(h * d, (), 1, trunc) * g_poly(k, r, h, s, trunc)
        sides = {"closed": closed, "enumeration": refined_gf(gspec, trunc)}
    elif identity_id == "g-binomial-r2":
        d, k, h, s = p["d"], p["k"], p["h"], p["s"]
        gspec = ClassSpec("Gset", d=d, k=k, r=2, h=h, s=s)
        e = h * d + k * (h * h - h) // 2
        closed = monomial(e, (), 1, trunc) * gaussian(s, h, k, trunc)
        sides = {"closed": closed, "enumeration": refined_gf(gspec, trunc)}
    elif identity_id == "g-closed-r2":
        k, h, s = p["k"], p["h"], p["s"]
        e = k * (h * h - h) // 2
        rhs = monomial(e, (), 1, trunc) * gaussian(s, h, k, trunc)
        sides = {"sum": g_poly(k, 2, h, s, trunc), "binomial": rhs}
    elif identity_id == "qbinom-recurrence":
        A, B, k = p["A"], p["B"], p["k"]
        lhs = gaussian(A, B, k, trunc)
        rhs = gaussian(A - 1, B, k, trunc) + \
            monomial(k * (A - B), (), 1, trunc) * \
            gaussian(A - 1, B - 1, k, trunc)
        sides = {"binomial": lhs, "recurrence": rhs}
    elif identity_id == "gaussian-division":
        A, B, k = p["A"], p["B"], p["k"]
        sides = {"recurrence": gaussian(A, B, k, trunc),
                 "division": gaussian_by_division(A, B, k, trunc)}
    else:
        raise ValueError(f"unknown identity id {identity_id!r}")
    return compare_routes(sides, subject, trunc, started)


def three_routes(spec, trunc):
    """The series of the three routes, keyed oracle, basis, closed, and
    the seconds each took, under the same keys."""
    routes, elapsed = {}, {}
    for name, route in (("oracle", refined_gf), ("basis", basis_driven_gf),
                        ("closed", closed_form_gf)):
        started = time.perf_counter()
        routes[name] = route(spec, trunc)
        elapsed[name] = time.perf_counter() - started
    return routes, elapsed


def verify(spec, trunc):
    """Three-route check: oracle vs basis-driven vs closed form."""
    started = time.perf_counter()
    routes, elapsed = three_routes(spec, trunc)
    return compare_routes(routes, spec, trunc, started, elapsed)


# ---------------------------------------------------------------------------
# verification grid
# ---------------------------------------------------------------------------

def load_grid(path=None):
    """Load a verification grid: (trunc, list of ClassSpec).

    The default grid ships with the package as a JSON config so CI can
    extend it without touching code.
    """
    if path is None:
        data = json.loads(
            resources.files("sepclass.data")
            .joinpath("verify_grid.json").read_text())
    else:
        with open(path) as fh:
            data = json.load(fh)
    specs = [ClassSpec.from_json_dict(entry) for entry in data["specs"]]
    return data["trunc"], specs
