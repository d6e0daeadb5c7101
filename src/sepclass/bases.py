"""Separable bases: enumeration, membership, and the unique
basis-plus-padding decomposition of class members.

Every member with m parts splits uniquely as a basis element of m parts
plus a non-increasing padding sequence (k-divisible for the modulus-k
partition classes, arbitrary nonnegative for the overpartition classes).
``decompose`` finds the split greedily bottom-up in O(m); the exhaustive
search ``brute_force_decompositions`` is the independent oracle that
certifies uniqueness in the tests.

The basis definition is written once as its own step, ``_basis_parts``,
which grows a chain from its smallest part upward and checks each basis
clause as the new part decides it.  Every clause relates adjacent parts,
so every bottom prefix of a basis element is one.  The oracle's two
drivers run it: ``basis_polys`` and ``basis_gf`` count with the
transfer-matrix sweep (``objects._sweep``), whose layer m is B_m, and
``enumerate_basis`` builds objects at m parts only with the depth-first
walk (``objects._walk``).  ``is_basis_member`` is the independent filter
both are tested against, and the walk is the reference the sweep is
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .objects import (FIRST, KindMismatchError, Overpartition,
                      Partition, _sweep, _walk, is_member)
from .series import Series


class NotAMemberError(ValueError):
    """decompose was given an object outside the class."""


class DecompositionFailureError(RuntimeError):
    """No consistent basis assignment found for a class member; this is an
    internal-invariant violation (the separability theorem forbids it)."""


@dataclass(frozen=True)
class Decomposition:
    basis: object               # Partition or Overpartition
    padding: tuple

    def __post_init__(self):
        object.__setattr__(self, "padding", tuple(self.padding))

    def to_json_dict(self):
        return {"basis": self.basis.to_json_dict(),
                "padding": list(self.padding)}


# ---------------------------------------------------------------------------
# basis membership
# ---------------------------------------------------------------------------

def is_basis_member(spec, obj):
    """True iff obj satisfies all clauses of the basis definition."""
    kind = spec.kind
    if kind == "Gset":
        raise KindMismatchError("the auxiliary bounded sets have no basis")
    if spec.is_overpartition_class:
        if not isinstance(obj, Overpartition) or \
                obj.convention != spec.convention:
            raise KindMismatchError(
                f"{kind} basis expects a {spec.convention}-convention "
                "overpartition")
        return _is_over_basis(spec, obj)
    if not isinstance(obj, Partition):
        raise KindMismatchError(f"{kind} basis expects a partition")
    return _is_partition_basis(spec, obj)


def _is_partition_basis(spec, obj):
    kind = spec.kind
    parts = obj.parts
    m = len(parts)
    if m == 0:
        return False
    k = spec.k
    if kind in ("P", "Pprime"):
        a, b, r = spec.a, spec.b, spec.r
        if any(p % k not in (a % k, b % k) for p in parts):
            return False
        if parts[-1] not in (a, b):
            return False
        if any(parts[i] - parts[i + 1] >= k for i in range(m - 1)):
            return False
        # run clause: r consecutive restricted parts force the part above
        # into the other residue class
        bad = (b if kind == "P" else a) % k
        other = (a if kind == "P" else b) % k
        for i in range(m - r):
            if all(parts[i + j] % k == bad for j in range(1, r + 1)):
                if parts[i] % k != other:
                    return False
        return True
    # R / Rr
    a, b, c = spec.a, spec.b, spec.c
    if not is_member(spec, obj):
        return False
    if parts[-1] not in (a, b, c):
        return False
    for i in range(m - 1):
        gap = parts[i] - parts[i + 1]
        if gap > k:
            return False
        if gap == k and parts[i + 1] % k in (a % k, b % k):
            return False
    return True


def _is_over_basis(spec, obj):
    kind = spec.kind
    parts = obj.parts
    m = len(parts)
    if m == 0:
        return False
    if parts[-1][0] != 1:
        return False
    mags = [p[0] for p in parts]
    flags = [p[1] for p in parts]
    for i in range(m - 1):
        if kind in ("Fbar", "Fr"):
            if flags[i + 1]:
                if mags[i] != mags[i + 1] + 1:
                    return False
                if kind == "Fbar" and flags[i]:
                    return False
            else:
                if mags[i] != mags[i + 1]:
                    return False
        else:   # Lbar / Lr: gap rule driven by the upper part's overline
            if flags[i]:
                if mags[i] != mags[i + 1] + 1:
                    return False
                if kind == "Lbar" and flags[i + 1]:
                    return False
            else:
                if mags[i] != mags[i + 1]:
                    return False
    if kind in ("Fr", "Lr"):
        r = spec.r
        # r-1 consecutive non-overlined parts force an overline just above
        for i in range(m - r + 1):
            if all(not flags[i + j] for j in range(1, r)):
                if not flags[i]:
                    return False
    return True


# ---------------------------------------------------------------------------
# basis enumeration
# ---------------------------------------------------------------------------

def _basis_parts(spec):
    """The basis clauses as one bottom-up step of ``objects._walk`` and
    ``objects._sweep``.

    A basis chain grows from its smallest part upward, so ``prev`` is the
    part the new one sits directly above (0 for none yet) and ``room``
    bounds the new part.  Each clause is checked as soon as the new part
    decides it.  Every clause relates adjacent parts, so every bottom
    prefix of a basis element is a basis element.
    """
    kind = spec.kind
    if kind == "Gset":
        raise KindMismatchError("the auxiliary bounded sets have no basis")
    if spec.is_overpartition_class:
        first = spec.convention == FIRST
        bars_apart = kind in ("Fbar", "Lbar")

        def step(prev, prev_over, run, room):
            out = []
            for over in (False, True):
                if not prev:
                    mag = 1                 # the smallest part is 1 or 1~
                elif bars_apart and prev_over and over:
                    continue                # no two adjacent overlines
                elif (prev_over if first else over):
                    # the gap of one sits above the overlined part (first)
                    # or below it (last); otherwise the parts are equal
                    mag = prev + 1
                else:
                    mag = prev
                # Fr/Lr: r-1 plain parts in a row force an overline above;
                # Fbar/Lbar bound no run, so every part leaves run 0 there
                new_run = 0 if over or bars_apart else run + 1
                if mag <= room and (bars_apart or new_run < spec.r):
                    out.append((mag, over, new_run, 0 if over else None))
            return out
        return step

    k = spec.k
    r_like = kind in ("R", "Rr")
    bottom = (spec.a, spec.b, spec.c) if r_like else (spec.a, spec.b)
    mark = {x % k: i for i, x in enumerate(bottom)}
    ra, rc = spec.a % k, (spec.c % k if r_like else None)
    # the residue whose runs are bounded and the longest run allowed: at
    # most r for P/Pprime, fewer than r for Rr; R bounds no run
    if kind == "R":
        restricted, run_cap = None, 0
    else:
        restricted = (spec.a if kind == "Pprime" else spec.b) % k
        run_cap = spec.r - 1 if kind == "Rr" else spec.r

    def step(prev, prev_over, run, room):
        if prev:
            # gap clause: below k, or up to k above a c-part of R/Rr
            top = prev + (k if prev % k == rc else k - 1)
            window = range(prev, min(top, room) + 1)
        else:
            window = [v for v in bottom if v <= room]   # bottom value
        out = []
        for v in window:
            res = v % k
            if res not in mark:
                continue                    # allowed residues
            if r_like:
                if res == rc and v == prev:
                    continue                # c-parts are distinct
                if res == ra and prev and prev % k not in (ra, rc):
                    continue                # below an a-part: an a- or c-part
            new_run = run + 1 if res == restricted else 0
            if new_run <= run_cap:
                out.append((v, False, new_run, mark[res]))
        return out
    return step


def _basis_walk(spec, m, max_weight=None):
    """The walk of the basis chains of up to m parts and weight at most
    max_weight.  The bound defaults to m^2 times the modulus, which loses
    no m-part element: the i-th smallest part is at most i times the
    modulus."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if max_weight is None:
        max_weight = m * m * spec.modulus
    return _walk(spec, _basis_parts(spec), max_weight, m)


def enumerate_basis(spec, m, max_weight=None):
    """The complete basis set with m parts, deterministic decreasing order.

    One walk of the basis chains up to m parts (``_basis_walk``); objects
    are built for the m-part chains only.  ``max_weight`` prunes the walk
    to elements of bounded weight.
    """
    walk = _basis_walk(spec, m, max_weight)
    chains = sorted((chain[::-1] for _, _, chain in walk if len(chain) == m),
                    key=lambda parts: [(-mag, o) for mag, o in parts])
    if spec.is_overpartition_class:
        return [Overpartition(parts, spec.convention) for parts in chains]
    return [Partition(tuple(v for v, _ in parts)) for parts in chains]


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def decompose(spec, obj):
    """Unique split of a class member into basis element plus padding.

    Greedy bottom-up: the smallest basis part is forced, and each step up
    admits exactly one basis value compatible with the gap clause (the
    distinct-c rule breaks the single tie for the R-type classes).
    """
    if not is_member(spec, obj):
        raise NotAMemberError(f"{obj} is not in {spec}")
    if len(obj) == 0:
        raise NotAMemberError("the empty object has no basis decomposition")
    if spec.is_overpartition_class:
        basis, padding = _decompose_over(spec, obj)
    else:
        basis, padding = _decompose_partition(spec, obj)
    dec = Decomposition(basis, padding)
    _check_decomposition(spec, dec, obj)
    return dec


def _decompose_partition(spec, obj):
    k = spec.k
    parts = obj.parts
    m = len(parts)
    c_res = spec.c % k if spec.kind in ("R", "Rr") else None
    base = [0] * m
    bottom = parts[-1]
    # smallest basis part: the least positive value in its residue class
    # among the allowed bottom values
    for v in ([spec.a, spec.b] if c_res is None else
              [spec.a, spec.b, spec.c]):
        if v % k == bottom % k:
            base[m - 1] = v
            break
    else:
        raise DecompositionFailureError(f"no bottom value for {obj}")
    for i in range(m - 2, -1, -1):
        prev = base[i + 1]
        delta = (parts[i] - prev) % k
        if delta == 0 and c_res is not None and prev % k == c_res:
            base[i] = prev + k      # distinct c-parts force the full step
        else:
            base[i] = prev + delta
    return Partition(tuple(base)), tuple(p - b for p, b in zip(parts, base))


def _decompose_over(spec, obj):
    parts = obj.parts
    m = len(parts)
    flags = [o for _, o in parts]
    mags = [mg for mg, _ in parts]
    base = [0] * m
    base[m - 1] = 1
    for i in range(m - 2, -1, -1):
        if spec.convention == FIRST:
            offset = 1 if flags[i + 1] else 0
        else:
            offset = 1 if flags[i] else 0
        base[i] = base[i + 1] + offset
    basis = Overpartition(tuple(zip(base, flags)), spec.convention)
    return basis, tuple(mg - b for mg, b in zip(mags, base))


def _check_decomposition(spec, dec, obj):
    padding = dec.padding
    if any(p < 0 for p in padding) or \
            any(padding[i] < padding[i + 1] for i in range(len(padding) - 1)):
        raise DecompositionFailureError(
            f"padding {padding} not non-increasing for {obj}")
    if not spec.is_overpartition_class and \
            any(p % spec.k for p in padding):
        raise DecompositionFailureError(
            f"padding {padding} not divisible by k={spec.k} for {obj}")
    if not is_basis_member(spec, dec.basis):
        raise DecompositionFailureError(
            f"greedy basis {dec.basis} for {obj} is not a basis element")
    if reconstruct(spec, dec) != obj:
        raise DecompositionFailureError(
            f"reconstruction of {dec} does not give back {obj}")


def reconstruct(spec, dec):
    """Part-wise sum of basis and padding; overlines carry over unchanged."""
    basis, padding = dec.basis, dec.padding
    if len(padding) != len(basis):
        raise ValueError("padding length must equal basis part count")
    if any(p < 0 for p in padding) or \
            any(padding[i] < padding[i + 1] for i in range(len(padding) - 1)):
        raise ValueError(f"padding {padding} must be non-increasing and >= 0")
    if not is_basis_member(spec, basis):
        raise ValueError(f"{basis} is not a basis element of {spec}")
    if spec.is_overpartition_class:
        parts = tuple((mg + p, o)
                      for (mg, o), p in zip(basis.parts, padding))
        obj = Overpartition(parts, spec.convention)
    else:
        if any(p % spec.k for p in padding):
            raise ValueError(
                f"padding {padding} must be divisible by k={spec.k}")
        obj = Partition(tuple(b + p for b, p in zip(basis.parts, padding)))
    if not is_member(spec, obj):
        raise ValueError(f"reconstructed {obj} falls outside {spec}")
    return obj


def brute_force_decompositions(spec, obj, basis_pool=None):
    """All (basis, padding) pairs reconstructing obj, by exhaustive search
    over the basis set.  Independent oracle for the uniqueness claim."""
    m = len(obj)
    if m == 0:
        return []
    if basis_pool is None:
        basis_pool = enumerate_basis(spec, m, max_weight=obj.weight)
    found = []
    if spec.is_overpartition_class:
        mags = obj.magnitudes
        flags = tuple(o for _, o in obj.parts)
        for basis in basis_pool:
            if tuple(o for _, o in basis.parts) != flags:
                continue
            padding = tuple(mg - bg for mg, bg in
                            zip(mags, basis.magnitudes))
            if _padding_ok(padding, 1):
                found.append(Decomposition(basis, padding))
    else:
        for basis in basis_pool:
            padding = tuple(p - b for p, b in zip(obj.parts, basis.parts))
            if _padding_ok(padding, spec.k):
                found.append(Decomposition(basis, padding))
    return found


def _padding_ok(padding, k):
    if any(p < 0 or p % k for p in padding):
        return False
    return all(padding[i] >= padding[i + 1] for i in range(len(padding) - 1))


# ---------------------------------------------------------------------------
# basis generating functions and residue shifts
# ---------------------------------------------------------------------------

def basis_polys(spec, trunc):
    """Every marker-refined basis polynomial B_m, truncated, from one
    sweep of the basis chains: a dict m -> Series over m >= 1, without the
    m that have no element of weight at most trunc."""
    return {m: Series.tally(trunc, spec.markers, layer) for m, layer in
            enumerate(_sweep(spec, _basis_parts(spec), trunc), 1)}


def basis_gf(spec, m, trunc):
    """Marker-refined polynomial over the m-part basis, truncated: layer m
    of a sweep stopped after m layers."""
    if m < 1:
        raise ValueError("m must be >= 1")
    layers = list(_sweep(spec, _basis_parts(spec), trunc, m))
    return Series.tally(trunc, spec.markers,
                        layers[-1] if len(layers) == m else {})


def residue_shift(spec_from, spec_to, p):
    """The weight-shifting bijection between the two P-type bases.

    Maps an element whose smallest part is the larger bottom value b down
    (subtract k-b+a from a-residue parts, b-a from b-residue parts), and an
    element whose smallest part is a up (add b-a to a-residue parts,
    k-b+a to b-residue parts).  Residue classes swap either way.
    """
    kinds = (spec_from.kind, spec_to.kind)
    if set(kinds) != {"P", "Pprime"}:
        raise ValueError("residue shift links the P and Pprime bases")
    if (spec_from.a, spec_from.b, spec_from.k, spec_from.r) != \
            (spec_to.a, spec_to.b, spec_to.k, spec_to.r):
        raise ValueError("residue shift requires matching a, b, k, r")
    if not is_basis_member(spec_from, p):
        raise ValueError(f"{p} is not in the {spec_from.kind} basis")
    a, b, k = spec_from.a, spec_from.b, spec_from.k
    smallest = p.parts[-1]
    if smallest == b:
        shifted = tuple(
            x - (k - b + a) if x % k == a % k else x - (b - a)
            for x in p.parts)
    elif smallest == a:
        shifted = tuple(
            x + (b - a) if x % k == a % k else x + (k - b + a)
            for x in p.parts)
    else:
        raise ValueError(f"smallest part of {p} must be {a} or {b}")
    image = Partition(shifted)
    if not is_basis_member(spec_to, image):
        raise DecompositionFailureError(
            f"shift image {image} missed the {spec_to.kind} basis")
    return image
