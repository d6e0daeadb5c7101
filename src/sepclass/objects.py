"""Partitions, overpartitions, class parameter records, membership tests,
exhaustive enumeration and the oracle refined generating functions.

Eight restricted classes are supported (four on partitions, four on
overpartitions) plus the auxiliary bounded-multiplicity sets used by the
closed-form machinery.

The oracle reads only the class definitions, written once as the step
``_next_parts``: the parts that may follow a non-increasing part sequence,
given its last part, that part's overline and its trailing restricted
run.  Every class clause constrains adjacent parts only, so every prefix
of a member is a member.  Two drivers run the step:

- ``refined_gf`` counts with ``_sweep``, a transfer-matrix sweep layer by
  layer in the part count: the members that end in the same (part,
  overline, run) state have the same futures, so each state carries one
  packed tally and moves as a whole.  Its cost grows with the number of
  states, not of members.
- ``enumerate_members`` builds objects with ``_walk``, a pruned
  depth-first walk that visits every member of weight at most N once.

``is_member`` with ``all_partitions``/``all_overpartitions`` is the
independent filter both are tested against, and the walk is the
reference the sweep is tested against.

Terminology note: the run restrictions are deliberately asymmetric and are
implemented exactly as defined per class.  P/Pprime forbid r+1 consecutive
parts in the restricted residue class (r consecutive are allowed), while
Rr, Fr and Lr forbid r consecutive parts of the restricted sort.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

from .series import Series, shift_into

FIRST = "first"
LAST = "last"

PARTITION_KINDS = ("P", "Pprime", "R", "Rr", "Gset")
OVERPARTITION_KINDS = ("Fbar", "Lbar", "Fr", "Lr")

PARAM_NAMES = ("a", "b", "c", "k", "r", "d", "h", "s")
# the parameters each kind takes; all of them are required, no other is
KIND_PARAMS = {
    "P": ("a", "b", "k", "r"), "Pprime": ("a", "b", "k", "r"),
    "R": ("a", "b", "c", "k"), "Rr": ("a", "b", "c", "k", "r"),
    "Fbar": (), "Lbar": (), "Fr": ("r",), "Lr": ("r",),
    "Gset": ("d", "k", "r", "h", "s"),
}


class KindMismatchError(TypeError):
    """Object kind (partition vs overpartition/convention) does not match
    the class spec."""


@dataclass(frozen=True)
class Partition:
    """A finite non-increasing sequence of positive integers."""

    parts: tuple = ()

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"parts must be positive, got {p}")
            if i and parts[i - 1] < p:
                raise ValueError("parts must be non-increasing")

    @property
    def weight(self):
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def residue_count(self, k, d):
        """Number of parts congruent to d modulo k."""
        return sum(1 for p in self.parts if p % k == d % k)

    def to_json_dict(self):
        return {"parts": list(self.parts)}

    @classmethod
    def from_json_dict(cls, data):
        return cls(tuple(data["parts"]))

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Overpartition:
    """Non-increasing magnitudes with at most one overlined part per distinct
    magnitude.  The overlined occurrence sits first (``first`` convention) or
    last (``last`` convention) among equal magnitudes; the constructor
    enforces this canonical placement."""

    parts: tuple = ()          # tuple of (magnitude, overlined)
    convention: str = FIRST

    def __post_init__(self):
        if self.convention not in (FIRST, LAST):
            raise ValueError(f"unknown convention {self.convention!r}")
        parts = tuple((int(m), bool(o)) for m, o in self.parts)
        object.__setattr__(self, "parts", parts)
        for i, (m, _) in enumerate(parts):
            if m < 1:
                raise ValueError("magnitudes must be positive")
            if i and parts[i - 1][0] < m:
                raise ValueError("magnitudes must be non-increasing")
        # canonical overline placement within each run of equal magnitudes
        i = 0
        while i < len(parts):
            j = i
            while j < len(parts) and parts[j][0] == parts[i][0]:
                j += 1
            flags = [o for _, o in parts[i:j]]
            if sum(flags) > 1:
                raise ValueError("at most one overline per distinct magnitude")
            if sum(flags) == 1:
                pos = flags.index(True)
                want = 0 if self.convention == FIRST else len(flags) - 1
                if pos != want:
                    raise ValueError(
                        f"overline must sit at the {self.convention} "
                        f"occurrence of magnitude {parts[i][0]}")
            i = j

    @property
    def weight(self):
        return sum(m for m, _ in self.parts)

    def __len__(self):
        return len(self.parts)

    @property
    def overline_count(self):
        return sum(1 for _, o in self.parts if o)

    @property
    def magnitudes(self):
        return tuple(m for m, _ in self.parts)

    def to_json_dict(self):
        return {"convention": self.convention,
                "parts": [{"m": m, "over": o} for m, o in self.parts]}

    @classmethod
    def from_json_dict(cls, data):
        return cls(tuple((p["m"], p["over"]) for p in data["parts"]),
                   data["convention"])

    def __str__(self):
        def fmt(m, o):
            return f"{m}~" if o else str(m)
        return "(" + ",".join(fmt(m, o) for m, o in self.parts) + ")"


@dataclass(frozen=True)
class ClassSpec:
    """Parameter record selecting one class (or an auxiliary bounded set).

    kind: P, Pprime, R, Rr, Fbar, Lbar, Fr, Lr or Gset.
    Validation is eager; invalid parameter combinations are rejected here.
    """

    kind: str
    a: int | None = None
    b: int | None = None
    c: int | None = None
    k: int | None = None
    r: int | None = None
    d: int | None = None
    h: int | None = None
    s: int | None = None

    def __post_init__(self):
        kind = self.kind
        if kind not in KIND_PARAMS:
            raise ValueError(f"unknown class kind {kind!r}")
        names = KIND_PARAMS[kind]
        stray = [n for n in PARAM_NAMES
                 if n not in names and getattr(self, n) is not None]
        if stray:
            raise ValueError(f"{kind} takes no parameter {', '.join(stray)}")
        if any(getattr(self, n) is None for n in names):
            raise ValueError(f"{kind} requires {', '.join(names)}")
        if "r" in names and self.r < 1:
            raise ValueError(f"{kind} requires r >= 1")
        if kind in ("P", "Pprime"):
            if not (self.k >= self.b > self.a >= 1):
                raise ValueError(f"{kind} requires k >= b > a >= 1")
        elif kind in ("R", "Rr"):
            if not (self.k >= self.c > self.b > self.a >= 1):
                raise ValueError(f"{kind} requires k >= c > b > a >= 1")
        elif kind == "Gset":
            if not (self.k >= self.d >= 1):
                raise ValueError("Gset requires k >= d >= 1")
            if self.s < 1 or self.h < 0:
                raise ValueError("Gset requires s >= 1, h >= 0")

    # -- derived attributes --------------------------------------------------

    @property
    def is_overpartition_class(self):
        return self.kind in OVERPARTITION_KINDS

    @property
    def convention(self):
        if self.kind in ("Fbar", "Fr"):
            return FIRST
        if self.kind in ("Lbar", "Lr"):
            return LAST
        return None

    @property
    def modulus(self):
        """Padding modulus of the separable class (1 for overpartitions)."""
        return 1 if self.is_overpartition_class else self.k

    @property
    def markers(self):
        """Marker variable names of the refined generating function."""
        if self.kind in ("P", "Pprime"):
            return ("mu", "nu")
        if self.kind in ("R", "Rr"):
            return ("mu", "nu", "om")
        if self.is_overpartition_class:
            return ("z",)
        return ()

    def marker_exponents(self, obj):
        """Marker exponent tuple recorded for one class member."""
        if self.kind in ("P", "Pprime"):
            return (obj.residue_count(self.k, self.a),
                    obj.residue_count(self.k, self.b))
        if self.kind in ("R", "Rr"):
            return (obj.residue_count(self.k, self.a),
                    obj.residue_count(self.k, self.b),
                    obj.residue_count(self.k, self.c))
        if self.is_overpartition_class:
            return (obj.overline_count,)
        return ()

    def to_json_dict(self):
        out = {"class": self.kind}
        for name in PARAM_NAMES:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    @classmethod
    def from_json_dict(cls, data):
        data = dict(data)
        kind = data.pop("class", None) or data.pop("kind")
        return cls(kind, **data)

    def label(self):
        """Short stable identifier, used for golden-file paths."""
        bits = [self.kind]
        for name in PARAM_NAMES:
            value = getattr(self, name)
            if value is not None:
                bits.append(f"{name}{value}")
        return "_".join(bits)

    def __str__(self):
        return self.label()


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def _check_kind(spec, obj):
    if spec.is_overpartition_class:
        if not isinstance(obj, Overpartition):
            raise KindMismatchError(f"{spec.kind} expects an overpartition")
        if obj.convention != spec.convention:
            raise KindMismatchError(
                f"{spec.kind} expects the {spec.convention}-occurrence "
                f"convention, got {obj.convention}")
    else:
        if not isinstance(obj, Partition):
            raise KindMismatchError(f"{spec.kind} expects a partition")


def _max_run(flags):
    best = run = 0
    for f in flags:
        run = run + 1 if f else 0
        best = max(best, run)
    return best


def is_member(spec, obj):
    """True iff obj satisfies every clause of the class definition."""
    _check_kind(spec, obj)
    kind = spec.kind
    if kind in ("P", "Pprime"):
        a, b, k, r = spec.a, spec.b, spec.k, spec.r
        parts = obj.parts
        if any(p % k not in (a % k, b % k) for p in parts):
            return False
        bad = a if kind == "Pprime" else b
        return _max_run([p % k == bad % k for p in parts]) <= r
    if kind in ("R", "Rr"):
        a, b, c, k = spec.a, spec.b, spec.c, spec.k
        parts = obj.parts
        res = [p % k for p in parts]
        if any(x not in (a % k, b % k, c % k) for x in res):
            return False
        for i in range(len(parts) - 1):
            if res[i] == c % k and parts[i] == parts[i + 1]:
                return False        # c-parts must be distinct
            if res[i] == a % k and res[i + 1] not in (a % k, c % k):
                return False
        if kind == "Rr":
            if _max_run([x == b % k for x in res]) >= spec.r:
                return False
        return True
    if kind == "Gset":
        d, k, r, h, s = spec.d, spec.k, spec.r, spec.h, spec.s
        parts = obj.parts
        if len(parts) != h:
            return False
        if any(p % k != d % k or p > k * (s - 1) + d for p in parts):
            return False
        for i in range(len(parts)):
            if i >= r - 1 and parts[i - (r - 1)] == parts[i]:
                return False        # multiplicity at most r-1
        return True
    # overpartition classes
    flags = [o for _, o in obj.parts]
    if kind in ("Fbar", "Lbar"):
        return all(not (flags[i] and flags[i + 1])
                   for i in range(len(flags) - 1))
    # Fr / Lr: no r consecutive non-overlined parts
    return _max_run([not f for f in flags]) < spec.r


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _next_parts(spec, cap):
    """The class clauses as one step of the walk and the sweep.

    Returns the ``step(prev, prev_over, run, room)`` of ``_walk`` and
    ``_sweep``: the parts that may follow a member whose last part is
    ``prev`` (0 for the empty member), of magnitude at most ``room`` and
    never above ``prev``.
    Entries come in walk order: larger magnitudes first, and for
    overpartitions the plain copy of a magnitude before the overlined one,
    so among members of one weight the walk's pre-order is the decreasing
    order of ``enumerate_members``.
    """
    kind = spec.kind
    if spec.is_overpartition_class:
        first = spec.convention == FIRST
        bars_apart = kind in ("Fbar", "Lbar")
        # Fr/Lr: fewer than r consecutive non-overlined parts; Fbar/Lbar
        # bound no run, so a plain part leaves run 0 there, as in R
        run_cap = spec.r - 1 if kind in ("Fr", "Lr") else None

        def step(prev, prev_over, run, room):
            out = []
            for v in range(min(room, prev) if prev else room, 0, -1):
                if prev_over and v == prev and not first:
                    continue    # last: the overlined copy ends its magnitude
                if run_cap is None:
                    out.append((v, False, 0, None))
                elif run < run_cap:
                    out.append((v, False, run + 1, None))
                if not (first and v == prev) and \
                        not (bars_apart and prev_over):
                    out.append((v, True, 0, 0))
            return out
        return step

    k = spec.k
    r_like = kind in ("R", "Rr")
    residues = (spec.a, spec.b, spec.c) if r_like else (spec.a, spec.b)
    mark = {x % k: i for i, x in enumerate(residues)}
    ra, rc = spec.a % k, (spec.c % k if r_like else None)
    # the residue whose runs are bounded, and the longest run allowed:
    # at most r for P/Pprime, fewer than r for Rr, unbounded for R
    if kind == "R":
        restricted, run_cap = None, cap
    else:
        restricted = (spec.a if kind == "Pprime" else spec.b) % k
        run_cap = spec.r - 1 if kind == "Rr" else spec.r
    values = [v for v in range(cap, 0, -1) if v % k in mark]
    negated = [-v for v in values]      # ascending, for bisect

    def step(prev, prev_over, run, room):
        out = []
        after_a = r_like and prev and prev % k == ra
        hi = min(room, prev) if prev else room
        for v in values[bisect_left(negated, -hi):]:
            res = v % k
            if r_like:
                if res == rc and v == prev:
                    continue            # c-parts are distinct
                if after_a and res != ra and res != rc:
                    continue            # below an a-part: an a- or c-part
            new_run = run + 1 if res == restricted else 0
            if new_run <= run_cap:
                out.append((v, False, new_run, mark[res]))
        return out
    return step


def _walk(spec, step, cap, parts=None):
    """Depth-first walk over a prefix-closed set of part sequences.

    ``step(prev, prev_over, run, room)`` lists the parts that may follow a
    sequence whose last part is ``prev`` (0 for the empty sequence,
    ``prev_over`` its overline) and whose trailing restricted run has
    ``run`` parts, as ``(magnitude, overlined, run, mark)`` entries: the
    run the new part leaves and the index of the marker exponent it raises
    (None for none).  ``room`` is the weight left under ``cap``.  With
    ``parts`` the walk stops at that many parts and ``room`` is the weight
    left per part still to add, which bounds the next part when later
    parts are no smaller.

    Parts are added one at a time and each clause is checked as soon as the
    new part decides it, so when every clause constrains adjacent parts
    only, the walk visits each sequence of weight <= cap once, in
    pre-order.  Yields ``(weight, marks, prefix)`` per sequence, the empty
    one first; ``prefix`` is one list of ``(magnitude, overlined)`` pairs
    shared by the whole walk, valid until the next step.  The stack is
    explicit, so the depth is not bounded by the recursion limit.
    """
    prefix = []
    stack = []

    def push(depth, weight, marks, children):
        for v, over, run, mark in reversed(children):
            if mark is not None:
                marks_v = marks[:mark] + (marks[mark] + 1,) + marks[mark + 1:]
            else:
                marks_v = marks
            stack.append((depth, weight + v, v, over, run, marks_v))

    zero = (0,) * len(spec.markers)
    yield 0, zero, prefix
    push(1, 0, zero, step(0, False, 0, cap if parts is None else cap // parts))
    while stack:
        depth, weight, v, over, run, marks = stack.pop()
        prefix[depth - 1:] = ((v, over),)
        yield weight, marks, prefix
        if depth != parts:
            room = cap - weight if parts is None else \
                (cap - weight) // (parts - depth)
            push(depth + 1, weight, marks, step(v, over, run, room))


def _sweep(spec, step, trunc, parts=None):
    """Transfer-matrix form of ``_walk`` (Stanley, EC1 4.7): the tally of
    the sequences of weight <= trunc, layer by layer in the part count.

    ``step`` reads only the state ``(prev, prev_over, run)`` of a sequence,
    so the sequences that share a state move together.  A layer maps each
    state to the packed tally ``{marks: int}`` of its sequences (see
    ``series``), and one call of the step moves a whole tally to each
    child state ``(v, overlined, run)``: shifted up by q^v, with the
    child's marker raised (``series.shift_into``).  The step gets room =
    trunc; a sequence that outgrows trunc drops out of the packed tally,
    and a state with nothing left is dropped.  Yields the tally of layer
    m = 1, 2, ... summed over its states, up to ``parts`` layers or the
    first empty one.
    """
    layer = {(0, False, 0): {(0,) * len(spec.markers): 1}}
    for _ in range(trunc if parts is None else parts):
        children = {}
        for state, tally in layer.items():
            for v, over, run, mark in step(*state, trunc):
                shift_into(children.setdefault((v, over, run), {}), tally,
                           v, mark, trunc)
        layer = {state: tally for state, tally in children.items() if tally}
        if not layer:
            return
        total = Counter()
        for tally in layer.values():
            total.update(tally)
        yield total


def all_partitions(n, max_part=None):
    """All partitions of n in lexicographically decreasing order."""
    out = []
    prefix = []

    def extend(remaining, cap):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for v in range(min(remaining, cap), 0, -1):
            prefix.append(v)
            extend(remaining - v, v)
            prefix.pop()

    extend(n, max_part if max_part is not None else n)
    return out


def all_overpartitions(n, convention=FIRST):
    """All canonical overpartitions of n, deterministic order."""
    out = []
    for mags in all_partitions(n):
        distinct = sorted(set(mags), reverse=True)
        for mask in range(1 << len(distinct)):
            chosen = {distinct[i] for i in range(len(distinct))
                      if mask >> i & 1}
            parts = []
            for i, m in enumerate(mags):
                if m in chosen:
                    if convention == FIRST:
                        over = i == 0 or mags[i - 1] != m
                    else:
                        over = i + 1 == len(mags) or mags[i + 1] != m
                else:
                    over = False
                parts.append((m, over))
            out.append(Overpartition(tuple(parts), convention))
    out.sort(key=lambda op: tuple((-m, o) for m, o in op.parts))
    return out


def enumerate_members(spec, n):
    """All class members of weight n, deterministic decreasing order.

    One ``_walk`` up to weight n; objects are built for the members of
    weight exactly n only.
    """
    if spec.kind == "Gset":
        return [p for p in enumerate_g(spec) if p.weight == n]
    walk = _walk(spec, _next_parts(spec, n), n)
    if spec.is_overpartition_class:
        return [Overpartition(tuple(prefix), spec.convention)
                for weight, _, prefix in walk if weight == n]
    return [Partition(tuple(v for v, _ in prefix))
            for weight, _, prefix in walk if weight == n]


def enumerate_g(spec):
    """All members of the bounded-multiplicity auxiliary set: exactly h
    parts, all congruent to d mod k, each at most k(s-1)+d, multiplicity
    at most r-1."""
    if spec.kind != "Gset":
        raise KindMismatchError("enumerate_g requires a Gset spec")
    d, k, r, h, s = spec.d, spec.k, spec.r, spec.h, spec.s
    values = [k * i + d for i in range(s - 1, -1, -1)]   # descending
    out = []

    def extend(idx, remaining, acc):
        if remaining == 0:
            out.append(Partition(tuple(acc)))
            return
        if idx >= len(values):
            return
        for count in range(min(r - 1, remaining), -1, -1):
            extend(idx + 1, remaining - count, acc + [values[idx]] * count)

    extend(0, h, [])
    out.sort(key=lambda p: tuple(-x for x in p.parts))
    return out


def refined_gf(spec, trunc):
    """Oracle refined generating function: sum over all members of weight
    at most trunc of marker-monomial times q^weight.

    Since every prefix of a member is a member, the sweep of the class
    clauses (``_sweep`` with ``_next_parts``) reaches all of them: the
    empty member plus every layer.  It counts members per state and
    builds no objects.  A Gset has exactly h parts, so its members are
    tallied from ``enumerate_g`` instead.
    """
    if spec.kind == "Gset":
        return Series(trunc, spec.markers, Counter(
            (p.weight, ()) for p in enumerate_g(spec) if p.weight <= trunc))
    total = Counter({(0,) * len(spec.markers): 1})
    for layer in _sweep(spec, _next_parts(spec, trunc), trunc):
        total.update(layer)
    return Series.tally(trunc, spec.markers, total)
