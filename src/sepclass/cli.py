"""Command-line front end.

Subcommands: count, list, basis, series, decompose, verify, identity.
Exit codes: 0 success (or verification match), 1 verification mismatch,
2 argument/validation errors (bad flags, specs, grid files or output
paths), 3 internal errors (invariant violations and any unexpected
exception).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from itertools import islice
from pathlib import Path

from .bases import (DecompositionFailureError, Decomposition, _basis_walk,
                    decompose, enumerate_basis)
from .objects import (KIND_PARAMS, PARAM_NAMES, ClassSpec, KindMismatchError,
                      Overpartition, Partition, enumerate_members, refined_gf)
from .series import Series
from .theorems import (VerificationReport, basis_driven_gf, check_identity,
                       closed_form_gf, compare_routes, load_grid,
                       three_routes)

DEFAULT_MAX_TRUNC = 200

# ``list`` walks every member of weight at most N once, about 2.5 us a
# member on one core of a 2-core VM, and ``basis`` walks its chains at
# about 1 us a chain; a longer walk of either is refused.  The counting
# routes (count, series, verify) sweep states instead and are not limited
ORACLE_MAX_MEMBERS = 2_000_000


class CliError(Exception):
    """Argument or validation failure (exit code 2)."""


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------

def _fmt_over_part(m, over):
    return f"{m}~" if over else str(m)


def emit(fmt, payload):
    """Render a payload as bytes in the requested format."""
    if fmt == "json":
        return (json.dumps(_to_jsonable(payload), indent=1) + "\n").encode()
    if fmt == "plain":
        return (_to_plain(payload) + "\n").encode()
    if fmt == "csv":
        return (_to_csv(payload) + "\n").encode()
    raise CliError(f"unknown format {fmt!r}")


def _to_jsonable(payload):
    if isinstance(payload, (Partition, Overpartition, Series, ClassSpec,
                            Decomposition, VerificationReport)):
        return payload.to_json_dict()
    if isinstance(payload, list):
        return [_to_jsonable(x) for x in payload]
    if isinstance(payload, int):
        return payload
    raise CliError(f"cannot serialize payload of type {type(payload)}")


def _to_plain(payload):
    if isinstance(payload, int):
        return str(payload)
    if isinstance(payload, (Partition, Overpartition)):
        return str(payload)
    if isinstance(payload, list):
        return "\n".join(_to_plain(x) for x in payload) if payload else ""
    if isinstance(payload, Series):
        lines = []
        for (q, marks), coeff in payload.sorted_terms():
            mark_bits = " ".join(
                f"{n}^{e}" for n, e in zip(payload.markers, marks) if e)
            head = f"q^{q}" + (f" {mark_bits}" if mark_bits else "")
            lines.append(f"{head}: {coeff}")
        return "\n".join(lines) if lines else "0"
    if isinstance(payload, Decomposition):
        pad = ",".join(str(p) for p in payload.padding)
        return f"basis {payload.basis} + padding ({pad})"
    if isinstance(payload, VerificationReport):
        head = "MATCH" if payload.matched else "MISMATCH"
        line = f"{head} {_subject_label(payload)} N={payload.trunc} " \
               f"routes={','.join(payload.routes)} " \
               f"elapsed={payload.elapsed * 1000:.1f}ms"
        if payload.route_elapsed is not None:
            line += " route_ms=" + ",".join(
                f"{name}:{s * 1000:.1f}"
                for name, s in payload.route_elapsed.items())
            line += " terms=" + ",".join(
                f"{name}:{n}" for name, n in payload.route_terms.items())
        if payload.first_discrepancy:
            line += f" first_discrepancy={payload.first_discrepancy}"
        return line
    raise CliError(f"cannot render payload of type {type(payload)}")


def _subject_label(report):
    subj = report.subject
    if isinstance(subj, ClassSpec):
        return subj.label()
    if isinstance(subj, dict) and "identity" in subj:
        return subj["identity"]
    return str(subj)


def _to_csv(payload):
    if isinstance(payload, Series):
        header = ",".join(["q", *payload.markers, "coeff"])
        rows = [header]
        for (q, marks), coeff in payload.sorted_terms():
            rows.append(",".join([str(q), *map(str, marks), str(coeff)]))
        return "\n".join(rows)
    if isinstance(payload, list):
        rows = []
        for obj in payload:
            if isinstance(obj, Partition):
                rows.append(",".join(str(p) for p in obj.parts))
            elif isinstance(obj, Overpartition):
                rows.append(",".join(_fmt_over_part(m, o)
                                     for m, o in obj.parts))
            else:
                raise CliError("csv lists hold partitions or overpartitions")
        return "\n".join(rows)
    if isinstance(payload, int):
        return str(payload)
    raise CliError(f"no csv rendering for payload of type {type(payload)}")


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _add_spec_flags(p):
    p.add_argument("--class", dest="klass", choices=list(KIND_PARAMS))
    for flag in PARAM_NAMES:
        p.add_argument(f"--{flag}", type=int)


def _add_common_flags(p):
    p.add_argument("--format", choices=["plain", "json", "csv"],
                   default="plain")
    p.add_argument("--out", type=Path)
    p.add_argument("--max-trunc", type=int, default=DEFAULT_MAX_TRUNC,
                   help="guardrail on truncation order")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sepclass",
        description="Enumerate and verify separable partition and "
                    "overpartition classes.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("count", help="count class members of weight n")
    _add_spec_flags(p)
    _add_common_flags(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("list", help="list class members of weight n")
    _add_spec_flags(p)
    _add_common_flags(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("basis", help="list the basis elements with m parts")
    _add_spec_flags(p)
    _add_common_flags(p)
    p.add_argument("--parts", type=int, required=True)
    p.add_argument("--max-weight", type=int)

    p = sub.add_parser("series", help="expand a generating function")
    _add_spec_flags(p)
    _add_common_flags(p)
    p.add_argument("--trunc", type=int, required=True)
    p.add_argument("--route", choices=["oracle", "basis", "closed"],
                   default="closed")

    p = sub.add_parser("decompose",
                       help="basis-plus-padding split of a member")
    _add_spec_flags(p)
    _add_common_flags(p)
    p.add_argument("--obj", required=True,
                   help="JSON: [5,2] for a partition, or the overpartition "
                        "schema {\"convention\":...,\"parts\":[...]}")

    p = sub.add_parser("verify", help="three-route verification")
    _add_spec_flags(p)
    _add_common_flags(p)
    p.add_argument("--trunc", type=int)
    p.add_argument("--grid", type=Path,
                   help="grid config path (default: built-in grid when no "
                        "--class is given)")
    p.add_argument("--bless", action="store_true",
                   help="write golden coefficient files for the verified "
                        "specs")

    p = sub.add_parser("identity", help="check a supporting identity")
    _add_common_flags(p)
    p.add_argument("--id", dest="identity_id", required=True)
    p.add_argument("--trunc", type=int, required=True)
    for flag in (*PARAM_NAMES, "A", "B"):
        p.add_argument(f"--{flag}", type=int)

    return parser


def _spec_from_args(args):
    if not args.klass:
        raise CliError("--class is required")
    kwargs = {}
    for flag in PARAM_NAMES:
        value = getattr(args, flag, None)
        if value is not None:
            kwargs[flag] = value
    try:
        return ClassSpec(args.klass, **kwargs)
    except (ValueError, TypeError) as exc:
        raise CliError(str(exc)) from exc


def _check_trunc(args, value, flag="--trunc"):
    """Bound a truncation order, weight or part count (--trunc, --n,
    --parts, --max-weight) by --max-trunc."""
    if value is None or value < 0:
        raise CliError(f"{flag} must be a nonnegative integer")
    if value > args.max_trunc:
        raise CliError(
            f"{flag} {value} exceeds the guardrail "
            f"{args.max_trunc} (raise it with --max-trunc)")


def _check_oracle_cost(spec, trunc):
    """Refuse a listing whose oracle walk visits more than
    ORACLE_MAX_MEMBERS members.  The oracle's sweep counts them first:
    its series summed over every weight up to trunc and every marker.  A
    Gset is listed from its own finite enumeration, not the walk."""
    if spec.kind == "Gset":
        return
    members = sum(refined_gf(spec, trunc).collapse_markers().terms.values())
    if members > ORACLE_MAX_MEMBERS:
        raise CliError(
            f"the oracle would visit {members} members of {spec.label()} "
            f"of weight <= {trunc}, more than its limit of "
            f"{ORACLE_MAX_MEMBERS}")


def _check_basis_cost(spec, m, max_weight):
    """Refuse a basis listing whose walk visits more than
    ORACLE_MAX_MEMBERS chains.  The walk is counted first, without
    building objects, and stops one past the limit."""
    visited = sum(1 for _ in islice(_basis_walk(spec, m, max_weight),
                                    ORACLE_MAX_MEMBERS + 1))
    if visited > ORACLE_MAX_MEMBERS:
        raise CliError(
            f"the basis walk of {spec.label()} for --parts {m} would visit "
            f"more than its limit of {ORACLE_MAX_MEMBERS} chains")


def _parse_obj(text, spec):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"bad --obj JSON: {exc}") from exc
    try:
        if isinstance(data, list):
            return Partition(tuple(data))
        if isinstance(data, dict) and "parts" in data:
            if data.get("convention") or (
                    data["parts"] and isinstance(data["parts"][0], dict)):
                if "convention" not in data and spec.convention:
                    data["convention"] = spec.convention
                return Overpartition.from_json_dict(data)
            return Partition.from_json_dict(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"bad --obj value: {exc}") from exc
    raise CliError("--obj must be a parts list or an object schema")


# ---------------------------------------------------------------------------
# golden corpus
# ---------------------------------------------------------------------------

def golden_dir():
    """The corpus root: $SEPCLASS_GOLDEN_DIR, else ``golden/`` at the root
    of the checkout this package is imported from (the ``src/`` layout),
    wherever the command runs."""
    override = os.environ.get("SEPCLASS_GOLDEN_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[2] / "golden"


def golden_path(spec, trunc, root=None):
    root = root or golden_dir()
    return root / spec.kind / spec.label() / f"coeffs_N{trunc}.json"


def write_golden(spec, trunc, series, root=None):
    path = golden_path(spec, trunc, root)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"spec": spec.to_json_dict(), "N": trunc,
               "series": series.to_json_dict()}
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


def read_golden(spec, trunc, root=None):
    path = golden_path(spec, trunc, root)
    data = json.loads(path.read_text())
    return Series.from_json_dict(data["series"])


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _cmd_count(args, out):
    spec = _spec_from_args(args)
    _check_trunc(args, args.n, "--n")
    # the oracle's tally at weight n, summed over the markers; no objects
    out.write(emit(args.format, refined_gf(spec, args.n).coefficient(args.n)))
    return 0


def _cmd_list(args, out):
    spec = _spec_from_args(args)
    _check_trunc(args, args.n, "--n")
    _check_oracle_cost(spec, args.n)
    out.write(emit(args.format, enumerate_members(spec, args.n)))
    return 0


def _cmd_basis(args, out):
    spec = _spec_from_args(args)
    if args.parts < 1:
        raise CliError("--parts must be >= 1")
    _check_trunc(args, args.parts, "--parts")
    if args.max_weight is not None:
        _check_trunc(args, args.max_weight, "--max-weight")
    _check_basis_cost(spec, args.parts, args.max_weight)
    elements = enumerate_basis(spec, args.parts, max_weight=args.max_weight)
    out.write(emit(args.format, elements))
    return 0


def _cmd_series(args, out):
    spec = _spec_from_args(args)
    _check_trunc(args, args.trunc)
    route = {"oracle": refined_gf, "basis": basis_driven_gf,
             "closed": closed_form_gf}[args.route]
    out.write(emit(args.format, route(spec, args.trunc)))
    return 0


def _cmd_decompose(args, out):
    spec = _spec_from_args(args)
    obj = _parse_obj(args.obj, spec)
    dec = decompose(spec, obj)
    out.write(emit(args.format, dec))
    return 0


def _cmd_verify(args, out):
    if args.klass:
        spec = _spec_from_args(args)
        trunc = args.trunc if args.trunc is not None else 25
        _check_trunc(args, trunc)
        jobs = [(spec, trunc)]
    else:
        try:
            trunc, specs = load_grid(args.grid)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CliError(f"cannot load grid {args.grid}: {exc!r}") from exc
        if args.trunc is not None:
            trunc = args.trunc
        _check_trunc(args, trunc)
        jobs = [(spec, trunc) for spec in specs]
    reports = []
    all_match = True
    for spec, n in jobs:
        started = time.perf_counter()
        routes, elapsed = three_routes(spec, n)
        report = compare_routes(routes, spec, n, started, elapsed)
        reports.append(report)
        all_match = all_match and report.matched
        if args.bless and report.matched:
            write_golden(spec, n, routes["oracle"])
    payload = reports[0] if len(reports) == 1 else reports
    out.write(emit(args.format, payload))
    return 0 if all_match else 1


def _cmd_identity(args, out):
    _check_trunc(args, args.trunc)
    params = {}
    for flag in (*PARAM_NAMES, "A", "B"):
        value = getattr(args, flag, None)
        if value is not None:
            params[flag] = value
    try:
        report = check_identity(args.identity_id, params, args.trunc)
    except (ValueError, KeyError) as exc:
        raise CliError(str(exc)) from exc
    out.write(emit(args.format, report))
    return 0 if report.matched else 1


_DISPATCH = {
    "count": _cmd_count,
    "list": _cmd_list,
    "basis": _cmd_basis,
    "series": _cmd_series,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "identity": _cmd_identity,
}


def run(argv):
    """Execute one CLI invocation; returns (exit_code, stdout, stderr)."""
    out, err = io.BytesIO(), io.BytesIO()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (0 if exc.code == 0 else 2), out.getvalue(), err.getvalue()
    try:
        code = _DISPATCH[args.subcommand](args, out)
        if args.out:
            try:
                args.out.write_bytes(out.getvalue())
            except OSError as exc:
                raise CliError(f"cannot write {args.out}: {exc}") from exc
            out = io.BytesIO()
    except (CliError, ValueError, KindMismatchError) as exc:
        err.write(f"error: {exc}\n".encode())
        return 2, out.getvalue(), err.getvalue()
    except DecompositionFailureError as exc:
        err.write(f"internal invariant violation: {exc}\n".encode())
        return 3, out.getvalue(), err.getvalue()
    except Exception as exc:
        err.write(f"internal error: {exc!r}\n".encode())
        return 3, out.getvalue(), err.getvalue()
    return code, out.getvalue(), err.getvalue()


def main(argv=None):
    code, out, err = run(sys.argv[1:] if argv is None else argv)
    sys.stdout.buffer.write(out)
    sys.stderr.buffer.write(err)
    sys.stdout.flush()
    sys.stderr.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
