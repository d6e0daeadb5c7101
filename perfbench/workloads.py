"""Job lists of the three workloads.

A job is one spec through the workload's routes.  The seed sets the job
order only: the list itself is fixed, so every run attempts the same jobs.
Each workload puts most of its time in a different layer:

- grid25: the built-in 44-spec grid at N=25, each job making the calls
  `sepclass verify` makes (oracle, basis, closed, compare_routes); about
  94% of it is the brute-force oracle in `objects`.
- deep: one grid spec per class family at N=60 through the basis and
  closed routes, no oracle; `bases.enumerate_basis` and
  `Series.div_one_minus` dominate.
- closed_high: the closed route alone at N=100 through
  `sepclass.cli.run(["series", ...])`, one cheap spec per family plus the
  specs with a product formula; large series in `series`.
"""

import json
import random
from pathlib import Path

NAMES = ("grid25", "deep", "closed_high")
GRID_FILE = Path("src", "sepclass", "data", "verify_grid.json")

DEEP_TRUNC = 60
DEEP_SPECS = [
    {"class": "P", "a": 1, "b": 2, "k": 2, "r": 2},
    {"class": "Pprime", "a": 1, "b": 2, "k": 2, "r": 2},
    {"class": "R", "a": 1, "b": 2, "c": 3, "k": 3},
    {"class": "Rr", "a": 1, "b": 2, "c": 3, "k": 3, "r": 2},
    {"class": "Fbar"},
    {"class": "Lbar"},
    {"class": "Fr", "r": 2},
    {"class": "Lr", "r": 2},
]

CLOSED_TRUNC = 100
# R(1,2,3;3) alone takes 22 s at N=100, so the partition families use
# their k=4 grid specs; Fr/Lr with r > N take 10-14 s each and are left out.
CLOSED_SPECS = [
    {"class": "P", "a": 2, "b": 3, "k": 4, "r": 2},
    {"class": "Pprime", "a": 2, "b": 3, "k": 4, "r": 2},
    {"class": "R", "a": 2, "b": 3, "c": 4, "k": 4},
    {"class": "Rr", "a": 2, "b": 3, "c": 4, "k": 4, "r": 2},
    {"class": "Fbar"},
    {"class": "Lbar"},
    {"class": "Fr", "r": 2},
    {"class": "Lr", "r": 2},
    # product formulas
    {"class": "Fr", "r": 1},
    {"class": "Lr", "r": 1},
    {"class": "Rr", "a": 2, "b": 3, "c": 4, "k": 4, "r": 1},
    {"class": "P", "a": 2, "b": 3, "k": 4, "r": CLOSED_TRUNC + 1},
    {"class": "Pprime", "a": 2, "b": 3, "k": 4, "r": CLOSED_TRUNC + 1},
]


def grid():
    """The built-in grid as (trunc, spec dicts), read from its JSON file."""
    data = json.loads(GRID_FILE.read_text())
    return data["trunc"], data["specs"]


def job_list(name, seed):
    """(trunc, spec dicts) of a workload, in the order the seed gives."""
    if name == "grid25":
        trunc, specs = grid()
    elif name == "deep":
        trunc, specs = DEEP_TRUNC, DEEP_SPECS
    elif name == "closed_high":
        trunc, specs = CLOSED_TRUNC, CLOSED_SPECS
    else:
        raise ValueError(f"unknown workload {name!r}")
    specs = [dict(spec) for spec in specs]
    random.Random(seed).shuffle(specs)
    return trunc, specs
