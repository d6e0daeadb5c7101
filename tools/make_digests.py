"""Write golden/digests_N100.json: one digest of the closed-route series
per spec of the built-in verification grid, at truncation order 100.

Each entry holds the SHA-256 of the canonical serialization of
``Series.to_json_dict()`` (``json.dumps(..., sort_keys=True,
separators=(",", ":"))``, UTF-8), the number of terms and the total
coefficient at q^N (summed over the markers).  ``tests/test_digests.py``
checks all three routes against the file.

Run from the checkout root:

    PYTHONPATH=src python tools/make_digests.py [--trunc 100] [--out PATH]
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

from sepclass import closed_form_gf, load_grid


def digest(series):
    """SHA-256 of the canonical JSON of a series."""
    text = json.dumps(series.to_json_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trunc", type=int, default=100)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    out = args.out or Path("golden", f"digests_N{args.trunc}.json")
    _, specs = load_grid()
    entries = []
    for spec in specs:
        series = closed_form_gf(spec, args.trunc)
        entries.append({"spec": spec.to_json_dict(),
                        "sha256": digest(series),
                        "terms": len(series.terms),
                        "coeff_qN": str(series.coefficient(args.trunc))})
        print(spec.label(), entries[-1]["terms"], file=sys.stderr)
    payload = {"N": args.trunc, "route": "closed",
               "serialization": "json.dumps(Series.to_json_dict(), "
                                "sort_keys=True, separators=(',', ':'))",
               "specs": entries}
    out.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
