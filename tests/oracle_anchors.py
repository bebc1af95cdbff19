"""Oracle anchors: formula-free counts past the oracle's small boxes.

Every other far-field check compares the closed forms with themselves: the
value pins sum the same formulas modulo primes, and the recurrence and the
cut feed formula values into formula values.  This script runs the oracle
once, offline, at a fixed list of targets whose dominant coordinate is at
least 100, and stores each exact count in ``tests/data/oracle_anchors.json``
with the commit whose oracle computed it.  Tier-1 holds ``count_paths`` and
the CLI's ``count`` to those values in milliseconds.

Regenerate after editing ANCHORS (about 80 s on Python 3.11), with
``src/`` committed:

    PYTHONPATH=src python tests/oracle_anchors.py

Recompute the first anchor of each neighbourhood and compare it with the
file (a few seconds in all):

    PYTHONPATH=src python tests/oracle_anchors.py --check
"""

import json
import subprocess
import sys
import time
from pathlib import Path

from cubepaths.core import GridPoint, Neighborhood
from cubepaths.oracle import oracle_count

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data" / "oracle_anchors.json"

# (neighbourhood, target from the origin); each neighbourhood's first anchor is
# a cheap one with a count other than 1, for --check.  Together they meet every
# predicate of test_counting's _VALUE_MUTANTS.
ANCHORS = [
    (18, (100, 50, 50)),  # i - (j + k) = 0
    (18, (101, 50, 50)),  # i - (j + k) = 1
    (18, (102, 50, 50)),  # i - (j + k) = 2
    (18, (100, 51, 50)),  # i - (j + k) = -1
    (18, (100, 30, 20)),  # max case, even and odd coordinate sum
    (18, (101, 30, 20)),
    (18, (100, 80, 60)),  # half case, even and odd coordinate sum
    (18, (101, 80, 60)),
    (18, (100, 100, 100)),  # the spatial diagonal
    (6, (100, 100, 0)),  # the planar diagonal
    (6, (100, 0, 0)),  # the axis
    (6, (250, 150, 100)),  # coordinate sum 500
    (26, (100, 50, 50)),  # j = k
    (26, (100, 0, 0)),  # the axis
    (26, (250, 150, 100)),  # i >= 250
    (6, (-30, 120, -50)),  # signed and permuted, under each neighbourhood
    (18, (-30, 120, -50)),
    (26, (-30, 120, -50)),
]


def _oracle(neighborhood, target):
    return oracle_count(GridPoint(*target), Neighborhood(neighborhood))


def _commit():
    # the file names the oracle that computed it, so that oracle must be committed
    if subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"], cwd=ROOT).returncode:
        sys.exit("commit src/ first: the file records the commit its values come from")
    return subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def write():
    commit = _commit()
    entries = []
    for neighborhood, target in ANCHORS:
        start = time.perf_counter()
        count = _oracle(neighborhood, target)
        print(f"N{neighborhood} {target}: {time.perf_counter() - start:.2f} s", flush=True)
        entries.append({"neighborhood": neighborhood, "target": list(target), "count": str(count)})
    lines = ",\n".join(json.dumps(entry) for entry in entries)
    DATA.write_text(f'{{\n"commit": "{commit}",\n"anchors": [\n{lines}\n]\n}}\n', encoding="utf-8")
    print(f"wrote {len(entries)} anchors to {DATA}")


def check():
    firsts = {}
    for entry in json.loads(DATA.read_text(encoding="utf-8"))["anchors"]:
        firsts.setdefault(entry["neighborhood"], entry)
    failed = False
    for entry in firsts.values():
        count = _oracle(entry["neighborhood"], entry["target"])
        same = str(count) == entry["count"]
        failed |= not same
        print(f"N{entry['neighborhood']} {tuple(entry['target'])}: {'ok' if same else 'DIFFERS'}")
    return int(failed)


if __name__ == "__main__":
    args = sys.argv[1:]
    if args not in ([], ["--check"]):
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    sys.exit(check() if args else write())
