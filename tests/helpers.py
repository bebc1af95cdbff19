"""Shared test inputs, runners and references, one copy of each.

No ``test_`` prefix, so pytest does not collect this file; the test files
import it by plain name (``pythonpath`` in ``pyproject.toml`` lists
``tests``), and so does ``tests/test_cli_contract.py`` when it runs as a
script.
"""

import importlib.util
import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from itertools import permutations, product
from pathlib import Path

import cubepaths
from cubepaths.cli import run
from cubepaths.core import GridPoint

# run the package under test, wherever it was imported from
SOURCE_ROOT = str(Path(cubepaths.__file__).resolve().parents[1])

# the 48 signed permutations of the axes: v -> (s0 v[p0], s1 v[p1], s2 v[p2])
SIGNED_MAPS = [
    (perm, signs) for perm in permutations(range(3)) for signs in product((1, -1), repeat=3)
]


def signed_image(perm, signs, v):
    return tuple(s * v[axis] for axis, s in zip(perm, signs))


def canonical_triples(top, start=0):
    """Every (i, j, k) with top >= i >= j >= k >= 0 and i >= start, in
    lexicographic order."""
    for i in range(start, top + 1):
        for j in range(i + 1):
            for k in range(j + 1):
                yield i, j, k


def seeded_points(seed, bound, count):
    # a fixed-seed sample in +-bound, so a failing point is the same on every run
    rng = random.Random(seed)
    return [GridPoint(*(rng.randint(-bound, bound) for _ in range(3))) for _ in range(count)]


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = run(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def child_env(**changes):
    """The environment of a child interpreter that imports the package under
    test, with each change set, or removed where its value is None."""
    env = {**os.environ, "PYTHONPATH": SOURCE_ROOT}
    for name, value in changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def load_script(relative, name):
    # a script outside the package, loaded from its file in the repository
    path = Path(__file__).resolve().parents[1] / relative
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the benchmark's references, which share no code with cubepaths: the direct
# sums in exact integers and modulo two primes, and the path-listing check
reference = load_script("perfbench/reference.py", "perfbench_reference")
MODULAR_COUNTS = reference.ModularCounts()
