"""Command-line front end.

Subcommands: distance, count, oracle, paths, verify, table.
Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 usage/parse error, 2 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .core import GridPoint, Neighborhood, canonicalize
from .counting import count_paths
from .metrics import distance
from .oracle import DEFAULT_ENUMERATION_LIMIT, enumerate_shortest_paths, oracle_count
from .tables import (
    decimal_string,
    shell_table,
    slice_table_2d,
    to_csv,
    to_json,
    to_text,
    to_tsv,
)
from .verify import verify_region

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2

_ALL = (Neighborhood.N6, Neighborhood.N18, Neighborhood.N26)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; this CLI reserves 2 for
    # verification mismatches, so route parse errors through exit code 1
    def error(self, message: str):
        raise _UsageError(message)


def _parse_point(text: str) -> GridPoint:
    parts = [chunk.strip() for chunk in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"malformed point {text!r}: expected X,Y,Z")
    try:
        x, y, z = (int(chunk) for chunk in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"malformed point {text!r}: components must be integers"
        ) from None
    return GridPoint(x, y, z)


def _neighborhoods(token: str) -> tuple[Neighborhood, ...]:
    if token == "all":
        return _ALL
    return (Neighborhood.from_token(token),)


def _displacement(ns: argparse.Namespace) -> GridPoint:
    dx, dy, dz = ns.target.displacement_from(ns.origin)
    return GridPoint(dx, dy, dz)


def _print_values(pairs: Sequence[tuple[Neighborhood, int]]) -> None:
    # single neighborhood: exactly one decimal integer, scriptable;
    # "all": one labeled line per neighborhood
    if len(pairs) == 1:
        print(decimal_string(pairs[0][1]))
    else:
        for neighborhood, value in pairs:
            print(f"{neighborhood.value}\t{decimal_string(value)}")


# ---------------------------------------------------------------- commands


def _cmd_values(ns: argparse.Namespace) -> int:
    # each subcommand sets ns.value(ns, n); it looks distance, count_paths,
    # canonicalize and oracle_count up as module globals at call time, so a
    # rebinding of those names here (a tracer, a test) takes effect
    _print_values([(n, ns.value(ns, n)) for n in _neighborhoods(ns.neighborhood)])
    return EXIT_OK


def _cmd_paths(ns: argparse.Namespace) -> int:
    if ns.limit < 1:
        raise _UsageError(f"--limit must be positive, got {ns.limit}")
    neighborhood = Neighborhood.from_token(ns.neighborhood)
    target = _displacement(ns)
    listing = enumerate_shortest_paths(target, neighborhood, limit=ns.limit)
    if ns.format == "json":
        payload = {
            "target": list(target.as_tuple()),
            "neighborhood": neighborhood.value,
            "distance": distance(ns.origin, ns.target, neighborhood),
            "truncated": listing.truncated,
            "paths": [
                [list(step.as_tuple()) for step in path] for path in listing.paths
            ],
        }
        print(json.dumps(payload))
    else:
        for path in listing.paths:
            print(" ".join(f"{s.dx},{s.dy},{s.dz}" for s in path))
        if listing.truncated:
            print(
                f"note: output truncated at {ns.limit} paths; more exist",
                file=sys.stderr,
            )
    return EXIT_OK


def _cmd_verify(ns: argparse.Namespace) -> int:
    if ns.extent < 0:
        raise _UsageError(f"--extent must be nonnegative, got {ns.extent}")
    reports = [verify_region(ns.extent, n) for n in _neighborhoods(ns.neighborhood)]
    if ns.format == "json":
        payload = [
            {
                "neighborhood": r.neighborhood.value,
                "extent": r.extent,
                "checked": r.checked,
                "mismatches": [
                    {
                        "point": list(point.as_tuple()),
                        "formula": decimal_string(formula),
                        "oracle": decimal_string(oracle),
                    }
                    for point, formula, oracle in r.mismatches
                ],
            }
            for r in reports
        ]
        print(json.dumps(payload))
    else:
        for r in reports:
            print(
                f"{r.neighborhood.name}: checked {r.checked} canonical points "
                f"(extent {r.extent}), mismatches {len(r.mismatches)}"
            )
            for point, formula, oracle in r.mismatches:
                print(
                    f"  MISMATCH at {point.x},{point.y},{point.z}: "
                    f"formula={decimal_string(formula)} oracle={decimal_string(oracle)}"
                )
    return EXIT_OK if all(r.ok for r in reports) else EXIT_MISMATCH


def _cmd_table(ns: argparse.Namespace) -> int:
    if ns.slice_2d is not None:
        if ns.neighborhood is not None or ns.length is not None or ns.expand_symmetry:
            raise _UsageError("--slice-2d cannot be combined with -n/--length/--expand-symmetry")
        if ns.slice_2d < 0:
            raise _UsageError(f"--slice-2d must be nonnegative, got {ns.slice_2d}")
        table = slice_table_2d(ns.slice_2d)
    else:
        if ns.neighborhood is None or ns.length is None:
            raise _UsageError("table requires -n and --length (or --slice-2d MAX_I)")
        if ns.length < 0:
            raise _UsageError(f"--length must be nonnegative, got {ns.length}")
        table = shell_table(
            Neighborhood.from_token(ns.neighborhood),
            ns.length,
            expand_symmetry=ns.expand_symmetry,
        )
    renderer = {"text": to_text, "csv": to_csv, "tsv": to_tsv, "json": to_json}[ns.format]
    output = renderer(table)
    sys.stdout.write(output if output.endswith("\n") else output + "\n")
    return EXIT_OK


# ------------------------------------------------------------------ parser


def _add_endpoints(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--from",
        dest="origin",
        type=_parse_point,
        default=GridPoint(0, 0, 0),
        metavar="X,Y,Z",
        help="source point (default 0,0,0)",
    )
    parser.add_argument(
        "--to",
        dest="target",
        type=_parse_point,
        required=True,
        metavar="X,Y,Z",
        help="destination point",
    )


def _add_neighborhood(parser: argparse.ArgumentParser, allow_all: bool, **kwargs) -> None:
    choices = ("6", "18", "26", "all") if allow_all else ("6", "18", "26")
    parser.add_argument("-n", "--neighborhood", choices=choices, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cubepaths",
        description=(
            "Exact digital distances and shortest-path counts on the 3D cubic "
            "grid under 6-, 18- and 26-connectivity."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("distance", help="digital distance between two points")
    _add_endpoints(p)
    _add_neighborhood(p, allow_all=True, required=True)
    p.set_defaults(handler=_cmd_values, value=lambda ns, n: distance(ns.origin, ns.target, n))

    p = sub.add_parser("count", help="closed-form number of shortest paths")
    _add_endpoints(p)
    _add_neighborhood(p, allow_all=True, required=True)
    p.set_defaults(
        handler=_cmd_values,
        value=lambda ns, n: count_paths(canonicalize(ns.target, ns.origin), n),
    )

    p = sub.add_parser("oracle", help="number of shortest paths by graph search")
    _add_endpoints(p)
    _add_neighborhood(p, allow_all=True, required=True)
    p.set_defaults(handler=_cmd_values, value=lambda ns, n: oracle_count(_displacement(ns), n))

    p = sub.add_parser("paths", help="list shortest paths as step sequences")
    _add_endpoints(p)
    _add_neighborhood(p, allow_all=False, required=True)
    p.add_argument(
        "--limit",
        type=int,
        default=DEFAULT_ENUMERATION_LIMIT,
        help=f"maximum number of paths to emit (default {DEFAULT_ENUMERATION_LIMIT})",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_paths)

    p = sub.add_parser("verify", help="sweep formulas against the oracle")
    p.add_argument("--extent", type=int, default=5, help="canonical box size (default 5)")
    _add_neighborhood(p, allow_all=True, default="all")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("table", help="export count tables (shells or 2D slice)")
    _add_neighborhood(p, allow_all=False)
    p.add_argument("--length", type=int, help="digital distance of the shell")
    p.add_argument(
        "--expand-symmetry",
        action="store_true",
        help="emit all sign/permutation images, not just canonical points",
    )
    p.add_argument(
        "--slice-2d",
        dest="slice_2d",
        type=int,
        metavar="MAX_I",
        help="emit the planar chessboard table for 0 <= j <= i <= MAX_I instead",
    )
    p.add_argument("--format", choices=("text", "csv", "tsv", "json"), default="text")
    p.set_defaults(handler=_cmd_table)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv and execute one subcommand; returns the exit code."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"cubepaths: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return ns.handler(ns)
    except _UsageError as exc:
        print(f"cubepaths: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))
