"""Command-line front end.

Subcommands: distance, count, oracle, paths, verify, table.
Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 usage/parse error or unwritable output, 2 verification mismatch.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Optional, Sequence

from .core import ORIGIN, GridPoint, Neighborhood, admissible_moves, canonicalize, check_size
from .counting import count_paths
from .metrics import distance
from .oracle import DEFAULT_ENUMERATION_LIMIT, enumerate_shortest_paths, oracle_count
from .tables import (
    decimal_string,
    json_line,
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

_TOKENS = ("6", "18", "26")


class _UsageError(Exception):
    pass


class _HelpFormatter(argparse.HelpFormatter):
    # 3.13's argparse writes "-n, --neighborhood {...}"; the CLI keeps the
    # layout of earlier releases, each option string with its argument
    def _format_action_invocation(self, action):
        if not action.option_strings or action.nargs == 0:
            return super()._format_action_invocation(action)
        args = self._format_args(action, self._get_default_metavar_for_optional(action))
        return ", ".join(f"{option} {args}" for option in action.option_strings)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(formatter_class=_HelpFormatter, **kwargs)
        # argparse reads a word after an option as its value only if the word
        # does not look like an option; "-12,3,3" does, unlike a plain "-12",
        # so any point whose first chunk starts "-<digit>" is let through too
        # and a malformed one ("-1.5,0,0") gets _parse_point's message
        self._negative_number_matcher = re.compile(
            self._negative_number_matcher.pattern + r"|^-\d[^,]*,"
        )

    # argparse exits with code 2 on bad usage; this CLI reserves 2 for
    # verification mismatches, so route parse errors through exit code 1
    def error(self, message: str):
        raise _UsageError(message)

    def _check_value(self, action, value):
        # argparse words this error with repr() in some releases and with
        # str() in others (3.13.13 among them); the CLI keeps the repr wording
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {value!r} (choose from {choices})"
            )


def _parse_int(text: str) -> Optional[int]:
    """int(text), or None where text is valid int() syntax that CPython's
    digit cap on int parsing refuses; ValueError where it is not an integer."""
    try:
        return int(text)
    except ValueError:
        # an interpreter without the cap never returns None
        if re.fullmatch(r"[+-]?\d(?:_?\d)*", text.strip()):
            return None
        raise


def _parse_point(text: str) -> GridPoint:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"malformed point {text!r}: expected X,Y,Z")
    try:
        # a chunk too large does not stop the reading, so a malformed one wins
        values = [_parse_int(chunk) for chunk in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"malformed point {text!r}: components must be integers"
        ) from None
    if None in values:
        # the cap is named, not the thousands of digits it refused
        raise argparse.ArgumentTypeError(
            f"point too large: components are limited to {sys.get_int_max_str_digits()} digits"
        )
    return GridPoint(*values)


def _option(name: str, least: int):
    """The argparse type of the integer option ``name``: its value, refused
    by the library's size rule as argparse reads it."""

    def parse(text: str) -> int:
        try:
            value = _parse_int(text)
        except ValueError:
            # argparse's own wording for a type=int option
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value is None:
            raise argparse.ArgumentTypeError(
                f"value too large: integers are limited to {sys.get_int_max_str_digits()} digits"
            )
        try:
            check_size(name, value, least)
        except ValueError as exc:
            # with no action named, argparse reports the bare message
            raise argparse.ArgumentError(None, str(exc)) from None
        return value

    return parse


def _neighborhoods(token: str) -> tuple[Neighborhood, ...]:
    # the parsers' choices admit only "all" and the tokens "6", "18", "26"
    return tuple(Neighborhood) if token == "all" else (Neighborhood(int(token)),)


def _displacement(ns: argparse.Namespace) -> GridPoint:
    return GridPoint(*ns.target.displacement_from(ns.origin))


# ---------------------------------------------------------------- commands
# each command maps the parsed arguments to (exit code, stdout text, stderr
# text), whole lines that run() writes


def _cmd_values(ns: argparse.Namespace) -> tuple[int, str, str]:
    # each value command sets ns.value(ns, n); it looks distance, count_paths,
    # canonicalize and oracle_count up as module globals at call time, so a
    # rebinding of those names here (a tracer, a test) takes effect
    neighborhoods = _neighborhoods(ns.neighborhood)
    values = [decimal_string(ns.value(ns, n)) for n in neighborhoods]
    # single neighborhood: exactly one decimal integer, scriptable;
    # "all": one labeled line per neighborhood
    if len(values) == 1:
        return EXIT_OK, values[0] + "\n", ""
    return EXIT_OK, "".join(f"{n.value}\t{v}\n" for n, v in zip(neighborhoods, values)), ""


def _cmd_paths(ns: argparse.Namespace) -> tuple[int, str, str]:
    (neighborhood,) = _neighborhoods(ns.neighborhood)
    target = _displacement(ns)
    listing = enumerate_shortest_paths(target, neighborhood, limit=ns.limit)
    if ns.format == "json":
        payload = {
            "target": target,
            "neighborhood": neighborhood.value,
            "distance": distance(ns.origin, ns.target, neighborhood),
            "truncated": listing.truncated,
            "paths": listing.paths,
        }
        return EXIT_OK, json_line(payload), ""
    # each step formatted once, not once per appearance
    text = {step: "{},{},{}".format(*step) for step in admissible_moves(neighborhood)}
    out = "".join(" ".join([text[step] for step in path]) + "\n" for path in listing.paths)
    note = f"note: output truncated at {ns.limit} paths; more exist\n"
    return EXIT_OK, out, note if listing.truncated else ""


def _cmd_verify(ns: argparse.Namespace) -> tuple[int, str, str]:
    neighborhoods = _neighborhoods(ns.neighborhood)
    reports = [verify_region(ns.extent, n) for n in neighborhoods]
    code = EXIT_OK if all(r.ok for r in reports) else EXIT_MISMATCH
    if ns.format == "json":
        payload = [
            {
                "neighborhood": neighborhood.value,
                "extent": ns.extent,
                "checked": r.checked,
                "mismatches": [
                    {
                        "point": point,
                        "formula": decimal_string(formula),
                        "oracle": decimal_string(oracle),
                    }
                    for point, formula, oracle in r.mismatches
                ],
            }
            for neighborhood, r in zip(neighborhoods, reports)
        ]
        return code, json_line(payload), ""
    lines = []
    for neighborhood, r in zip(neighborhoods, reports):
        lines.append(
            f"{neighborhood.name}: checked {r.checked} canonical points "
            f"(extent {ns.extent}), mismatches {len(r.mismatches)}\n"
        )
        lines.extend(
            f"  MISMATCH at {point.x},{point.y},{point.z}: "
            f"formula={decimal_string(formula)} oracle={decimal_string(oracle)}\n"
            for point, formula, oracle in r.mismatches
        )
    return code, "".join(lines), ""


def _cmd_table(ns: argparse.Namespace) -> tuple[int, str, str]:
    if ns.slice_2d is not None:
        if ns.neighborhood is not None or ns.length is not None or ns.expand_symmetry:
            raise _UsageError("--slice-2d cannot be combined with -n/--length/--expand-symmetry")
        table = slice_table_2d(ns.slice_2d)
    else:
        if ns.neighborhood is None or ns.length is None:
            raise _UsageError("table requires -n and --length (or --slice-2d MAX_I)")
        (neighborhood,) = _neighborhoods(ns.neighborhood)
        table = shell_table(neighborhood, ns.length, expand_symmetry=ns.expand_symmetry)
    renderer = {"text": to_text, "csv": to_csv, "tsv": to_tsv, "json": to_json}[ns.format]
    return EXIT_OK, renderer(table), ""


# ------------------------------------------------------------------ parser


def _endpoint_parser(sub, name: str, help: str, allow_all: bool) -> argparse.ArgumentParser:
    # the shape shared by distance, count, oracle and paths
    p = sub.add_parser(name, help=help)
    p.add_argument(
        "--from",
        dest="origin",
        type=_parse_point,
        default=ORIGIN,
        metavar="X,Y,Z",
        help="source point (default 0,0,0)",
    )
    p.add_argument(
        "--to",
        dest="target",
        type=_parse_point,
        required=True,
        metavar="X,Y,Z",
        help="destination point",
    )
    tokens = _TOKENS + ("all",) if allow_all else _TOKENS
    p.add_argument("-n", "--neighborhood", choices=tokens, required=True)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cubepaths",
        description=(
            "Exact digital distances and shortest-path counts on the 3D cubic "
            "grid under 6-, 18- and 26-connectivity."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    for name, help, value in (
        (
            "distance",
            "digital distance between two points",
            lambda ns, n: distance(ns.origin, ns.target, n),
        ),
        (
            "count",
            "closed-form number of shortest paths",
            lambda ns, n: count_paths(canonicalize(ns.target, ns.origin), n),
        ),
        (
            "oracle",
            "number of shortest paths by graph search",
            lambda ns, n: oracle_count(_displacement(ns), n),
        ),
    ):
        p = _endpoint_parser(sub, name, help, allow_all=True)
        p.set_defaults(handler=_cmd_values, value=value)

    p = _endpoint_parser(sub, "paths", "list shortest paths as step sequences", allow_all=False)
    p.add_argument(
        "--limit",
        type=_option("--limit", 1),
        default=DEFAULT_ENUMERATION_LIMIT,
        help=f"maximum number of paths to emit (default {DEFAULT_ENUMERATION_LIMIT})",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_paths)

    p = sub.add_parser("verify", help="sweep formulas against the oracle")
    p.add_argument(
        "--extent", type=_option("--extent", 0), default=5, help="canonical box size (default 5)"
    )
    p.add_argument("-n", "--neighborhood", choices=_TOKENS + ("all",), default="all")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("table", help="export count tables (shells or 2D slice)")
    p.add_argument("-n", "--neighborhood", choices=_TOKENS)
    p.add_argument("--length", type=_option("--length", 0), help="digital distance of the shell")
    p.add_argument(
        "--expand-symmetry",
        action="store_true",
        help="emit all sign/permutation images, not just canonical points",
    )
    p.add_argument(
        "--slice-2d",
        dest="slice_2d",
        type=_option("--slice-2d", 0),
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
        code, out, err = ns.handler(ns)
    except _UsageError as exc:
        code, out, err = EXIT_USAGE, "", f"cubepaths: error: {exc}\n"
    except SystemExit as exc:  # --help, already written by argparse
        code, out, err = (EXIT_OK if exc.code in (0, None) else EXIT_USAGE), "", ""
    # one write per stream; stdout is flushed first, so that on a shared file
    # or pipe a note on stderr follows the output it is about, and a failed
    # write (argparse's --help text too) reaches main's handler
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.stderr.write(err)
    return code


def main() -> None:
    try:
        if sys.stdout is None:  # fd 1 was closed before the CLI started
            raise OSError("stdout is closed")
        code = run(sys.argv[1:])
    except OSError as exc:
        # fd 1 to devnull, or shutdown's flush reports "Exception ignored"
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        if isinstance(exc, BrokenPipeError):  # the reader is gone
            code = EXIT_OK
        else:
            print(f"cubepaths: error: cannot write output: {exc}", file=sys.stderr)
            code = EXIT_USAGE
    sys.exit(code)
