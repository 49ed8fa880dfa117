"""Command-line interface: construct, embed, count, group-search, spectrum."""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import cache, partial

from . import __version__
from .constructions import (
    ConstructionError,
    Gap,
    OneTrackParams,
    TwoTrackParams,
    _gap,
    _hegarty_roesler,
    _one_track,
    _two_dim,
    _two_track,
    gap_base_recipe,
)
from .counting import count_covering, find_group_mstd
from .grouplattice import GroupSubset, embed_report
from .search import exhaustive_spectrum
from .setops import _INT_TOKEN, IntSet, MstdDelta, _load_json, _strict_int, _strict_ints


def _int_arg(text: str) -> int:
    """An integer flag, read as the text wire format reads integers."""
    if not re.fullmatch(_INT_TOKEN, text):
        raise argparse.ArgumentTypeError(f"{text!r} is not a decimal integer")
    return int(text)


def _parse_gap(raw) -> Gap:
    dims = raw.get("dims", []) if isinstance(raw, dict) else None
    if (
        not isinstance(dims, list)
        or any(not isinstance(d, list) or len(d) != 3 for d in dims)
        or not raw.keys() <= {"base", "dims"}
    ):
        raise ValueError('p must be {"base": b, "dims": [[step, offset, length], ...]}')
    return Gap(
        base=_strict_int("p.base", raw.get("base", 0)),
        dims=tuple(_strict_ints("p.dims", d) for d in dims),
    )


def _parse_params(text: str) -> dict:
    """The --params JSON object, with a progression under "p"; the family
    builders check that the other values are integers."""
    params = _load_json(text)
    if not isinstance(params, dict):
        raise ValueError("--params must be a JSON object")
    _parse_gap(params.get("p", {}))
    return params


def _build_gap(variant: str, m: int, k: int, r: int, s: int, p=None):
    # _parse_params rejects "p": null, so None here means "p" was left out
    base = gap_base_recipe(_parse_gap({} if p is None else p), r, s, m)
    return _gap(base, k, variant)


# family code -> (required parameters, optional parameters, builder from
#                 the parameters to (set, its verified delta, its center a*))
FAMILIES = {
    "t1": (("m", "d", "k"), (), lambda m, d, k: _one_track(OneTrackParams(m, d, k))),
    "t2": (("k",), (), _two_dim),
    "t3": (("m", "d", "k"), (), lambda m, d, k: _two_track(TwoTrackParams(m, d, k))),
    "gap": (("m", "k", "r", "s"), ("p",), partial(_build_gap, "one_to_k")),
    "gap2": (("m", "k", "r", "s"), ("p",), partial(_build_gap, "zero_to_k")),
    "hr": (("k",), (), _hegarty_roesler),
}


def _build_family(family: str, params: dict) -> tuple[IntSet, MstdDelta, int]:
    """Return (set, delta, a*) for a family code and its parameters."""
    required, optional, build = FAMILIES[family]
    missing = [k for k in required if k not in params]
    if missing:
        raise ConstructionError(
            f"family {family!r} needs parameter(s): {', '.join(missing)}"
        )
    unknown = [k for k in params if k not in required + optional]
    if unknown:
        raise ConstructionError(
            f"family {family!r} does not take parameter(s): {', '.join(unknown)}"
        )
    return build(**params)


def _cmd_construct(args) -> dict:
    params = _parse_params(args.params)
    built, delta, a_star = _build_family(args.family, params)
    return {
        "family": args.family,
        "params": params,
        "set": list(built.elements),
        "delta": delta.delta,
        "a_star": a_star,
    }


def _cmd_embed(args) -> dict:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    subset = GroupSubset.from_json(text)
    result = embed_report(subset, t_max=args.t_max)
    return {
        "t_used": result.t,
        "m_used": result.radix,
        "set": list(result.image.elements),
        "delta": result.delta,
    }


def _cmd_count(args) -> dict:
    return count_covering(args.n).to_dict(include_table=args.table)


def _cmd_group_search(args) -> dict:
    return find_group_mstd(args.n, strategy=args.strategy, seed=args.seed).to_dict()


def _cmd_spectrum(args):
    report = exhaustive_spectrum(args.range_max, args.min_size, args.max_size)
    return report.to_csv() if args.format == "csv" else report.to_dict()


def _to_json(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, at nesting ``indent``.

    With ``indent`` set, ``json.dumps`` runs the pure-Python encoder on every
    item.  Here a list of ints is one C ``repr``, and other nonempty lists
    and string-keyed dicts recurse, so only scalars reach ``json.dumps``."""
    kind = type(value)
    if kind is int:
        return str(value)
    inner = indent + "  "
    if kind is list and value:
        if {*map(type, value)} == {int}:
            body = str(value)[1:-1].replace(", ", ",\n" + inner)
        else:
            body = f",\n{inner}".join([_to_json(v, inner) for v in value])
        return f"[\n{inner}{body}\n{indent}]"
    if kind is dict and value and {*map(type, value)} == {str}:
        items = [f"{json.dumps(k)}: {_to_json(v, inner)}" for k, v in value.items()]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    # a scalar, an empty container or a dict with other keys; JSON text
    # holds no raw newline outside its indentation
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mstd",
        description="Construct, verify, search for, and embed MSTD sets.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a set from a named family")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--params", required=True, help="family parameters as JSON")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("embed", help="turn a group MSTD subset into an integer one")
    p.add_argument("--input", required=True, help="group subset JSON file, or -")
    p.add_argument("--t-max", type=_int_arg, default=32, dest="t_max")
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("count", help="covering counts for parity graphs in Z/n x Z/2")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--table", action="store_true", help="include per-element misses")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("group-search", help="find a covering parity graph")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--strategy", choices=("first", "random"), default="first")
    p.add_argument("--seed", type=_int_arg, default=None)
    p.set_defaults(handler=_cmd_group_search)

    p = sub.add_parser("spectrum", help="exhaustive delta spectrum over [0, N]")
    p.add_argument("--range-max", type=_int_arg, required=True, dest="range_max")
    p.add_argument("--min-size", type=_int_arg, default=0, dest="min_size")
    p.add_argument("--max-size", type=_int_arg, required=True, dest="max_size")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_spectrum)

    return parser


# built on the first call of main, not at import; parse_args leaves it unchanged
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        result = args.handler(args)
    except (ValueError, RuntimeError, OverflowError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    text = result if isinstance(result, str) else _to_json(result) + "\n"
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``mstd ... | head``).  Point stdout at
        # devnull so the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
