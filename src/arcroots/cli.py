"""Command-line surface: exploration, conversions, Schur decisions, export.

Every subcommand prints a single JSON value on standard output, except
export-dot which prints DOT text.  This is the only module that writes
JSON: a result dataclass prints as dataclasses.asdict gives it, fields
in declaration order and tuples as lists, and a seed prints as
{"b": rows, "c": c-vectors, "path": path}.  Exit codes: 0 on success, 1
on a negative verdict under --strict, 2 on bad input of any kind.  Log
messages go to standard error from the level that the global --log-level
option sets, WARNING by default.

Quivers are read from JSON files of the shape {"b": [[...], ...]} and
normalized before use, so the vertex numbering seen in paths and reports
is always the natural one.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import re
import sys
from dataclasses import asdict
from typing import Sequence

from .arcs import (
    Arc,
    arc_to_reflection,
    canonicalize_arc,
    reflection_to_arc,
    tuple_verdict,
)
from .dot import NODE_CAP, cayley_fragment_dot, exchange_tree_dot
from .embedding import probe_embedding
from .errors import ArcrootsError, DepthExhausted, NotEmbeddable
from .explore import (
    ALL_CHECKS,
    SearchOutcome,
    complete_arc,
    explore,
    require_depth,
    schur_by_search,
)
from .quiver import ExchangeMatrix, normalized
from .roots import (
    YSeed,
    all_weights_two_gram,
    cartan_companion,
    initial_seed,
    mutate_seed,
    root_to_reflection,
)
from .words import below_coxeter, canonical_reflection, require_rank

# not __name__, which is "__main__" under python -m arcroots.cli
log = logging.getLogger("arcroots.cli")


def integer(text: str) -> int:
    """An optionally negative run of ASCII digits, surrounding space
    stripped.  int() alone would also take "+1", "1_0" and non-ASCII
    digits.  Named for argparse, which calls a bad value an "invalid
    integer value"."""
    token = text.strip()
    if not re.fullmatch(r"-?[0-9]+", token):
        raise ValueError(f"{text!r} is not an integer")
    return int(token)


def _ints(text: str, what: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(integer(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}") from None


def _load_quiver(path: str) -> ExchangeMatrix:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    matrix, _ = normalized(ExchangeMatrix.from_json(data))
    if matrix.n == 0:
        raise ValueError(f"{path}: a quiver needs at least one vertex")
    if not matrix.is_two_complete():
        raise ValueError(f"{path}: matrix is not 2-complete")
    return matrix


def _parse_arc_token(token: str) -> Arc:
    if ":" in token:
        left, right = token.split(":", 1)
        return canonicalize_arc(_ints(left, "crossings"), integer(right))
    return canonicalize_arc((), integer(token))


def _parse_verify(flag: str | None) -> tuple[str, ...]:
    if flag is None:
        return ()
    if flag.strip() == "all":
        return ALL_CHECKS
    names = tuple(name.strip() for name in flag.split(",") if name.strip())
    if not names:
        raise ValueError(f"--verify must name at least one check, got {flag!r}")
    return names


def seed_json(seed: YSeed) -> dict:
    """The printed view of a seed; json.dumps writes its tuples as lists."""
    return {"b": seed.matrix.rows, "c": seed.cvectors, "path": seed.path}


def cmd_explore(args: argparse.Namespace) -> int:
    matrix = _load_quiver(args.quiver)
    checks = _parse_verify(args.verify)
    with contextlib.ExitStack() as stack:
        sink = None
        if args.out is not None:
            fh = None

            def sink(seed):
                # opened on the first seed, after explore has checked its
                # input, so a rejected run leaves an existing file as it was
                nonlocal fh
                if fh is None:
                    fh = stack.enter_context(open(args.out, "w"))
                fh.write(json.dumps(seed_json(seed)) + "\n")

        report = explore(matrix, args.depth, checks=checks, sink=sink)
    print(json.dumps(asdict(report)))
    return 1 if args.strict and report.violations else 0


def cmd_check_tuple(args: argparse.Namespace) -> int:
    if args.words is not None:
        refls = [canonical_reflection(_ints(w, "word")) for w in args.words]
    else:
        refls = [arc_to_reflection(_parse_arc_token(token)) for token in args.arcs]
    gram = None
    if args.quiver is not None:
        gram = cartan_companion(_load_quiver(args.quiver))
    verdict = tuple_verdict(refls, gram)
    print(json.dumps(asdict(verdict)))
    return 1 if args.strict and not verdict.is_yseed else 0


def cmd_arc2refl(args: argparse.Namespace) -> int:
    a = canonicalize_arc(_ints(args.crossings, "crossings"), args.endpoint)
    print(json.dumps(list(arc_to_reflection(a).word)))
    return 0


def cmd_refl2arc(args: argparse.Namespace) -> int:
    r = canonical_reflection(_ints(args.word, "word"))
    print(json.dumps(asdict(reflection_to_arc(r))))
    return 0


def cmd_root2refl(args: argparse.Namespace) -> int:
    u = _ints(args.root, "root")
    if not u:
        raise ValueError("root must be nonempty")
    if args.quiver is not None:
        gram = cartan_companion(_load_quiver(args.quiver))
    else:
        gram = all_weights_two_gram(len(u))
    print(json.dumps(list(root_to_reflection(u, gram).word)))
    return 0


def cmd_schur(args: argparse.Namespace) -> int:
    matrix = _load_quiver(args.quiver)
    r = canonical_reflection(_ints(args.word, "word"))
    require_rank(r, matrix.n)
    require_depth(args.depth)
    report = probe_embedding(reflection_to_arc(r))
    embeddable = report.embeddable
    below = below_coxeter(r, matrix.n)
    if embeddable or below:
        if embeddable != below:
            log.warning(
                "schur %s: embeddable is %s but below_coxeter is %s; searching",
                r.word, embeddable, below,
            )
        outcome = schur_by_search(r, matrix, args.depth)
    else:
        # two independent proofs of the negative, so the walk would only
        # run to the depth limit and find nothing
        log.debug(
            "schur %s: not a real Schur root by embedding and by absolute order;"
            " search not run", r.word,
        )
        outcome = SearchOutcome(False, None, 0, 0, False)
    print(json.dumps({
        "embeddable": embeddable,
        "embedding": {"branches": report.branches, "search_space": report.search_space},
        "below_coxeter": below,
        "search": asdict(outcome),
    }))
    return 1 if args.strict and not embeddable else 0


def cmd_complete_arc(args: argparse.Namespace) -> int:
    matrix = _load_quiver(args.quiver)
    a = canonicalize_arc(_ints(args.crossings, "crossings"), args.endpoint)
    try:
        seed = complete_arc(a, matrix, args.depth)
    except (NotEmbeddable, DepthExhausted) as exc:
        print(json.dumps({"found": False, "reason": str(exc)}))
        return 1 if args.strict else 0
    print(json.dumps({"found": True, "seed": seed_json(seed)}))
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    # the emitters check node_cap too; this check names the flag
    if args.cap < 1:
        raise ValueError(f"--cap must be >= 1, got {args.cap}")
    seed = initial_seed(_load_quiver(args.quiver))
    if args.target == "exchange-tree":
        if args.path is not None:
            raise ValueError("--path applies to cayley-fragment, not exchange-tree")
        if args.depth is None:
            raise ValueError("--depth is required for exchange-tree")
        text = exchange_tree_dot(seed, args.depth, node_cap=args.cap)
    else:
        if args.depth is not None:
            raise ValueError("--depth applies to exchange-tree, not cayley-fragment")
        for k in _ints(args.path or "", "path"):
            seed = mutate_seed(seed, k)
        text = cayley_fragment_dot(seed, node_cap=args.cap)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then shared:
    parse_args leaves a parser as it found it, so every main call in a
    process reuses the one tree.  Callers share it and must not change it."""
    parser = argparse.ArgumentParser(
        prog="arcroots",
        description="exchange trees, reflections, arcs, and real Schur roots",
    )
    parser.add_argument(
        "--log-level",
        default="WARNING",
        type=str.upper,
        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
        help="log messages of this level and above to standard error (default WARNING)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explore", help="enumerate the exchange tree, verifying seeds")
    p.add_argument("--quiver", required=True, help="quiver JSON file")
    p.add_argument("--depth", type=integer, required=True, help="mutation tree depth")
    p.add_argument(
        "--verify",
        default=None,
        metavar="all|NAMES",
        help="per-seed checks: 'all' or a comma list from " + ", ".join(ALL_CHECKS),
    )
    p.add_argument("--out", default=None, help="stream seeds as JSON lines to this file")
    p.add_argument("--strict", action="store_true", help="exit 1 when violations are found")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("check-tuple", help="decide whether an ordered tuple is a Y-seed")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--words", nargs="+", metavar="WORD", help="reflection words like 1,2,1")
    group.add_argument(
        "--arcs", nargs="+", metavar="ARC", help="arcs as CROSSINGS:ENDPOINT like 2,1:3, or plain 3"
    )
    p.add_argument("--quiver", default=None, help="pairing from this quiver instead of all weights 2")
    p.add_argument("--strict", action="store_true", help="exit 1 when the tuple is not a Y-seed")
    p.set_defaults(func=cmd_check_tuple)

    p = sub.add_parser("arc2refl", help="arc to reflection word")
    p.add_argument("--crossings", default="", help="comma-separated ray indices, may be empty")
    p.add_argument("--endpoint", type=integer, required=True, help="endpoint puncture")
    p.set_defaults(func=cmd_arc2refl)

    p = sub.add_parser("refl2arc", help="reflection word to arc")
    p.add_argument("--word", required=True, help="comma-separated generator indices")
    p.set_defaults(func=cmd_refl2arc)

    p = sub.add_parser("root2refl", help="root vector to reflection word")
    p.add_argument("--root", required=True, help="comma-separated coordinates, like 2,1,0 or -1,0,0")
    p.add_argument("--quiver", default=None, help="pairing from this quiver instead of all weights 2")
    p.set_defaults(func=cmd_root2refl)

    p = sub.add_parser(
        "schur", help="decide real-Schur-rootness by embedding, absolute order and search"
    )
    p.add_argument("--word", required=True, help="reflection word")
    p.add_argument("--quiver", required=True, help="quiver JSON file")
    p.add_argument("--depth", type=integer, default=8, help="mutation search depth (default 8)")
    p.add_argument("--strict", action="store_true", help="exit 1 when not embeddable")
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("complete-arc", help="complete an embeddable arc to a Y-seed")
    p.add_argument("--crossings", default="", help="comma-separated ray indices, may be empty")
    p.add_argument("--endpoint", type=integer, required=True, help="endpoint puncture")
    p.add_argument("--quiver", required=True, help="quiver JSON file")
    p.add_argument("--depth", type=integer, default=8, help="mutation search depth (default 8)")
    p.add_argument("--strict", action="store_true", help="exit 1 when no seed is found")
    p.set_defaults(func=cmd_complete_arc)

    p = sub.add_parser("export-dot", help="emit DOT text")
    p.add_argument("target", choices=("exchange-tree", "cayley-fragment"))
    p.add_argument("--quiver", required=True, help="quiver JSON file")
    p.add_argument("--depth", type=integer, default=None, help="tree depth (exchange-tree)")
    p.add_argument("--path", default=None, help="mutation path to the drawn seed (cayley-fragment)")
    p.add_argument("--cap", type=integer, default=NODE_CAP, help=f"node cap (default {NODE_CAP})")
    p.add_argument("--out", default=None, help="write DOT here instead of stdout")
    p.set_defaults(func=cmd_export_dot)

    return parser


def _glued_roots(argv: Sequence[str]) -> list[str]:
    """argv with "--root TOKEN" written as "--root=TOKEN" wherever TOKEN is
    a comma list of integers led by "-": argparse would read a negative
    root such as -1,0,0 as an option and exit 2."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--root" and re.fullmatch(r"-[0-9]+(,-?[0-9]+)*", arg):
            out[-1] = "--root=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(_glued_roots(sys.argv[1:] if argv is None else argv))
    logging.getLogger("arcroots").setLevel(args.log_level)
    try:
        return args.func(args)
    except (ArcrootsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
