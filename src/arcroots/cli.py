"""Command-line surface: exploration, conversions, Schur decisions, export.

Every subcommand prints a single JSON value on standard output, except
export-dot which prints DOT text.  Exit codes: 0 on success, 1 on a
negative verdict under --strict, 2 on bad input of any kind.

Quivers are read from JSON files of the shape {"b": [[...], ...]} and
normalized before use, so the vertex numbering seen in paths and reports
is always the natural one.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import Sequence

from .arcs import (
    Arc,
    arc_to_reflection,
    canonicalize_arc,
    reflection_to_arc,
    tuple_verdict,
)
from .dot import NODE_CAP, cayley_fragment_dot, exchange_tree_dot
from .embedding import is_embeddable
from .errors import ArcrootsError, DepthExhausted, NotEmbeddable
from .explore import ALL_CHECKS, complete_arc, explore, schur_by_search
from .quiver import ExchangeMatrix, normalized
from .roots import (
    all_weights_two_gram,
    cartan_companion,
    initial_seed,
    mutate_seed,
    root_to_reflection,
)
from .words import canonical_reflection


def _ints(text: str, what: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}") from None


def _load_quiver(path: str) -> ExchangeMatrix:
    with open(path) as fh:
        data = json.load(fh)
    matrix, _ = normalized(ExchangeMatrix.from_json(data))
    if not matrix.is_two_complete():
        raise ValueError(f"{path}: matrix is not 2-complete")
    return matrix


def _parse_arc_token(token: str) -> Arc:
    if ":" in token:
        left, right = token.split(":", 1)
        return canonicalize_arc(_ints(left, "crossings"), int(right))
    return canonicalize_arc((), int(token))


def _parse_verify(flag: str | None) -> tuple[str, ...]:
    if flag is None:
        return ()
    if flag == "all":
        return ALL_CHECKS
    return tuple(name.strip() for name in flag.split(",") if name.strip())


def _emit(payload, out: str | None) -> None:
    text = payload if isinstance(payload, str) else json.dumps(payload) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def cmd_explore(args: argparse.Namespace) -> int:
    matrix = _load_quiver(args.quiver)
    checks = _parse_verify(args.verify)
    if args.out is not None:
        with open(args.out, "w") as fh:
            report = explore(
                matrix,
                args.depth,
                checks=checks,
                sink=lambda seed: fh.write(json.dumps(seed.to_json()) + "\n"),
            )
    else:
        report = explore(matrix, args.depth, checks=checks)
    print(json.dumps(report.to_json()))
    return 1 if args.strict and report.violations else 0


def cmd_check_tuple(args: argparse.Namespace) -> int:
    if args.words is not None:
        arcs = [
            reflection_to_arc(canonical_reflection(_ints(w, "word")))
            for w in args.words
        ]
    else:
        arcs = [_parse_arc_token(token) for token in args.arcs]
    gram = None
    if args.quiver is not None:
        gram = cartan_companion(_load_quiver(args.quiver))
    verdict = tuple_verdict(arcs, gram)
    print(json.dumps(verdict.to_json()))
    return 1 if args.strict and not verdict.is_yseed else 0


def cmd_arc2refl(args: argparse.Namespace) -> int:
    a = canonicalize_arc(_ints(args.crossings, "crossings"), args.endpoint)
    print(json.dumps(list(arc_to_reflection(a).word)))
    return 0


def cmd_refl2arc(args: argparse.Namespace) -> int:
    r = canonical_reflection(_ints(args.word, "word"))
    print(json.dumps(reflection_to_arc(r).to_json()))
    return 0


def cmd_root2refl(args: argparse.Namespace) -> int:
    u = _ints(args.root, "root")
    if not u:
        raise ValueError("root must be nonempty")
    if args.quiver is not None:
        gram = cartan_companion(_load_quiver(args.quiver))
        if gram.n != len(u):
            raise ValueError(f"root has {len(u)} coordinates, matrix rank is {gram.n}")
    else:
        gram = all_weights_two_gram(len(u))
    print(json.dumps(list(root_to_reflection(u, gram).word)))
    return 0


def cmd_schur(args: argparse.Namespace) -> int:
    matrix = _load_quiver(args.quiver)
    r = canonical_reflection(_ints(args.word, "word"))
    top = max(r.letters())
    if top > matrix.n:
        raise ValueError(f"word uses generator s{top}, matrix rank is {matrix.n}")
    embeddable, _ = is_embeddable(reflection_to_arc(r), args.cap)
    outcome = schur_by_search(r, matrix, args.depth)
    print(json.dumps({"embeddable": embeddable, "search": outcome.to_json()}))
    return 1 if args.strict and not embeddable else 0


def cmd_complete_arc(args: argparse.Namespace) -> int:
    matrix = _load_quiver(args.quiver)
    a = canonicalize_arc(_ints(args.crossings, "crossings"), args.endpoint)
    try:
        seed = complete_arc(a, matrix, args.depth, cap=args.cap)
    except (NotEmbeddable, DepthExhausted) as exc:
        print(json.dumps({"found": False, "reason": str(exc)}))
        return 1 if args.strict else 0
    print(json.dumps({"found": True, "seed": seed.to_json()}))
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    matrix = _load_quiver(args.quiver)
    seed = initial_seed(matrix)
    if args.target == "exchange-tree":
        if args.depth is None:
            raise ValueError("--depth is required for exchange-tree")
        text = exchange_tree_dot(seed, args.depth, node_cap=args.cap)
    else:
        for k in _ints(args.path or "", "path"):
            if not 1 <= k <= matrix.n:
                raise ValueError(f"path step {k} out of range 1..{matrix.n}")
            seed = mutate_seed(seed, k)
        text = cayley_fragment_dot(seed, node_cap=args.cap)
    _emit(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcroots",
        description="exchange trees, reflections, arcs, and real Schur roots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explore", help="enumerate the exchange tree, verifying seeds")
    p.add_argument("--quiver", required=True, help="quiver JSON file")
    p.add_argument("--depth", type=int, required=True, help="mutation tree depth")
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
    p.add_argument("--endpoint", type=int, required=True, help="endpoint puncture")
    p.set_defaults(func=cmd_arc2refl)

    p = sub.add_parser("refl2arc", help="reflection word to arc")
    p.add_argument("--word", required=True, help="comma-separated generator indices")
    p.set_defaults(func=cmd_refl2arc)

    p = sub.add_parser("root2refl", help="root vector to reflection word")
    p.add_argument("--root", required=True, help="comma-separated coordinates")
    p.add_argument("--quiver", default=None, help="pairing from this quiver instead of all weights 2")
    p.set_defaults(func=cmd_root2refl)

    p = sub.add_parser("schur", help="decide real-Schur-rootness by embedding and by search")
    p.add_argument("--word", required=True, help="reflection word")
    p.add_argument("--quiver", required=True, help="quiver JSON file")
    p.add_argument("--depth", type=int, default=8, help="mutation search depth (default 8)")
    p.add_argument("--cap", type=int, default=12, help="embedding crossing cap (default 12)")
    p.add_argument("--strict", action="store_true", help="exit 1 when not embeddable")
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("complete-arc", help="complete an embeddable arc to a Y-seed")
    p.add_argument("--crossings", default="", help="comma-separated ray indices, may be empty")
    p.add_argument("--endpoint", type=int, required=True, help="endpoint puncture")
    p.add_argument("--quiver", required=True, help="quiver JSON file")
    p.add_argument("--depth", type=int, default=8, help="mutation search depth (default 8)")
    p.add_argument("--cap", type=int, default=12, help="embedding crossing cap (default 12)")
    p.add_argument("--strict", action="store_true", help="exit 1 when no seed is found")
    p.set_defaults(func=cmd_complete_arc)

    p = sub.add_parser("export-dot", help="emit DOT text")
    p.add_argument("target", choices=("exchange-tree", "cayley-fragment"))
    p.add_argument("--quiver", required=True, help="quiver JSON file")
    p.add_argument("--depth", type=int, default=None, help="tree depth (exchange-tree)")
    p.add_argument("--path", default=None, help="mutation path to the drawn seed (cayley-fragment)")
    p.add_argument("--cap", type=int, default=NODE_CAP, help=f"node cap (default {NODE_CAP})")
    p.add_argument("--out", default=None, help="write DOT here instead of stdout")
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ArcrootsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
