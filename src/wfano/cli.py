"""Command-line front end.

Subcommands wire the library into reproducible runs: monomial enumeration,
membership checks, the classification search, singularity baskets, the
normalization pipelines, symmetry groups and stabilizers, irrationality
verdicts, and a combined markdown report.  All randomness flows from --seed
(default 0), so identical invocations produce identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import catalog as cat
from . import irrational, symalg, symmetry
from .membership import membership_report, rejection
from .singular import format_non_isolated, singular_points_general
from .wspace import (
    WeightSystem,
    count_monomials,
    enumerate_monomials,
    format_monomial,
    weight_system,
)

CATALOG_ENV = "WFANO_CATALOG"

#: the most monomials ``monomials`` and ``autgroup --septuple`` will enumerate
MAX_MONOMIALS = 50_000
#: the largest --max-weight of ``classify`` and ``report``: the search reads
#: no box, so this no longer bounds its work; it stays as its refusal is pinned
MAX_SEARCH_WEIGHT = 200
#: the most digits of a ``stabilizer`` point: its literal's digits, with a
#: decimal exponent counted by its value (1e1000000 would build a
#: million-digit integer); 32 points of 100 digits take about 0.3 s on a
#: 2-vCPU host
MAX_POINT_DIGITS = 100


def _emit(args, payload: dict, markdown: str) -> None:
    text = markdown if args.format == "markdown" else json.dumps(payload, indent=1, sort_keys=True) + "\n"
    if args.out is not None:  # an empty path is refused by open, not read as stdout
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _integers(text: str) -> list[int]:  # argparse type of --septuple and --weights
    try:
        return [int(p) for p in text.replace(" ", "").split(",") if p]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of integers, got {text!r}") from None


def _ws_from_args(args) -> WeightSystem:
    if getattr(args, "septuple", None):
        if getattr(args, "weights", None) is not None or getattr(args, "degree", None) is not None:
            raise ValueError("--septuple takes no --weights or --degree")
        return weight_system(*args.septuple)
    if getattr(args, "weights", None) and getattr(args, "degree", None) is not None:
        if len(args.weights) > 5:  # weight_system would read the sixth as the degree
            raise ValueError(f"--weights takes 5 weights, got {len(args.weights)}")
        return weight_system(*args.weights, args.degree)
    raise ValueError("need --septuple a1,..,a5,d[,I] or --weights a1,..,a5 with --degree")


def _fano_ws_from_args(args) -> WeightSystem:
    """The septuple of args, refused when it fails the first stage of the chain."""
    ws = _ws_from_args(args)
    if ws.index < 1:
        raise ValueError(f"{ws} fails the Fano index stage: index {ws.index} < 1")
    return ws


def _monomials(ws: WeightSystem, degree: int) -> list:
    """The monomials of a degree, refused before any is built past the cap."""
    count = count_monomials(ws.weights, degree)
    if count > MAX_MONOMIALS:
        raise ValueError(
            f"P{ws.weights} has {count} monomials of degree {degree}, "
            f"more than the limit of {MAX_MONOMIALS}"
        )
    return enumerate_monomials(ws, degree)


def _bounds_from_args(args) -> cat.SearchBounds:
    """The search box of args, refused before any search work past the cap."""
    if args.max_weight is not None and args.max_weight > MAX_SEARCH_WEIGHT:
        raise ValueError(f"--max-weight {args.max_weight} is more than the limit of {MAX_SEARCH_WEIGHT}")
    given = {"max_weight": args.max_weight, "max_degree": args.max_degree}
    return cat.SearchBounds(**{k: v for k, v in given.items() if v is not None})


def cmd_monomials(args) -> None:
    ws = _ws_from_args(args)
    mons = _monomials(ws, args.degree)
    payload = {
        "weights": list(ws.weights),
        "degree": args.degree,
        "count": len(mons),
        "monomials": [format_monomial(m) for m in mons],
    }
    md = f"# monomials of degree {args.degree} on P{ws.weights}\n\n" + ", ".join(
        payload["monomials"]
    ) + "\n"
    _emit(args, payload, md)


def cmd_check(args) -> None:
    ws = _fano_ws_from_args(args)
    report = membership_report(ws)
    payload = {"septuple": list(ws.septuple), **report.to_dict()}
    if report.accepted:
        basket = singular_points_general(ws)
        payload["basket"] = basket.to_strings()
        payload["nonIsolated"] = format_non_isolated(basket.non_isolated)
        payload["terminal"] = basket.terminal
    md_lines = [f"# {ws}", ""]
    for key, value in payload.items():
        md_lines.append(f"- {key}: {value}")
    _emit(args, payload, "\n".join(md_lines) + "\n")


def cmd_classify(args) -> None:
    if args.index is not None and args.index < 1:
        raise ValueError(f"--index must be a Fano index, at least 1, got {args.index}")
    records = cat.classify(_bounds_from_args(args), jobs=args.jobs)
    if args.index is not None:
        records = [r for r in records if r.ws.index == args.index]
    payload = json.loads(cat.catalog_json(records))
    _emit(args, payload, cat.render_markdown(records))


def cmd_basket(args) -> None:
    ws = _fano_ws_from_args(args)
    basket = singular_points_general(ws)  # raises ValueError naming the failed stage
    payload = {
        "septuple": list(ws.septuple),
        "basket": basket.to_strings(),
        "nonIsolated": format_non_isolated(basket.non_isolated),
        "points": [str(p) for p in basket.points],
        "terminal": basket.terminal,
    }
    md = f"# singular points of a general {ws}\n\n" + "\n".join(
        f"- {line}" for line in payload["points"]
    )
    _emit(args, payload, md + "\n")


def cmd_normalize(args) -> None:
    family = args.family
    plan = symalg.builtin_plan(family)
    f = symalg.sample_family_member(family, seed=args.seed)
    g, subs = symalg.normalize(f, plan)
    reference = symalg.reference_support(family)
    payload = {
        "family": family,
        "seed": args.seed,
        "plan": plan.describe(),
        "substitutions": [s.describe() for s in subs],
        "support": [format_monomial(m) for m in sorted(g.support)],
        "supportSize": len(g.support),
        "matchesReference": g.support == reference,
    }
    md = (
        f"# normalized general member, family {family} (seed {args.seed})\n\n"
        + ", ".join(payload["support"])
        + "\n"
    )
    _emit(args, payload, md)


def cmd_autgroup(args) -> None:
    if args.family is not None:
        if (args.septuple, args.weights, args.degree) != (None, None, None):
            raise ValueError("--family takes no --septuple, --weights or --degree")
        cert = symmetry.certify_trivial_automorphisms(args.family, seed=args.seed)
        payload = cert.to_dict()
        md = f"# automorphism certificate, family {args.family}\n\n" + "\n".join(
            f"- {c}" for c in cert.checks
        )
        _emit(args, payload, md + f"\n- trivial: {cert.trivial}\n")
        return
    ws = _fano_ws_from_args(args)
    support = frozenset(_monomials(ws, ws.degree))
    group = symmetry.diagonal_symmetry_group(support, ws)
    invol, witness = symmetry.has_diagonal_involution(support, ws)
    payload = {
        "septuple": list(ws.septuple),
        "group": group.to_dict(),
        "hasInvolution": invol,
        "witnessSigns": list(symmetry.signs_from_witness(witness)) if witness else None,
    }
    _emit(args, payload, json.dumps(payload, indent=1) + "\n")


def _point_digits(text: str) -> int:
    """The digits of a point literal, its exponent counted by its value once
    the literal itself is within the cap."""
    mantissa, _, exponent = text.lower().partition("e")
    digits = sum(map(str.isdecimal, text))
    if digits <= MAX_POINT_DIGITS and re.fullmatch(r"[-+]?\d+(_\d+)*", exponent):
        digits = sum(map(str.isdecimal, mantissa)) + abs(int(exponent))
    return digits


def cmd_stabilizer(args) -> None:
    points = []
    for chunk in args.points.split(","):
        text = chunk.strip()
        if _point_digits(text) > MAX_POINT_DIGITS:
            raise ValueError(f"point {text!r} has more than {MAX_POINT_DIGITS} digits")
        try:
            points.append(symmetry.p1_point(text))
        except ZeroDivisionError:
            raise ValueError(f"point {text!r} has a zero denominator")
    maps = symmetry.pgl2_set_stabilizer(points)
    payload = {
        "points": [list(p) for p in points],
        "order": len(maps),
        "maps": [m.describe() for m in maps],
    }
    md = f"# stabilizer of {args.points}\n\n" + "\n".join(f"- {m}" for m in payload["maps"])
    _emit(args, payload, md + "\n")


def cmd_verdict(args) -> None:
    ws = _fano_ws_from_args(args)
    if rejection(ws.weights, ws.degree) is not None:
        raise ValueError(f"{ws} is not an accepted family")
    record = cat.family_record(ws)
    if not record.basket.terminal:
        raise ValueError(f"{ws} is not terminal")
    verdict = irrational.decide(record)
    payload = {"septuple": list(ws.septuple), **verdict.to_dict()}
    md_lines = [f"# degree of irrationality, {ws}", "", f"- values: {sorted(verdict.values)}"]
    md_lines += [f"- {tag}: {cite}" for tag, cite in verdict.justification]
    _emit(args, payload, "\n".join(md_lines) + "\n")


def cmd_report(args) -> None:
    # an empty --catalog fails to open; an empty WFANO_CATALOG counts as unset
    path = (os.environ.get(CATALOG_ENV) or None) if args.catalog is None else args.catalog
    if path is not None:
        records = cat.load_catalog(path)
    else:
        records = cat.classify(_bounds_from_args(args), jobs=args.jobs)
    lines = ["# classification report", "", cat.render_markdown(records)]
    lines.append("\n# verdicts\n")
    lines.append("| septuple | d(X) | general only |")
    lines.append("|----------|------|--------------|")
    verdicts = []
    for r in records:
        v = irrational.decide(r)
        verdicts.append({"septuple": list(r.septuple), **v.to_dict()})
        sept = ",".join(str(x) for x in r.septuple)
        vals = " or ".join(str(x) for x in sorted(v.values))
        lines.append(f"| {sept} | {vals} | {'yes' if v.general_only else 'no'} |")
    payload = {
        "records": [r.to_dict() for r in records],
        "verdicts": verdicts,
    }
    _emit(args, payload, "\n".join(lines) + "\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One argparse tree per process (1.5 ms to build); parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="wfano",
        description="exact classification and irrationality toolkit for weighted Fano "
        "3-fold hypersurfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, bounds=False):
        p.add_argument("--format", choices=("json", "markdown"), default="json")
        p.add_argument("--out", help="write output to this path instead of stdout")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if bounds:
            p.add_argument("--max-weight", type=int, default=None)
            p.add_argument("--max-degree", type=int, default=None)
            p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("monomials", help="enumerate weighted monomials of a degree")
    p.add_argument("--weights", type=_integers, required=True)
    p.add_argument("--degree", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_monomials, septuple=None)

    p = sub.add_parser("check", help="membership predicates of a septuple")
    p.add_argument("--septuple", type=_integers, required=True)
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="run the bounded classification search")
    p.add_argument("--index", type=int, default=None)
    common(p, bounds=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("basket", help="singular points of a general member")
    p.add_argument("--septuple", type=_integers, required=True)
    common(p)
    p.set_defaults(func=cmd_basket)

    p = sub.add_parser("normalize", help="reduce a seeded general member of a named family")
    p.add_argument("--family", type=int, required=True)
    common(p, seed=True)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("autgroup", help="diagonal symmetry group / certificate")
    p.add_argument("--family", type=int, default=None)
    p.add_argument("--septuple", type=_integers, default=None)
    p.add_argument("--weights", type=_integers, default=None)
    p.add_argument("--degree", type=int, default=None)
    common(p, seed=True)
    p.set_defaults(func=cmd_autgroup)

    p = sub.add_parser("stabilizer", help="PGL2 stabilizer of rational points on the line")
    p.add_argument("--points", required=True, help="comma list, e.g. 0,1,-1,inf")
    common(p)
    p.set_defaults(func=cmd_stabilizer)

    p = sub.add_parser("verdict", help="degree of irrationality of a family")
    p.add_argument("--septuple", type=_integers, required=True)
    common(p)
    p.set_defaults(func=cmd_verdict)

    p = sub.add_parser("report", help="full classification + verdict report")
    p.add_argument("--catalog", default=None, help=f"catalog path (or ${CATALOG_ENV})")
    common(p, bounds=True)
    p.set_defaults(func=cmd_report, format="markdown")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    try:
        if getattr(args, "seed", 0) < 0:
            # random.Random seeds with abs(n): -3 would draw the member of 3
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        args.func(args)
    except (ValueError, OSError) as exc:  # GenericityError is a ValueError
        json.dump({"error": str(exc)}, sys.stderr, indent=1)
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
