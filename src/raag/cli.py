"""Command-line frontend: one subcommand per computation, JSON output.

Big integers are printed as decimal strings so downstream consumers never
lose precision.  Exit codes: 0 success, 1 verification failure, 2 parse
error, 3 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from raag.errors import RaagError, ResourceLimitError
from raag.graph import Graph, GraphError, clique_counts
from raag.growth import phi_A, phi_A_ratfunc, phi_R, phi_R_ratfunc, phi_S
from raag.koszul import verify_resolution
from raag.lie import lambda_dims, series_rank_lcs, series_rank_restricted
from raag.magnus import _omega, _omega_p, magnus
from raag.series import Domain, DomainError, Fp, Q, Z
from raag.verify import verify_all
from raag.words import (format_word, multiply, parse_word, sphere_sizes,
                        word_length)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return Graph.from_json(fh.read())


def _domain(args) -> Domain:
    tag = getattr(args, "domain", "Z")
    if tag == "Z":
        return Z
    if tag == "Q":
        return Q
    if tag == "Fp":
        if args.p is None:
            raise DomainError("--domain Fp needs --p")
        return Fp(args.p)
    raise DomainError(f"unknown domain {tag!r}")


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="raag")
    ap.add_argument("--graph", required=True, help="path to a graph JSON file")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("cliques", help="enumerate cliques and their counts")

    p = sub.add_parser("nf", help="canonical form of a word")
    p.add_argument("word")

    p = sub.add_parser("mul", help="product of two words, in canonical form")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("growth", help="growth series of the group")
    p.add_argument("--upto", type=int, default=12)
    p.add_argument("--oracle", type=int, default=None,
                   help="also count spheres up to this radius from the "
                        "streamed geodesic words")

    sub.add_parser("poincare", help="Poincare series data")

    p = sub.add_parser("magnus", help="truncated series image of a word")
    p.add_argument("word")
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--domain", choices=["Z", "Q", "Fp"], default="Z")
    p.add_argument("--p", type=int, default=None)

    p = sub.add_parser("valuation", help="filtration valuations of a word")
    p.add_argument("word")
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--domain", choices=["Z", "Q", "Fp"], default="Q")
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--depth", type=int, default=None,
                   help="also answer membership in the given dimension subgroup")

    p = sub.add_parser("ranks", help="graded Lie algebra ranks")
    p.add_argument("--kind", choices=["lcs", "restricted", "lambda"],
                   default="lcs")
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--upto", type=int, default=6)

    p = sub.add_parser("koszul", help="resolution certificate")
    p.add_argument("--upto", type=int, default=6)
    p.add_argument("--domain", choices=["Q", "Fp"], default="Q")
    p.add_argument("--p", type=int, default=None)

    p = sub.add_parser("verify-all", help="run the full cross-check suite")
    p.add_argument("--p", type=int, default=3)

    return ap


def run(args) -> int:
    g = _load_graph(args.graph)
    cmd = args.command

    if cmd == "cliques":
        _emit({
            "cliques": [list(c) for c in g.cliques()],
            "counts": clique_counts(g),
        })
    elif cmd == "nf":
        w = parse_word(args.word, g)
        _emit({"input": args.word, "normal_form": format_word(w),
               "length": word_length(w)})
    elif cmd == "mul":
        u = parse_word(args.left, g)
        v = parse_word(args.right, g)
        _emit({"product": format_word(multiply(u, v, g))})
    elif cmd == "growth":
        out = {
            "series": [str(c) for c in phi_A(g, args.upto)],
            "closed_form": str(phi_A_ratfunc(g)),
        }
        if args.oracle is not None:
            out["oracle"] = [str(c) for c in sphere_sizes(g, args.oracle)]
        _emit(out)
    elif cmd == "poincare":
        _emit({
            "phi_S": [str(c) for c in phi_S(g)],
            "phi_R": [str(c) for c in phi_R(g, 12)],
            "phi_R_closed_form": str(phi_R_ratfunc(g)),
        })
    elif cmd == "magnus":
        w = parse_word(args.word, g)
        x = magnus(w, g, _domain(args), args.order)
        _emit({"word": format_word(w), "order": args.order,
               "series": x.to_json_obj()})
    elif cmd == "valuation":
        w = parse_word(args.word, g)
        dom = _domain(args)
        # one integer image: Z -> Q and Z -> F_p are ring maps, so the
        # image over `dom` is this one, mapped
        image = magnus(w, g, Z, args.order)
        val = _omega(image.map_domain(dom))
        pval = _omega_p(image, args.p)
        out = {
            "word": format_word(w),
            "order": args.order,
            "omega_valuation": {"value": val.value, "decided": val.decided},
            "omega_p_valuation": {"p": args.p, "value": pval.value,
                                  "decided": pval.decided},
        }
        if args.depth is not None:
            out["dimension_subgroup"] = val.membership(args.depth)
        _emit(out)
    elif cmd == "ranks":
        if args.kind == "lcs":
            table = series_rank_lcs(g, args.upto)
        elif args.kind == "restricted":
            table = series_rank_restricted(g, args.p, args.upto)
        else:
            table = lambda_dims(g, args.p, args.upto)
        _emit(table.to_json_obj())
    elif cmd == "koszul":
        rep = verify_resolution(g, args.upto, _domain(args))
        _emit(rep.to_json_obj())
        if not rep.ok:
            return EXIT_VERIFY
    elif cmd == "verify-all":
        results = verify_all(g, p=args.p)
        _emit({"checks": [r.to_json_obj() for r in results],
               "ok": all(r.ok for r in results)})
        if not all(r.ok for r in results):
            return EXIT_VERIFY
    return EXIT_OK


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        return run(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (GraphError, DomainError, RaagError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
