"""Command-line frontend: one subcommand per computation, JSON output.

    raag --graph PATH COMMAND [ARGS]

The command line is read against `COMMANDS`, one immutable table: `--graph`
comes before the command; after it, positionals and options come in any
order, an option as `--name value` or `--name=value` (the value may start
with `-`), and `--` ends the options.  Options are spelled in full.  `-h` or
`--help` prints the usage, built from the table, and exits 0.

Each command reads its input and formats what the library answers, in
`_answer`, the one place that shapes an answer: `ranks` takes the tuples of
`lie.series_ranks`, and with `--check span` also `lie.span_ranks`, the two
routes `verify-all` compares; `valuation` takes `magnus.valuations`.
Every `--p` given, and `RAAG_MAX_STATES`, is checked once, before any
work; a p goes through `series.Fp`, so a bad one gets the same message on
every command.

Big integers are printed as decimal strings so downstream consumers never
lose precision, however many digits they have: Python's 4,300-digit limit on
int-to-str conversion is lifted once the graph and the words are read, and
what they admit is charged to the work caps (a syllable's binomials by their
digits), which exit 3 past the cap.  Exit codes: 0 success, 1 verification
failure, 2 parse error, 3 resource bound exceeded.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from raag.errors import RaagError, ResourceLimitError, decimal_int, max_states
from raag.graph import Graph, clique_counts
from raag.growth import phi_A, phi_A_ratfunc, phi_R, phi_R_ratfunc, phi_S
from raag.koszul import verify_resolution
from raag.lie import series_ranks, span_ranks
from raag.magnus import magnus, valuations
from raag.series import Domain, DomainError, Fp, Q, Z
from raag.verify import verify_all
from raag.words import (GroupWord, format_word, multiply, parse_word,
                        sphere_sizes, word_length)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3

# One row per command: (name, help, positionals, options).  An option is
# (name, default, choices, help); one with no choices takes an int.
COMMANDS = (
    ("cliques", "enumerate cliques and their counts", (), ()),
    ("nf", "canonical form of a word", ("word",), ()),
    ("mul", "product of two words, in canonical form", ("left", "right"), ()),
    ("growth", "growth series of the group", (), (
        ("upto", 12, (), "number of coefficients"),
        ("oracle", None, (), "also count spheres up to this radius from the "
                             "streamed geodesic words"),
    )),
    ("poincare", "Poincare series data", (), ()),
    ("magnus", "truncated series image of a word", ("word",), (
        ("order", 8, (), "truncation order"),
        ("domain", "Z", ("Z", "Q", "Fp"), "coefficient domain"),
        ("p", None, (), "the prime of Fp"),
    )),
    ("valuation", "filtration valuations of a word", ("word",), (
        ("order", 8, (), "truncation order"),
        ("domain", "Q", ("Z", "Q", "Fp"), "coefficient domain"),
        ("p", 3, (), "the prime of Fp and of the p-valuation"),
        ("depth", None, (), "also answer membership in the given dimension "
                            "subgroup"),
    )),
    ("ranks", "graded Lie algebra ranks", (), (
        ("kind", "lcs", ("lcs", "restricted", "lambda"),
         "lower central, restricted (p-central) or exponent-p"),
        ("p", 3, (), "the prime of the restricted and exponent-p kinds"),
        ("upto", 6, (), "highest degree"),
        ("check", None, ("span",), "also compute every degree by the bracket "
                                   "span and exit 1 if the routes disagree"),
    )),
    ("koszul", "resolution certificate", (), (
        ("upto", 6, (), "check the basis below this total degree"),
        ("domain", "Q", ("Q", "Fp"), "coefficient domain"),
        ("p", None, (), "the prime of Fp"),
    )),
    ("verify-all", "run the full cross-check suite", (), (
        ("p", 3, (), "the prime of the p-central and exponent-p checks"),
    )),
)


class _UsageError(RaagError):
    """A command line that `COMMANDS` does not admit."""


def _usage(row=None) -> str:
    """The help text: the list of commands, or one command's synopsis and
    options."""
    if row is None:
        lines = ["usage: raag --graph PATH COMMAND [ARGS]", "", "commands:"]
        lines += [f"  {name:<11} {text}" for name, text, _, _ in COMMANDS]
        lines += ["", "raag --graph PATH COMMAND --help describes one "
                  "command."]
        return "\n".join(lines) + "\n"
    name, text, positionals, options = row
    metavar = {o: "|".join(choices) or "INT" for o, _, choices, _ in options}
    synopsis = [name, *(p.upper() for p in positionals),
                *(f"[--{o} {metavar[o]}]" for o, _, _, _ in options)]
    lines = ["usage: raag --graph PATH " + " ".join(synopsis), "", text]
    if options:
        lines += ["", "options:"]
        for o, default, _, help_text in options:
            flag = f"--{o} {metavar[o]}"
            if default is not None:
                help_text += f" (default {default})"
            lines.append(f"  {flag:<22} {help_text}")
    return "\n".join(lines) + "\n"


def _value(option, text: str):
    """The value of `option` read from `text`: one of its choices, or an
    int."""
    name, _, choices, _ = option
    if choices:
        if text not in choices:
            raise _UsageError(f"--{name}: {text!r} is not one of "
                              f"{', '.join(choices)}")
        return text
    if (value := decimal_int(text, signed=True)) is None:
        raise _UsageError(f"--{name}: {text!r} is not an int")
    return value


def _parse(argv: list[str]):
    """The namespace that `run` reads, or the help text if argv asks for
    it.  A command line that `COMMANDS` does not admit raises _UsageError."""
    args = SimpleNamespace(graph=None)
    rest = iter(argv)
    for tok in rest:
        if tok in ("-h", "--help"):
            return _usage()
        name, eq, text = tok.partition("=")
        if name == "--graph":
            args.graph = text if eq else next(rest, None)
            if args.graph is None:
                raise _UsageError("--graph needs a value")
        elif tok.startswith("-"):
            raise _UsageError(f"unknown option {tok!r}")
        else:
            break
    else:
        raise _UsageError("no command given")
    row = next((r for r in COMMANDS if r[0] == tok), None)
    if row is None:
        raise _UsageError(f"unknown command {tok!r}; the commands are "
                          f"{', '.join(r[0] for r in COMMANDS)}")
    args.command, _, positionals, options = row
    by_name = {o[0]: o for o in options}
    for o, default, _, _ in options:
        setattr(args, o, default)
    given = []
    for tok in rest:
        name, eq, text = tok.partition("=")
        option = by_name.get(name[2:]) if name.startswith("--") else None
        if tok == "--":
            given.extend(rest)
        elif tok in ("-h", "--help"):
            return _usage(row)
        elif option is not None:
            if not eq:
                text = next(rest, None)
                if text is None:
                    raise _UsageError(f"{name} needs a value")
            setattr(args, option[0], _value(option, text))
        elif tok.startswith("--") and " " not in tok:
            raise _UsageError(f"{args.command}: unknown option {tok!r}")
        else:
            # as with argparse, a word with a space ("--x y") is a positional
            given.append(tok)
    if len(given) != len(positionals):
        want = " ".join(p.upper() for p in positionals) or "no positional"
        raise _UsageError(f"{args.command} takes {want}, got {len(given)} "
                          f"positional{'s' if len(given) != 1 else ''}")
    for name, tok in zip(positionals, given):
        setattr(args, name, tok)
    if args.graph is None:
        raise _UsageError("--graph PATH is required")
    return args


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return Graph.from_json(fh.read())


def _domain(args) -> Domain:
    # each caller's command has a --domain option, whose choices `_value` checks
    if args.domain != "Fp":
        return Z if args.domain == "Z" else Q
    if args.p is None:
        raise DomainError("--domain Fp needs --p")
    return Fp(args.p)


def _by_degree(ranks: tuple[int, ...]) -> dict[str, int]:
    return {str(n): r for n, r in enumerate(ranks, 1)}


def _emit(obj) -> None:
    # one line of compact JSON: json.dumps runs the C encoder, which
    # json.dump never does; the newline is written apart, so the answer is
    # not copied
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")


def run(args) -> int:
    max_states()  # a bad RAAG_MAX_STATES exits 2 before any work
    g = _load_graph(args.graph)
    # the graph JSON and the words (every positional is one) are read under
    # Python's limit on the digits of an int, which keeps a huge number
    # there from taking seconds to parse; the answers are charged to the
    # work caps instead, so they print whole
    row = next(r for r in COMMANDS if r[0] == args.command)
    words = [parse_word(getattr(args, name), g) for name in row[2]]
    # every --p given is checked once, before any work
    if getattr(args, "p", None) is not None:
        Fp(args.p)
    # dimension subgroups start at delta_1
    if getattr(args, "depth", None) is not None and args.depth < 1:
        raise DomainError(f"--depth must be >= 1, got {args.depth}")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _answer(g, args, words)
    finally:
        sys.set_int_max_str_digits(limit)


def _answer(g: Graph, args, words: list[GroupWord]) -> int:
    cmd = args.command
    ok = True  # False when a check of the answer fails

    if cmd == "cliques":
        _emit({
            "cliques": [list(c) for c in g.cliques()],
            "counts": clique_counts(g),
        })
    elif cmd == "nf":
        w, = words
        _emit({"input": args.word, "normal_form": format_word(w),
               "length": word_length(w)})
    elif cmd == "mul":
        u, v = words
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
        w, = words
        x = magnus(w, g, _domain(args), args.order)
        # a trace is a list of vertex names: joined, they are ambiguous once
        # a name is the concatenation of others
        _emit({"word": format_word(w), "order": args.order,
               "series": [{"trace": t, "coeff": str(c)}
                          for t, c in x.sorted_terms()]})
    elif cmd == "valuation":
        w, = words
        val, pval = valuations(w, g, args.order, _domain(args), args.p)
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
        # the series ranks come first, so bad input exits 2 before any span
        # work
        ranks = series_ranks(g, args.kind, args.p, args.upto)
        kind, method = {"lcs": ("lower_central", "series_recursion"),
                        "restricted": ("restricted", "series_recursion"),
                        "lambda": ("exponent_p", "partial_sums")}[args.kind]
        out = {"kind": kind, "method": method,
               "p": None if args.kind == "lcs" else args.p,
               "values": _by_degree(ranks)}
        if args.check is not None:
            span = span_ranks(g, args.kind, args.p, args.upto)
            ok = span == ranks
            out["check"] = {"method": "bracket_span", "ok": ok,
                            "values": _by_degree(span)}
        _emit(out)
    elif cmd == "koszul":
        rep = verify_resolution(g, args.upto, _domain(args))
        ok = rep.ok
        out = {"ok": ok, "checked": rep.checked}
        if not ok:
            clique, trace = rep.counterexample
            out["counterexample"] = {"clique": clique, "trace": trace}
            out["reason"] = rep.reason
        _emit(out)
    elif cmd == "verify-all":
        results = verify_all(g, p=args.p)
        ok = all(r.ok for r in results)
        _emit({"checks": [{"name": r.name, "ok": r.ok, "detail": r.detail}
                          if r.detail else {"name": r.name, "ok": r.ok}
                          for r in results], "ok": ok})
    return EXIT_OK if ok else EXIT_VERIFY


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if isinstance(args, str):
        sys.stdout.write(args)
        return EXIT_OK
    try:
        return run(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (RaagError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
