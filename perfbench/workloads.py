"""Seeded inputs, job lists, reference answers and answer checks.

The seed only renames and reorders the vertices of each graph and draws
the random group words.  Ranks, trace counts and growth coefficients do
not depend on vertex names or order, so the reference values below hold
for every seed; canonical forms, and the cost of computing them, do change.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BASELINE_SEED = 1
HELDOUT_SEED = 7919

# C5 is the 5-cycle; R5 is the test suite's "random" graph, a triangle
# a-b-c with pendants d (on b) and e (on c).
BASE_GRAPHS = {
    "C5": {"vertices": ["a", "b", "c", "d", "e"],
           "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "a"]]},
    "R5": {"vertices": ["a", "b", "c", "d", "e"],
           "edges": [["a", "b"], ["a", "c"], ["b", "c"], ["b", "d"], ["c", "e"]]},
}

# Reference answers, recorded from the seed implementation and consistent
# with its independent routes (series recursion = bracket span, growth
# series = BFS oracle).
REFERENCE = {
    "C5.lcs": [5, 5, 15, 40, 124, 365, 1160, 3650, 11800, 38374],
    "C5.restricted2": [5, 10, 15, 50, 124, 380, 1160, 3700, 11800, 38498],
    "R5.restricted2": [5, 10, 16, 55, 144, 456],
    "R5.restricted3": [5, 5, 21, 45, 144, 445, 1440, 4680, 15621],
    "R5.lambda5": [5, 10, 26, 71, 215, 655, 2095, 6775, 22375],
    "C5.koszul7.checked": 13761,
    "verify_all.checks": 13,
    "C5.growth40": [
        1, 10, 70, 450, 2830, 17690, 110390, 688530, 4293950, 26777770,
        166988710, 1041354210, 6493957870, 40496766650, 252540596630,
        1574860339890, 9820936156190, 61244025510730, 381921906367750,
        2381690970323970, 14852386792546510, 92620493666808410,
        577587694616455670, 3601876126596752850, 22461544371993010430,
        140071717583379802090, 873496752575115301990,
        5447185127183744592930, 33969016739143688421550,
        211833097514128316850170, 1321005595982445962164310,
        8237880695204156211962610, 51371984005826344111893470,
        320359184399365034563559050, 1997781651130830491277644230,
        12458302180653628550022004290, 77690819282789892996121947790,
        484485230275129229918733535130, 3021282830090345016392526855350,
        18840925107696338602034145956370,
    ],
}


class WrongAnswer(Exception):
    """A job returned, but its answer is not the expected one."""


# -- seeded inputs -----------------------------------------------------


def relabel(base: dict, rng: random.Random) -> tuple[dict, dict[str, str]]:
    """Rename the vertices to distinct random letters and shuffle the
    declaration order, the edge order and each edge's orientation; returns
    the graph and the renaming."""
    names = rng.sample(string.ascii_letters, len(base["vertices"]))
    rename = dict(zip(base["vertices"], names))
    vertices = [rename[v] for v in base["vertices"]]
    rng.shuffle(vertices)
    edges = [[rename[u], rename[v]] for u, v in base["edges"]]
    for e in edges:
        rng.shuffle(e)
    rng.shuffle(edges)
    return {"vertices": vertices, "edges": edges}, rename


def _adjacency(graph: dict) -> dict[str, set[str]]:
    adj = {v: set() for v in graph["vertices"]}
    for u, v in graph["edges"]:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def reduced_word(graph: dict, rng: random.Random, length: int,
                 max_exp: int) -> list[tuple[str, int]]:
    """A random reduced syllable word of exactly `length` letters.

    A syllable v^e may follow a reduced word unless v can meet an earlier
    v-syllable by commuting moves, i.e. unless every syllable after that
    v-syllable commutes with v.  Word length is then the sum of |e|.
    """
    adj = _adjacency(graph)
    word: list[tuple[str, int]] = []
    total = 0
    while total < length:
        v = rng.choice(graph["vertices"])
        e = rng.randint(1, min(max_exp, length - total)) * rng.choice((1, -1))
        for u, _ in reversed(word):
            if u == v:
                break
            if u not in adj[v]:
                word.append((v, e))
                total += abs(e)
                break
        else:
            word.append((v, e))
            total += abs(e)
    return word


def inverse(word: list[tuple[str, int]]) -> list[tuple[str, int]]:
    return [(v, -e) for v, e in reversed(word)]


def scramble(graph: dict, word: list[tuple[str, int]], rng: random.Random,
             pairs: int, swaps: int) -> list[tuple[str, int]]:
    """The same group element, written differently: split syllables, insert
    x^e x^-e pairs, then swap adjacent commuting syllables at random."""
    adj = _adjacency(graph)
    out: list[tuple[str, int]] = []
    for v, e in word:
        if abs(e) > 1 and rng.random() < 0.5:
            sign = 1 if e > 0 else -1
            k = rng.randint(1, abs(e) - 1)
            out += [(v, sign * k), (v, e - sign * k)]
        else:
            out.append((v, e))
    for _ in range(pairs):
        i = rng.randint(0, len(out))
        x = rng.choice(graph["vertices"])
        e = rng.choice((1, -1, 2, -2))
        out[i:i] = [(x, e), (x, -e)]
    for _ in range(swaps):
        if len(out) < 2:
            break
        i = rng.randrange(len(out) - 1)
        (u, _), (w, _) = out[i], out[i + 1]
        if u == w or w in adj[u]:
            out[i], out[i + 1] = out[i + 1], out[i]
    return out


def word_text(word: list[tuple[str, int]]) -> str:
    if not word:
        return "1"
    return " ".join(v if e == 1 else f"{v}^{e}" for v, e in word)


# -- parsing CLI output ------------------------------------------------
# Checks compare parsed fields, never raw bytes, and accept both the
# current string encodings and plain JSON numbers / name lists.


def _ints(values) -> list[int]:
    if isinstance(values, dict):
        return [int(values[str(n)]) for n in range(1, len(values) + 1)]
    return [int(v) for v in values]


def _series_terms(series) -> dict[tuple, int]:
    # a trace is printed either as a string of one-letter names or as a list
    return {tuple(t["trace"]): int(t["coeff"]) for t in series}


def _json(out: str) -> dict:
    try:
        return json.loads(out)
    except (TypeError, json.JSONDecodeError) as exc:
        raise WrongAnswer(f"output is not JSON: {exc}") from None


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


# -- jobs --------------------------------------------------------------

Check = Callable[[object, dict], object]


@dataclass
class Job:
    """One process: a CLI call (`cli`, the arguments after --graph) or a
    library call (`call` with keyword `args`, see child.LIBRARY)."""

    name: str
    graph: str
    check: Check
    cli: list[str] | None = None
    call: str | None = None
    args: dict = field(default_factory=dict)

    def spec(self, graph_paths: dict[str, str]) -> dict:
        spec = {"name": self.name, "graph": graph_paths[self.graph]}
        if self.cli is not None:
            spec["cli"] = self.cli
        else:
            spec["call"] = self.call
            spec["args"] = self.args
        return spec


def _rank_check(want: list[int]) -> Check:
    def check(out, earlier):
        got = _ints(_json(out)["values"])
        _expect(got == want, f"ranks {got} != reference {want}")
        return got
    return check


def _span_check(want: list[int]) -> Check:
    def check(out, earlier):
        got = [int(v) for v in out]
        _expect(got == want, f"span ranks {got} != reference {want}")
        return got
    return check


def _verify_all_check(min_checks: int) -> Check:
    def check(out, earlier):
        d = _json(out)
        checks = d["checks"]
        _expect(d["ok"] is True and all(c["ok"] is True for c in checks),
                "verify-all reported a failed check")
        _expect(len(checks) >= min_checks,
                f"verify-all ran {len(checks)} checks, fewer than {min_checks}")
        return len(checks)
    return check


def _koszul_check(want_checked: int) -> Check:
    def check(out, earlier):
        d = _json(out)
        _expect(d["ok"] is True, "koszul certificate not ok")
        checked = int(d["checked"])
        _expect(checked == want_checked,
                f"koszul checked {checked} != reference {want_checked}")
        return checked
    return check


def _growth_check(want: list[int], radius: int) -> Check:
    def check(out, earlier):
        d = _json(out)
        series, oracle = _ints(d["series"]), _ints(d["oracle"])
        _expect(series == want, "growth series != reference")
        _expect(len(oracle) == radius + 1 and oracle == series[:radius + 1],
                f"BFS oracle {oracle} != series prefix")
        return series
    return check


def _check_identity(out, earlier):
    product = _json(out)["product"]
    _expect(product in ("1", []), f"U * V = {product!r}, expected 1")
    return product


def _nf_check(length: int) -> Check:
    def check(out, earlier):
        got = int(_json(out)["length"])
        _expect(got == length, f"nf length {got} != built length {length}")
        return got
    return check


def _check_magnus(out, earlier):
    d = _json(out)
    terms = _series_terms(d["series"])
    _expect(terms.get((), None) == 1, "magnus image has constant term != 1")
    return {"word": d["word"], "terms": terms}


def _magnus_again_check(first: str) -> Check:
    def check(out, earlier):
        got = _check_magnus(out, earlier)
        _expect(first in earlier, f"{first} has no answer to compare with")
        _expect(got == earlier[first],
                "two scrambles of one element give different magnus images")
        return got
    return check


def _valuation_check(magnus_job: str, order: int, p: int) -> Check:
    """omega and omega_p valuations, recomputed from the magnus job's
    integer image of the same element."""
    def check(out, earlier):
        d = _json(out)
        _expect(magnus_job in earlier, f"{magnus_job} has no answer to compare with")
        terms = earlier[magnus_job]["terms"]
        degrees = [len(t) for t, c in terms.items() if t and c]
        omega = min(degrees, default=order)

        def vp(c):
            v = 0
            while c % p == 0:
                c //= p
                v += 1
            return v
        omega_p = min([order] + [len(t) + vp(c) for t, c in terms.items() if t and c])
        got = (int(d["omega_valuation"]["value"]),
               bool(d["omega_valuation"]["decided"]),
               int(d["omega_p_valuation"]["value"]),
               bool(d["omega_p_valuation"]["decided"]))
        want = (omega, omega < order, omega_p, omega_p < order)
        _expect(got == want, f"valuations {got} != {want} from the magnus image")
        return got
    return check


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    largest: str  # the frontier job whose solve time is slowest_job_s


def make_inputs(seed: int, out_dir: Path):
    """Write the seeded graph files; returns the graphs, their renamings,
    their paths and the generator that then draws the words."""
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    graphs, renames, paths = {}, {}, {}
    for name, base in BASE_GRAPHS.items():
        graphs[name], renames[name] = relabel(base, rng)
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(graphs[name]))
        paths[name] = path.as_posix()
    return graphs, renames, paths, rng


def wrong(reference: dict) -> dict:
    """The reference with every value off by one, for the self-test."""
    return {k: v[:-1] + [v[-1] + 1] if isinstance(v, list) else v + 1
            for k, v in reference.items()}


def build(workload: str, seed: int, out_dir: Path,
          ref: dict = REFERENCE) -> tuple[Workload, dict[str, str]]:
    graphs, renames, paths, rng = make_inputs(seed, out_dir)
    if workload == "lie-series":
        w = Workload("lie-series", [
            Job("ranks-lcs-C5", "C5", _rank_check(ref["C5.lcs"]),
                cli=["ranks", "--kind", "lcs", "--upto", "10"]),
            Job("ranks-restricted2-C5", "C5", _rank_check(ref["C5.restricted2"]),
                cli=["ranks", "--kind", "restricted", "--p", "2", "--upto", "10"]),
            Job("ranks-restricted3-R5", "R5", _rank_check(ref["R5.restricted3"]),
                cli=["ranks", "--kind", "restricted", "--p", "3", "--upto", "9"]),
            Job("ranks-lambda5-R5", "R5", _rank_check(ref["R5.lambda5"]),
                cli=["ranks", "--kind", "lambda", "--p", "5", "--upto", "9"]),
        ], largest="ranks-lcs-C5")
    elif workload == "lie-span":
        w = Workload("lie-span", [
            Job("bracket-span-C5", "C5", _span_check(ref["C5.lcs"][:6]),
                call="bracket_span", args={"upto": 6}),
            Job("restricted-span2-R5", "R5", _span_check(ref["R5.restricted2"]),
                call="restricted_span", args={"p": 2, "upto": 6}),
        ], largest="bracket-span-C5")
    elif workload == "certify":
        c5, r5 = graphs["C5"], graphs["R5"]
        u = reduced_word(c5, rng, 1000, 4)
        v = scramble(c5, inverse(u), rng, pairs=100, swaps=4000)
        nf_word = reduced_word(r5, rng, 1000, 3)
        nf_input = scramble(r5, nf_word, rng, pairs=200, swaps=4000)
        # The Magnus image of a random 12-letter word costs up to 5x more
        # or less from one word to the next, which would swamp the
        # seed-to-seed comparison; so the element is one fixed word of the
        # base graph, renamed like the graph and scrambled by the seed.
        base_element = reduced_word(BASE_GRAPHS["R5"], random.Random(0), 12, 2)
        element = [(renames["R5"][v], e) for v, e in base_element]
        copies = [scramble(r5, element, rng, pairs=3, swaps=60) for _ in range(3)]
        w = Workload("certify", [
            Job("verify-all-C5", "C5", _verify_all_check(ref["verify_all.checks"]), cli=["verify-all"]),
            Job("verify-all-R5", "R5", _verify_all_check(ref["verify_all.checks"]), cli=["verify-all"]),
            Job("koszul7-C5", "C5", _koszul_check(ref["C5.koszul7.checked"]), cli=["koszul", "--upto", "7"]),
            Job("growth40-oracle5-C5", "C5", _growth_check(ref["C5.growth40"], 5),
                cli=["growth", "--upto", "40", "--oracle", "5"]),
            Job("mul-C5", "C5", _check_identity,
                cli=["mul", word_text(u), word_text(v)]),
            Job("nf-R5", "R5", _nf_check(sum(abs(e) for _, e in nf_word)),
                cli=["nf", word_text(nf_input)]),
            Job("magnus-R5", "R5", _check_magnus,
                cli=["magnus", word_text(copies[0]), "--order", "8"]),
            Job("magnus-again-R5", "R5", _magnus_again_check("magnus-R5"),
                cli=["magnus", word_text(copies[1]), "--order", "8"]),
            Job("valuation-R5", "R5", _valuation_check("magnus-R5", 8, 3),
                cli=["valuation", word_text(copies[2]), "--order", "8", "--p", "3"]),
        ], largest="koszul7-C5")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return w, paths


WORKLOADS = ("lie-series", "lie-span", "certify")
