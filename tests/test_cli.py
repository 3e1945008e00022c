import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import raag.cli
import raag.lie
from raag.cli import COMMANDS, main
from raag.errors import RaagError, max_states
from raag.graph import complete_graph, cycle_graph, path_graph
from raag.lie import bracket_span_rank, restricted_span_rank
from raag.magnus import _omega, magnus
from raag.series import Fp
from raag.words import format_word, reduce_word

from conftest import SUITE, random5_graph


@pytest.fixture()
def graph_file(tmp_path):
    f = tmp_path / "p3.json"
    f.write_text(json.dumps(path_graph(3).to_dict()))
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_cliques(graph_file, capsys):
    code, out = run(capsys, "--graph", graph_file, "cliques")
    assert code == 0
    obj = json.loads(out)
    assert obj["counts"] == [1, 3, 2, 0]


def test_cliques_resource_limit(tmp_path, capsys, monkeypatch):
    # K10 has 1,024 cliques; the enumeration stops at the cap
    f = tmp_path / "k10.json"
    f.write_text(json.dumps(complete_graph(10).to_dict()))
    monkeypatch.setenv("RAAG_MAX_STATES", "100")
    assert main(["--graph", str(f), "cliques"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "resource limit: cliques: " in err


def _ambiguous_names_graph(tmp_path, edges):
    # the vertex "ab" is spelled like the product of the vertices a and b
    f = tmp_path / "ab.json"
    f.write_text(json.dumps({"vertices": ["a", "b", "ab"], "edges": edges}))
    return str(f)


def test_magnus_traces_are_name_lists(tmp_path, capsys):
    f = _ambiguous_names_graph(tmp_path, [])
    code, out = run(capsys, "--graph", f, "magnus", "a b ab", "--order", "3")
    assert code == 0
    traces = [tuple(t["trace"]) for t in json.loads(out)["series"]]
    assert len(set(traces)) == len(traces) == 7
    assert ("a", "b") in traces and ("ab",) in traces


def test_cliques_are_name_lists(tmp_path, capsys):
    f = _ambiguous_names_graph(tmp_path, [["a", "b"]])
    code, out = run(capsys, "--graph", f, "cliques")
    assert code == 0
    assert json.loads(out)["cliques"] == [[], ["a"], ["b"], ["ab"], ["a", "b"]]


def test_lambda_subcommand_is_gone(graph_file, capsys):
    # exponent-p dimensions are `ranks --kind lambda`
    assert main(["--graph", graph_file, "lambda"]) == 2


def test_nf(graph_file, capsys):
    code, out = run(capsys, "--graph", graph_file, "nf", "b a b^-1 c")
    assert code == 0
    assert json.loads(out)["normal_form"] == "a c"


def test_nf_identity(graph_file, capsys):
    code, out = run(capsys, "--graph", graph_file, "nf", "a b a^-1 b^-1")
    assert code == 0
    assert json.loads(out)["normal_form"] == "1"


def test_mul(graph_file, capsys):
    code, out = run(capsys, "--graph", graph_file, "mul", "a c", "c^-1 a")
    assert code == 0
    assert json.loads(out)["product"] == "a^2"


def test_growth_with_oracle(graph_file, capsys):
    code, out = run(capsys, "--graph", graph_file, "growth",
                    "--upto", "4", "--oracle", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["series"][:4] == ["1", "6", "22", "70"]
    assert obj["oracle"] == obj["series"][: len(obj["oracle"])]


def test_ranks(graph_file, capsys):
    code, out = run(capsys, "--graph", graph_file, "ranks",
                    "--kind", "lcs", "--upto", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["values"] == {"1": 3, "2": 1, "3": 2, "4": 3}


def test_ranks_degree_100(tmp_path, capsys):
    f = tmp_path / "c5.json"
    f.write_text(json.dumps(cycle_graph(5).to_dict()))
    code, out = run(capsys, "--graph", str(f), "ranks", "--upto", "100")
    assert code == 0
    values = json.loads(out)["values"]
    assert len(values) == 100
    assert [values[str(n)] for n in range(1, 11)] == [
        5, 5, 15, 40, 124, 365, 1160, 3650, 11800, 38374]


@pytest.mark.parametrize("args", [
    ["--kind", "restricted", "--p", "1"],
    ["--kind", "restricted", "--p", "4"],
    ["--kind", "lambda", "--p", "4"],
    ["--kind", "lcs", "--p", "4"],
    ["--upto", "0"],
    ["--upto", "-3"],
], ids=["restricted-p1", "restricted-p4", "lambda-p4", "lcs-p4", "upto0",
        "upto-3"])
def test_ranks_bad_input_exit_code(graph_file, capsys, args):
    code, out = run(capsys, "--graph", graph_file, "ranks", *args)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("upto", ["0", "-3"])
def test_growth_rejects_order_below_one(graph_file, capsys, upto):
    code, out = run(capsys, "--graph", graph_file, "growth", "--upto", upto)
    assert code == 2
    assert out == ""


# growth --upto 40 on C5, as recorded from the composition route
C5_GROWTH40 = [
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
]


@pytest.fixture()
def c5_file(tmp_path):
    f = tmp_path / "c5.json"
    f.write_text(json.dumps(cycle_graph(5).to_dict()))
    return str(f)


def test_growth_c5_reference(c5_file, capsys):
    code, out = run(capsys, "--graph", c5_file, "growth", "--upto", "40")
    assert code == 0
    obj = json.loads(out)
    assert obj["series"] == [str(c) for c in C5_GROWTH40]
    assert obj["closed_form"] == ("(1 + 5*t + 10*t^2 + 10*t^3 + 5*t^4 + t^5)"
                                  "/(1 - 5*t - 10*t^2 + 10*t^3 + 25*t^4 + 11*t^5)")


def test_growth_resource_limit(c5_file, capsys, monkeypatch):
    # the coefficient bits are charged before any term is computed
    monkeypatch.delenv("RAAG_MAX_STATES", raising=False)
    start = time.perf_counter()
    assert main(["--graph", c5_file, "growth", "--upto", "1000"]) == 0
    assert time.perf_counter() - start < 1
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["--graph", c5_file, "growth", "--upto", "100000"]) == 3
    assert time.perf_counter() - start < 1
    assert "growth series (coefficient bits)" in capsys.readouterr().err


def test_growth_oracle_resource_limit(c5_file, capsys, monkeypatch):
    # the ball of radius 9 in C5 holds 31.9M elements, known from Phi_A
    # before the first BFS layer
    monkeypatch.delenv("RAAG_MAX_STATES", raising=False)
    start = time.perf_counter()
    assert main(["--graph", c5_file, "growth", "--upto", "10",
                 "--oracle", "9"]) == 3
    assert time.perf_counter() - start < 5
    assert "ball: 31891691 states" in capsys.readouterr().err


def test_growth_oracle_reach(c5_file, capsys, monkeypatch):
    # radius 7 streams 819,971 elements; the ball of radius 8 holds
    # 5,113,921, past the default cap of 5,000,000
    monkeypatch.delenv("RAAG_MAX_STATES", raising=False)
    code, out = run(capsys, "--graph", c5_file, "growth", "--upto", "40",
                    "--oracle", "7")
    assert code == 0
    obj = json.loads(out)
    assert obj["oracle"] == obj["series"][:8]
    start = time.perf_counter()
    assert main(["--graph", c5_file, "growth", "--upto", "40",
                 "--oracle", "8"]) == 3
    assert time.perf_counter() - start < 5
    assert "ball: 5113921 states" in capsys.readouterr().err


def test_ranks_resource_limit(graph_file, capsys, monkeypatch):
    monkeypatch.delenv("RAAG_MAX_STATES", raising=False)
    assert main(["--graph", graph_file, "ranks", "--upto", "1000"]) == 0
    capsys.readouterr()
    assert main(["--graph", graph_file, "ranks", "--upto", "1000000"]) == 3
    err = capsys.readouterr().err
    assert "series ranks (coefficient bits)" in err
    assert "1000001000000 states" in err
    monkeypatch.setenv("RAAG_MAX_STATES", "100")
    assert main(["--graph", graph_file, "ranks", "--kind", "lambda",
                 "--upto", "10"]) == 3


CHECKED_KINDS = (("--kind", "lcs"), ("--kind", "restricted", "--p", "3"),
                 ("--kind", "lambda", "--p", "3"))


def test_ranks_check_span_routes_agree(r5_file, capsys):
    for kind in CHECKED_KINDS:
        code, out = run(capsys, "--graph", r5_file, "ranks", *kind,
                        "--upto", "5", "--check", "span")
        assert code == 0, kind
        obj = json.loads(out)
        assert obj["check"] == {"method": "bracket_span", "ok": True,
                                "values": obj["values"]}
        assert list(obj["values"]) == ["1", "2", "3", "4", "5"]


def test_ranks_check_span_on_c5_to_degree_8(c5_file, capsys):
    for kind, top in ((("--kind", "lcs"), 3650),
                      (("--kind", "restricted", "--p", "2"), 3700)):
        code, out = run(capsys, "--graph", c5_file, "ranks", *kind,
                        "--upto", "8", "--check", "span")
        assert code == 0
        assert json.loads(out)["check"]["values"]["8"] == top


def test_ranks_check_span_mismatch_exits_1(graph_file, capsys, monkeypatch):
    # a span route that is off by one is a disagreement, for every kind
    monkeypatch.setattr(raag.lie, "bracket_span_rank",
                        lambda g, n, domain: bracket_span_rank(g, n, domain) + 1)
    monkeypatch.setattr(raag.lie, "restricted_span_rank",
                        lambda g, n, p: restricted_span_rank(g, n, p) + 1)
    for kind in CHECKED_KINDS:
        code, out = run(capsys, "--graph", graph_file, "ranks", *kind,
                        "--upto", "4", "--check", "span")
        assert code == 1, kind
        check = json.loads(out)["check"]
        assert check["ok"] is False and check["method"] == "bracket_span"


def test_span_route_is_shared_with_verify_all(graph_file, capsys,
                                              monkeypatch):
    # one bracket span off by one fails every comparison that reads it:
    # `ranks --check span` for lcs and lambda, and the same two checks of
    # verify-all, which compares the same routes
    monkeypatch.setattr(raag.lie, "bracket_span_rank",
                        lambda g, n, domain: bracket_span_rank(g, n, domain) + 1)
    for kind in (CHECKED_KINDS[0], CHECKED_KINDS[2]):
        code, out = run(capsys, "--graph", graph_file, "ranks", *kind,
                        "--upto", "4", "--check", "span")
        assert code == 1, kind
        assert json.loads(out)["check"]["ok"] is False
    code, out = run(capsys, "--graph", graph_file, "verify-all")
    assert code == 1
    assert [c["name"] for c in json.loads(out)["checks"] if not c["ok"]] == [
        "lower-central ranks: series recursion = bracket span",
        "exponent-p dims are partial sums of lower-central ranks"]


def test_relabelling_by_a_non_automorphism_fails_the_checks(r5_file, capsys,
                                                            monkeypatch):
    # the span spans one block per orbit and relabels the others; a
    # relabelling that is no automorphism (a and d of R5 have degrees 2 and
    # 1) gives wrong ranks, which both front ends then report as failures
    monkeypatch.setattr(raag.lie, "automorphisms", lambda g: [(3, 1, 2, 0, 4)])
    raag.lie._span.cache_clear()
    try:
        for kind in CHECKED_KINDS:
            code, out = run(capsys, "--graph", r5_file, "ranks", *kind,
                            "--upto", "4", "--check", "span")
            assert code == 1, kind
            assert json.loads(out)["check"]["ok"] is False
        code, out = run(capsys, "--graph", r5_file, "verify-all")
        assert code == 1
        assert [c["name"] for c in json.loads(out)["checks"]
                if not c["ok"]] == [
            "lower-central ranks: series recursion = bracket span",
            "restricted ranks agree at p=3",
            "exponent-p dims are partial sums of lower-central ranks"]
    finally:
        raag.lie._span.cache_clear()


@pytest.mark.parametrize("graph,args", [
    (None, ()),
    ({"vertices": ["a", "b", "a"]}, ()),
    (path_graph(3).to_dict(), ("--upto", "0")),
    (path_graph(3).to_dict(), ("--kind", "restricted", "--p", "4")),
], ids=["missing-file", "duplicate-vertices", "upto0", "restricted-p4"])
def test_ranks_check_span_bad_input_exits_2(tmp_path, capsys, monkeypatch,
                                            graph, args):
    # the series table is built first, so the span route never runs
    monkeypatch.setattr(raag.lie, "bracket_span_rank", None)
    monkeypatch.setattr(raag.lie, "restricted_span_rank", None)
    f = tmp_path / "g.json"
    if graph is not None:
        f.write_text(json.dumps(graph))
    code = main(["--graph", str(f), "ranks", *args, "--check", "span"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ")


def test_ranks_check_span_exits_3_at_the_state_cap(r5_file, capsys,
                                                   monkeypatch):
    # the series route fits under the cap, and the span route stops at it:
    # exit 3 and one line on stderr, not 1 (a disagreement); the span is
    # cached per graph, and a block already reduced is not charged again
    monkeypatch.setenv("RAAG_MAX_STATES", "50")
    for kind in CHECKED_KINDS:
        raag.lie._span.cache_clear()
        code = main(["--graph", r5_file, "ranks", *kind, "--upto", "5"])
        assert code == 0
        capsys.readouterr()
        code = main(["--graph", r5_file, "ranks", *kind, "--upto", "5",
                     "--check", "span"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("resource limit: ")
        assert "RAAG_MAX_STATES=50" in line


def test_koszul(graph_file, capsys):
    code, out = run(capsys, "--graph", graph_file, "koszul", "--upto", "4")
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("upto", ["0", "-3"])
def test_koszul_rejects_order_below_one(graph_file, capsys, upto):
    code, out = run(capsys, "--graph", graph_file, "koszul", "--upto", upto)
    assert code == 2
    assert out == ""


def test_koszul_fp_needs_p(graph_file, capsys):
    assert main(["--graph", graph_file, "koszul", "--domain", "Fp"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--domain Fp needs --p" in err


def test_koszul_resource_limit(tmp_path, capsys, monkeypatch):
    # the basis is counted from the clique counts, trace degree by trace
    # degree, so the limit is hit before any trace is enumerated and after
    # work that does not depend on --upto
    f = tmp_path / "c5.json"
    f.write_text(json.dumps(cycle_graph(5).to_dict()))
    monkeypatch.delenv("RAAG_MAX_STATES", raising=False)
    for upto in ("30", "100000"):
        start = time.perf_counter()
        assert main(["--graph", str(f), "koszul", "--upto", upto]) == 3
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert "koszul basis up to trace degree 10: 9453136 states" in err
    # C5 has 11 cliques of size < 4, 6 of size < 3: 11 * (1 + 5) + 6 * 20
    monkeypatch.setenv("RAAG_MAX_STATES", "100")
    assert main(["--graph", str(f), "koszul", "--upto", "4"]) == 3
    assert "koszul basis up to trace degree 2: 186 states" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["abc", "-1", "1.5", "", "5_000_000", "+3",
                                 " 3", "3 ", "\u0663"])
@pytest.mark.parametrize("row", COMMANDS, ids=[row[0] for row in COMMANDS])
def test_bad_state_cap_exits_2_before_any_work(graph_file, capsys,
                                               monkeypatch, row, cap):
    # every command, also one that never reads the cap (nf, mul)
    monkeypatch.setenv("RAAG_MAX_STATES", cap)
    argv = ["--graph", graph_file, row[0], *("a" for _ in row[2])]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: RAAG_MAX_STATES must be an int >= 0, got {cap!r}\n"
    with pytest.raises(RaagError, match="RAAG_MAX_STATES"):
        max_states()


def test_verify_all(graph_file, capsys):
    code, out = run(capsys, "--graph", graph_file, "verify-all")
    assert code == 0
    obj = json.loads(out)
    assert all(c["ok"] for c in obj["checks"])


@pytest.mark.parametrize("name", list(SUITE))
def test_verify_all_at_p2(tmp_path, capsys, name):
    # exponent-p dimensions need p >= 3, so p = 2 leaves out only that check
    f = tmp_path / "g.json"
    f.write_text(json.dumps(SUITE[name].to_dict()))
    code, out = run(capsys, "--graph", str(f), "verify-all", "--p", "2")
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert len(names) == 12 and "restricted ranks agree at p=2" in names


def test_parse_error_exit_code(graph_file, capsys):
    code = main(["--graph", graph_file, "nf", "a^^2"])
    assert code == 2


def test_unknown_generator_exit_code(graph_file, capsys):
    code = main(["--graph", graph_file, "nf", "z"])
    assert code == 2


def test_missing_graph_file(tmp_path, capsys):
    code = main(["--graph", str(tmp_path / "nope.json"), "cliques"])
    assert code == 2


def test_resource_limit_exit_code(graph_file, capsys, monkeypatch):
    monkeypatch.setenv("RAAG_MAX_STATES", "10")
    code = main(["--graph", graph_file, "growth", "--upto", "8",
                 "--oracle", "6"])
    assert code == 3


def test_deterministic_output(graph_file, capsys):
    _, out1 = run(capsys, "--graph", graph_file, "verify-all")
    _, out2 = run(capsys, "--graph", graph_file, "verify-all")
    assert out1 == out2


# the arguments after the command name, for each command on P3
ONE_LINE_ARGS = {
    "cliques": (),
    "nf": ("a b a^-1",),
    "mul": ("a b", "b^-1 c"),
    "growth": ("--upto", "6", "--oracle", "3"),
    "poincare": (),
    "magnus": ("a b^-1", "--order", "4"),
    "valuation": ("a b a^-1 b^-1", "--order", "4", "--depth", "2"),
    "ranks": ("--upto", "4"),
    "koszul": ("--upto", "4"),
    "verify-all": (),
}


@pytest.mark.parametrize("name", [row[0] for row in COMMANDS])
def test_answer_is_one_line_of_compact_json(graph_file, capsys, name):
    code, out = run(capsys, "--graph", graph_file, name, *ONE_LINE_ARGS[name])
    assert code == 0
    assert out.count("\n") == 1
    assert out == json.dumps(json.loads(out), sort_keys=True,
                             separators=(",", ":")) + "\n"


def test_long_magnus_answer_is_written_compactly(c5_file):
    # a^-1 to order 2000 passes every cap: 2,000 terms and 1,999,000 trace
    # letters, which the indenting encoder wrote as 26.1 MB
    proc, _ = _run_child(c5_file, "magnus", "a^-1", "--order", "2000")
    assert proc.returncode == 0
    assert len(proc.stdout) < 8_500_000


@pytest.fixture(scope="module")
def r5_file(tmp_path_factory):
    f = tmp_path_factory.mktemp("graphs") / "r5.json"
    f.write_text(json.dumps(random5_graph().to_dict()))
    return str(f)


def _valuation(r5_file, *args):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["--graph", r5_file, "valuation", *args]) == 0
    return json.loads(out.getvalue())


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c", "d", "e"]),
                          st.integers(-6, 6).filter(lambda e: e != 0)),
                max_size=4),
       st.sampled_from([2, 3, 5]), st.integers(1, 6))
def test_valuation_fp_omega_from_the_integer_image(r5_file, sylls, p, order):
    # the F_p valuation keeps the integer terms that p does not divide; the
    # second route images the word over F_p itself
    g = random5_graph()
    w = reduce_word(sylls, g)
    got = _valuation(r5_file, format_word(w), "--order", str(order),
                     "--domain", "Fp", "--p", str(p))["omega_valuation"]
    want = _omega(magnus(w, g, Fp(p), order).coeffs, order)
    assert got == {"value": want.value, "decided": want.decided}


def test_valuation_builds_no_series(r5_file, lincomb_inits):
    for domain in ("Z", "Q", "Fp"):
        _valuation(r5_file, "a^3 b c^-2 a", "--domain", domain, "--depth", "2")
    assert lincomb_inits == []


@pytest.mark.parametrize("order", ["0", "-3"])
@pytest.mark.parametrize("command", ["magnus", "valuation"])
def test_order_below_one_is_a_parse_error(graph_file, capsys, command, order):
    assert main(["--graph", graph_file, command, "a b", "--order", order]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: truncation order must be >= 1\n"


@pytest.mark.parametrize("depth", ["0", "-5"])
def test_valuation_rejects_depth_below_one(c5_file, capsys, monkeypatch,
                                           depth):
    # dimension subgroups start at delta_1; the depth is checked before the
    # image, which would exit 3 at this cap
    monkeypatch.setenv("RAAG_MAX_STATES", "10")
    argv = ["--graph", c5_file, "valuation", "a^-1", "--order", "50"]
    assert main(argv) == 3
    capsys.readouterr()
    assert main([*argv, "--depth", depth]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --depth must be >= 1, got {depth}\n"


@pytest.mark.parametrize("p", ["0", "1", "4"])
def test_valuation_rejects_non_prime_p(graph_file, p):
    # p = 1 used to loop forever in the p-adic valuation; run in a child
    # process so that a hang fails the test instead of stalling the suite
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "raag.cli", "--graph", graph_file,
         "valuation", "a b", "--p", p],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: F_p needs a prime p < 2^31, got {p}\n"


def test_valuation_rejects_p_before_the_image(c5_file):
    # the image of a^-1 to order 3000 would exceed the state cap
    proc, _ = _run_child(c5_file, "valuation", "a^-1", "--order", "3000",
                         "--p", "4")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: F_p needs a prime p < 2^31, got 4\n"


def _run_child(graph_file, *argv):
    """The CLI in a child process, so that a hang fails the test instead of
    stalling the suite; returns the process and its wall time."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "raag.cli", "--graph", graph_file, *argv],
        capture_output=True, text=True, env=env, timeout=20)
    return proc, time.perf_counter() - start


LARGE_PRIME = str(2**61 - 1)


@pytest.mark.parametrize("argv", [
    ("ranks", "--kind", "restricted", "--p", LARGE_PRIME),
    ("ranks", "--kind", "lambda", "--p", LARGE_PRIME),
    ("ranks", "--kind", "lcs", "--p", LARGE_PRIME),
    ("valuation", "a", "--p", LARGE_PRIME),
    ("magnus", "a", "--domain", "Fp", "--p", LARGE_PRIME),
    ("magnus", "a", "--p", LARGE_PRIME),
    ("koszul", "--domain", "Fp", "--p", LARGE_PRIME),
    ("koszul", "--upto", "3", "--p", LARGE_PRIME),
    ("verify-all", "--p", LARGE_PRIME),
], ids=["restricted", "lambda", "lcs", "valuation", "magnus", "magnus-Z",
        "koszul", "koszul-Q", "verify-all"])
def test_prime_too_large_exits_at_once(graph_file, argv):
    # 2^61 - 1 is prime, but trial division to its square root would run
    # for hours; every p is checked against 2^31 before any division
    proc, elapsed = _run_child(graph_file, *argv)
    assert elapsed < 5
    assert proc.returncode == 2
    assert proc.stdout == ""
    want = f"error: F_p needs a prime p < 2^31, got {LARGE_PRIME}\n"
    assert proc.stderr == want


def test_koszul_on_graph_with_no_vertex(tmp_path):
    # the only basis key is ((), ()): no trace has degree 1, so none has a
    # higher degree, and the check stops there whatever the order
    f = tmp_path / "none.json"
    f.write_text(json.dumps({"vertices": []}))
    proc, elapsed = _run_child(str(f), "koszul", "--upto", "1000000000")
    assert elapsed < 5
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"checked": 1, "ok": True}


@pytest.mark.parametrize("edges", [False, True], ids=["edgeless", "path"])
def test_verify_all_on_1100_vertices_exits_at_the_cap(tmp_path, monkeypatch,
                                                      edges):
    # the clique recount reaches 1,100 vertex masks deep, past Python's
    # recursion limit; it must finish, so that the trace enumeration after
    # it stops the run at the state cap
    names = [f"v{i}" for i in range(1100)]
    f = tmp_path / "big.json"
    f.write_text(json.dumps({"vertices": names,
                             "edges": list(zip(names, names[1:])) if edges else []}))
    monkeypatch.setenv("RAAG_MAX_STATES", "100000")
    proc, _ = _run_child(str(f), "verify-all")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "resource limit: enumerate_traces" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("word,order", [("a^-1", "3000"),
                                        ("a c^-1 e b^-1 d " * 8, "12"),
                                        ("a^-1000000000", "20000")],
                         ids=["order-3000", "40-letters-order-12",
                              "huge-exponent-order-20000"])
def test_magnus_resource_limit(c5_file, word, order):
    # the letter work of each syllable step (3000 x 3000 for the first, 5.4M
    # in all for the second) is charged before the step, and before its
    # binomials are built (those of the third reach 100,000 digits);
    # a child process keeps a hang from stalling the suite
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("RAAG_MAX_STATES", None)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "raag.cli", "--graph", c5_file,
         "magnus", word, "--order", order],
        capture_output=True, text=True, env=env, timeout=20)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "resource limit: magnus: " in proc.stderr


@pytest.mark.parametrize("graph", [
    {"vertices": "abc"},
    {"vertices": ["a", "b"], "edges": "ab"},
    {"vertices": ["1", "a"]},
    {"vertices": ["a b", "c"]},
    {"vertices": ["a^2", "c"]},
    {"vertices": {"a": 1}},
    {"vertices": ["a", "b"], "edges": {"a": "b"}},
    {"vertices": ["a", "b"], "edges": [{"a": 1, "b": 2}]},
], ids=["string-vertices", "string-edges", "vertex-1", "vertex-space",
        "vertex-caret", "mapping-vertices", "mapping-edges", "mapping-edge"])
def test_bad_graph_json_exit_code(tmp_path, capsys, graph):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(graph))
    code, out = run(capsys, "--graph", str(f), "nf", "1")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("raw", [b"{", b'{"vertices": ["\xff"]}'],
                         ids=["truncated-json", "not-utf-8"])
def test_unreadable_graph_file_exit_code(tmp_path, capsys, raw):
    f = tmp_path / "bad.json"
    f.write_bytes(raw)
    code, out = run(capsys, "--graph", str(f), "nf", "1")
    assert code == 2
    assert out == ""


def test_deeply_nested_graph_json_exit_code(tmp_path, capsys):
    f = tmp_path / "deep.json"
    f.write_text("[" * 200_000)
    assert main(["--graph", str(f), "nf", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "nested too deeply" in err


def test_help_lists_every_command(capsys):
    for argv in (["--help"], ["-h"]):
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.startswith("usage: raag --graph PATH COMMAND")
        for name, text, _, _ in COMMANDS:
            assert f"  {name}" in out and text in out


@pytest.mark.parametrize("row", COMMANDS, ids=[row[0] for row in COMMANDS])
def test_command_help(graph_file, capsys, row):
    command, _, _, options = row
    code, out = run(capsys, "--graph", graph_file, command, "--help")
    assert code == 0
    assert out.startswith(f"usage: raag --graph PATH {command}")
    # every option is named with its default
    for name, default, _, _ in options:
        assert f"--{name} " in out
        if default is not None:
            assert f"(default {default})" in out


@pytest.mark.parametrize("argv", [
    ("--graph", "G", "frobnicate"),
    ("--graph", "G", "lambda"),
    ("--verbose", "--graph", "G", "cliques"),
    ("--graph", "G", "ranks", "--frob", "1"),
    ("--graph", "G", "ranks", "--up", "7"),
    ("--graph", "G", "cliques", "--graph", "G"),
    ("--graph",),
    ("--graph", "G", "ranks", "--upto"),
    ("--graph", "G", "ranks", "--upto", "x"),
    ("--graph", "G", "ranks", "--upto=1.5"),
    ("--graph", "G", "magnus", "a", "--order", "9" * 5000),
    ("--graph", "G", "ranks", "--kind", "bogus"),
    ("--graph", "G", "koszul", "--domain", "Z"),
    ("--graph", "G", "nf"),
    ("--graph", "G", "nf", "a", "b"),
    ("--graph", "G", "mul", "a"),
    ("--graph", "G", "cliques", "a"),
    ("cliques",),
    (),
    ("--graph", "G"),
], ids=["unknown-command", "lambda", "unknown-global-option",
        "unknown-option", "abbreviation", "graph-after-command",
        "graph-no-value", "missing-value", "not-int", "not-int-equals",
        "int-past-digit-limit", "not-a-choice", "domain-not-a-choice",
        "nf-no-word", "nf-two-words", "mul-one-word", "cliques-positional",
        "no-graph", "empty", "no-command"])
def test_parse_errors(graph_file, capsys, argv):
    code = main([graph_file if a == "G" else a for a in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (("ranks", "--upto", "1_0"), "--upto: '1_0' is not an int"),
    (("ranks", "--upto=\u0663"), "--upto: '\u0663' is not an int"),
    (("ranks", "--upto", "+3"), "--upto: '+3' is not an int"),
    (("nf", "a^\u0663"), "bad token 'a^\u0663'"),
    (("nf", "a^1_0"), "bad token 'a^1_0'"),
], ids=["underscore", "arabic-indic-digit", "plus-sign", "exponent-digit",
        "exponent-underscore"])
def test_integers_are_ascii_decimal(graph_file, capsys, argv, message):
    # an int on the command line, as an option value or as an exponent, is
    # -?[0-9]+: `int` and the regex class \d also read 1_0, +3 and the
    # digits of other scripts
    code = main(["--graph", graph_file, *argv])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_misspelt_graph_key_exits_2(tmp_path, capsys):
    # "edge" for "edges" would otherwise read as a graph with no edges
    f = tmp_path / "g.json"
    f.write_text(json.dumps({"vertices": ["a", "b"], "edge": [["a", "b"]]}))
    code = main(["--graph", str(f), "cliques"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == ("error: unknown graph key 'edge': a graph has only "
                   "'vertices' and 'edges'\n")


@pytest.mark.parametrize("spaced,other", [
    (("magnus", "a b", "--order", "3"), ("magnus", "--order", "3", "a b")),
    (("magnus", "a b", "--order", "3"), ("magnus", "a b", "--order=3")),
    (("ranks", "--kind", "restricted", "--p", "2", "--upto", "5"),
     ("ranks", "--upto=5", "--kind=restricted", "--p=2")),
    (("mul", "a c", "c^-1 a"), ("mul", "a c", "--", "c^-1 a")),
])
def test_option_spellings_agree(graph_file, capsys, spaced, other):
    code, want = run(capsys, "--graph", graph_file, *spaced)
    assert code == 0
    assert run(capsys, f"--graph={graph_file}", *other) == (0, want)


def test_words_that_look_like_options(tmp_path, capsys):
    # after `--`, and with a space in it, a word is never an option
    f = tmp_path / "dash.json"
    f.write_text(json.dumps({"vertices": ["--x", "y"]}))
    code, out = run(capsys, "--graph", str(f), "nf", "--", "--x")
    assert code == 0 and json.loads(out)["normal_form"] == "--x"
    code, out = run(capsys, "--graph", str(f), "nf", "--x y")
    assert code == 0 and json.loads(out)["normal_form"] == "--x y"


def test_cli_does_not_import_argparse(graph_file):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    script = ("import sys, raag.cli\n"
              "rc = raag.cli.main(sys.argv[1:])\n"
              "sys.stderr.write('argparse' in sys.modules and 'ARGPARSE' or '')\n"
              "sys.exit(rc)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, "--graph", graph_file, "ranks",
         "--upto", "4"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["values"] == {"1": 3, "2": 1, "3": 2, "4": 3}
    assert "ARGPARSE" not in proc.stderr


@pytest.mark.parametrize("exponent,order,code", [
    ("-" + "9" * 100_000, "8", 2),
    ("-" + "9" * 4_200, "50", 3),
    ("-1000000000", "2000", 3),
], ids=["100000-digit-exponent", "4200-digit-exponent-order-50",
        "exponent-1e9-order-2000"])
def test_huge_exponent_exits_at_once(c5_file, monkeypatch, exponent, order,
                                     code):
    # the words are read under Python's 4,300-digit limit, so a longer
    # exponent is a parse error; a shorter one is charged by the digits of
    # its binomials (past 100,000 for the last two cases) before they are
    # built or printed
    monkeypatch.delenv("RAAG_MAX_STATES", raising=False)
    proc, elapsed = _run_child(c5_file, "magnus", f"a^{exponent}",
                               "--order", order)
    assert elapsed < 5
    assert proc.returncode == code
    assert proc.stdout == ""
    if code == 3:
        assert "magnus (coefficient digits)" in proc.stderr


def test_answer_past_the_int_digit_limit(c5_file, capsys, monkeypatch):
    # the a^700 coefficient of (1+a)^(-10^9) has 4,611 digits, past the
    # 4,300 that Python converts by default; the CLI prints it whole and
    # puts the limit back
    monkeypatch.delenv("RAAG_MAX_STATES", raising=False)
    limit = sys.get_int_max_str_digits()
    code, out = run(capsys, "--graph", c5_file, "magnus", "a^-1000000000",
                    "--order", "701")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    coeff = {tuple(t["trace"]): t["coeff"] for t in json.loads(out)["series"]}
    top = coeff[("a",) * 700]
    assert len(top) == 4611
    sys.set_int_max_str_digits(0)
    try:
        assert int(top) == comb(10**9 + 699, 700)
    finally:
        sys.set_int_max_str_digits(limit)
