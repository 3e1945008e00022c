import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from raag.cli import main
from raag.graph import complete_graph, cycle_graph, path_graph

from conftest import SUITE


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
    ["--upto", "0"],
    ["--upto", "-3"],
], ids=["restricted-p1", "restricted-p4", "lambda-p4", "upto0", "upto-3"])
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
    assert "prime" in proc.stderr


def test_valuation_rejects_p_before_the_image(c5_file):
    # the image of a^-1 to order 3000 would exceed the state cap
    proc, _ = _run_child(c5_file, "valuation", "a^-1", "--order", "3000",
                         "--p", "4")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "p-valuation needs a prime" in proc.stderr


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
    ("valuation", "a", "--p", LARGE_PRIME),
    ("magnus", "a", "--domain", "Fp", "--p", LARGE_PRIME),
    ("koszul", "--domain", "Fp", "--p", LARGE_PRIME),
    ("verify-all", "--p", LARGE_PRIME),
], ids=["restricted", "lambda", "valuation", "magnus", "koszul", "verify-all"])
def test_prime_too_large_exits_at_once(graph_file, argv):
    # 2^61 - 1 is prime, but trial division to its square root would run
    # for hours; every p is checked against 2^31 before any division
    proc, elapsed = _run_child(graph_file, *argv)
    assert elapsed < 5
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "prime" in proc.stderr


def test_koszul_on_graph_with_no_vertex(tmp_path):
    # the only basis key is ((), ()): no trace has degree 1, so none has a
    # higher degree, and the check stops there whatever the order
    f = tmp_path / "none.json"
    f.write_text(json.dumps({"vertices": []}))
    proc, elapsed = _run_child(str(f), "koszul", "--upto", "1000000000")
    assert elapsed < 5
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"checked": 1, "ok": True}


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


def test_deeply_nested_graph_json_exit_code(tmp_path, capsys):
    f = tmp_path / "deep.json"
    f.write_text("[" * 200_000)
    assert main(["--graph", str(f), "nf", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "nested too deeply" in err
