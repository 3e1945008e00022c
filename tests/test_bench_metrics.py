"""Every per-layer metric of the benchmark names code in src/raag.

`BENCHMARK.json` lists each per-layer metric as `<span>.<counter>`.  The
span recorder (`perfbench/layertrace.py`) names a span `module.function`
for a public function defined in `raag.module`, and `module.Class.mul` for
the method `Class.__mul__`.  A span whose code was renamed or deleted is
never recorded, so its metrics read 0 whatever the code does.  The nine
metrics already dead are listed below; the benchmark files change only
with the benchmark, which can clear them, and no other metric may join
them.  This reads `BENCHMARK.json` and changes nothing.
"""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the recorder's own cost, not a span
NOT_A_SPAN = frozenset({"trace.overhead_frac"})

# metrics whose spans name code gone from src/raag
DEAD = frozenset({
    "useries.USeries.mul.calls", "useries.USeries.mul.self_s",
    "words.ball.states", "words.ball.self_s",
    "lie.left_normed_brackets.rows", "lie.left_normed_brackets.self_s",
    "koszul.differential.calls", "koszul.contraction.calls",
    "magnus.magnus_span_rank.self_s",
})


def _resolves(span: str) -> bool:
    """Whether the recorder would record `span` on this tree."""
    module, _, rest = span.partition(".")
    try:
        mod = importlib.import_module(f"raag.{module}")
    except ModuleNotFoundError:
        return False
    attr, _, method = rest.partition(".")
    obj = vars(mod).get(attr)
    if method:
        return (method == "mul" and isinstance(obj, type)
                and "__mul__" in vars(obj))
    return (not attr.startswith("_") and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == mod.__name__)


@pytest.mark.parametrize("span, live", [
    ("lie.series_rank_lcs", True),
    ("series.PCSeries.mul", True),
    ("cli.main", True),
    ("lie.lambda_dims", False),
    ("lie._span", False),
    ("lie.RankTable", False),
    ("lie.Q", False),
    ("useries.USeries.mul", False),
])
def test_span_resolution(span, live):
    assert _resolves(span) is live


def test_every_per_layer_metric_names_live_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in bench["per_layer"]]
    dead = {name for name in names if name not in NOT_A_SPAN
            and not _resolves(name.rpartition(".")[0])}
    assert dead <= DEAD
