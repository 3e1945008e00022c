import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import SUITE

ROOT = Path(__file__).resolve().parent.parent


def _rank_table(tmp_path, *args, **env):
    f = tmp_path / "r5.json"
    f.write_text(json.dumps(SUITE["R5"].to_dict()))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "rank_table.py"), str(f),
         *args],
        capture_output=True, text=True, env=env, timeout=120)


def test_rank_table_routes_agree(tmp_path):
    proc = _rank_table(tmp_path, "--upto", "5", "--p", "3")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:6]]
    assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5]
    for n, b_series, b_span, d_series, d_span in rows:
        assert b_series == b_span and d_series == d_span, n


def test_rank_table_exits_3_at_the_state_cap(tmp_path):
    # the cap stops a route: exit 3 and one line on stderr, as the CLI does,
    # not 1 (a mismatch between the routes) with a traceback
    proc = _rank_table(tmp_path, "--upto", "5", "--p", "2",
                       RAAG_MAX_STATES="50")
    assert proc.returncode == 3
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("resource limit: ") and "RAAG_MAX_STATES=50" in line
