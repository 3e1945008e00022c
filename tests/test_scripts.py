import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import SUITE

ROOT = Path(__file__).resolve().parent.parent


def test_rank_table_routes_agree(tmp_path):
    f = tmp_path / "r5.json"
    f.write_text(json.dumps(SUITE["R5"].to_dict()))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "rank_table.py"), str(f),
         "--upto", "5", "--p", "3"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:6]]
    assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5]
    for n, b_series, b_span, d_series, d_span in rows:
        assert b_series == b_span and d_series == d_span, n
