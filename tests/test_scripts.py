"""Smoke runs of the example scripts that the README documents.

Each script runs in a child process with `src/` as its import path, so a
change of the public API that a script uses fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_demo_pipeline_reports_the_fit():
    assert re.fullmatch(r"Rss: \d+\.\d{4}, Evar: \d\.\d{4}\n"
                        r"K-L divergence: \d+\.\d{4}\n"
                        r"Sparseness, W: \d\.\d{4}, H: \d\.\d{4}\n"
                        r"iterations: \d+\n", run_script("demo_pipeline.py"))


def test_rank_selection_experiment_reports_each_rank():
    lines = run_script("rank_selection_experiment.py").splitlines()
    assert lines[0].split() == ["rank", "cophenetic", "dispersion",
                                "mean_rss", "mean_evar", "mean_iter"]
    assert [int(line.split()[0]) for line in lines[1:-1]] == [2, 3, 4, 5]
    assert all(len(line.split()) == 6 for line in lines[1:-1])
    assert lines[-1] == "recommended rank: 3 (true rank 3)"
