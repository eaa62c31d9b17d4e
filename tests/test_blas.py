"""Tests for the process-wide BLAS thread policy (repro.engine.blas).

Importing :mod:`repro.engine` must leave the OpenBLAS copies bundled
with NumPy and SciPy on one thread without writing ``os.environ``, and must keep the team size a
user chose through ``OPENBLAS_NUM_THREADS``.  The policy acts once per
process, so each case runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import blas_threads
from repro.engine.blas import POLICY_THREADS, THREAD_ENV, thread_env

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = f"""
import importlib.util, json, os
spec = importlib.util.spec_from_file_location(
    "blas_probe", {str(SRC / "repro" / "engine" / "blas.py")!r}
)
probe = importlib.util.module_from_spec(spec)
spec.loader.exec_module(probe)  # reads the team without applying the policy
env_before = dict(os.environ)
threads_before = probe.blas_threads()
import repro.engine
import scipy.linalg  # loads SciPy's OpenBLAS if nothing has yet
maps = "/proc/self/maps"
mapped = (
    sorted({{line.split()[-1] for line in open(maps) if "openblas" in line}})
    if os.path.exists(maps) else None
)
print(json.dumps({{
    "before": threads_before,
    "after": repro.engine.blas_threads(),
    "teams": [lib.threads() for lib in repro.engine.blas._OPENBLAS],
    "mapped": mapped,
    "env_untouched": dict(os.environ) == env_before,
}}))
"""


def run_probe(**env_overrides) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV}
    env["PYTHONPATH"] = str(SRC)
    env.update(env_overrides)
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    report = json.loads(done.stdout.splitlines()[-1])
    if report["after"] is None:
        pytest.skip("no adjustable BLAS library in this build")
    return report


def test_import_sets_one_thread_without_touching_the_environment():
    report = run_probe()
    assert report["after"] == POLICY_THREADS
    assert report["env_untouched"]


def test_every_bundled_openblas_is_capped_and_loaded_once():
    report = run_probe()
    if not report["teams"]:
        pytest.skip("no bundled OpenBLAS in this build")
    assert report["teams"] == [POLICY_THREADS] * len(report["teams"])
    if report["mapped"] is not None:
        # the policy's ctypes handle and the package's own load must
        # share one copy, or the cap would miss the copy doing the work
        assert len(report["mapped"]) == len(report["teams"])


def test_explicit_openblas_num_threads_is_respected():
    report = run_probe(OPENBLAS_NUM_THREADS="2")
    # OpenBLAS clamps the request to the cores it sees; whatever it
    # chose from the environment, the import must not change it
    assert report["after"] == report["before"]
    assert report["env_untouched"]


def test_policy_holds_in_this_process():
    if thread_env():
        pytest.skip(f"thread count set in the environment: {thread_env()}")
    if blas_threads() is None:
        pytest.skip("no adjustable BLAS library in this build")
    assert blas_threads() == POLICY_THREADS
