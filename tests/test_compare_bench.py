"""Unit tests for the bench-regression gate (``benchmarks/compare_bench.py``).

The gate is what stands between a noisy re-recorded artefact and a
silently regressed baseline, so its checks get pinned here: the
``check_scale`` gate added after a loaded-machine re-record documented
the parallel partition path as slower than serial (block_speedup
1.04 -> 0.75) without any CI step noticing, and the ``check_serve``
gate against the re-record whose calibrated serve throughput fell
from 0.038 to 0.026 pairs/reference while raw pairs/s rose.  The
``check_solver`` gate must keep failing a real slowdown, including one
hidden by a machine reference timed under a different BLAS team.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "compare_bench", REPO_ROOT / "benchmarks" / "compare_bench.py"
)
compare_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_bench)


def _scale_payload(
    *,
    block_speedup: float = 1.04,
    bitwise_equal: bool = True,
    recovery_rate: float = 1.0,
    cpu_count: int = 1,
) -> dict:
    return {
        "cpu_count": cpu_count,
        "four_block": {
            "bitwise_equal": bitwise_equal,
            "block_speedup": block_speedup,
            "injected_recovery": {
                "lost_links": 12,
                "recovered_links": int(round(12 * recovery_rate)),
                "recovery_rate": recovery_rate,
            },
        },
    }


def _write(directory: Path, payload: dict) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "BENCH_scale.json").write_text(json.dumps(payload))
    return directory


def _failures(baseline_dir: Path, current_dir: Path, max_slowdown: float = 0.20):
    return list(
        compare_bench.check_scale(baseline_dir, current_dir, max_slowdown)
    )


class TestCheckScale:
    def test_missing_fresh_file_fails(self, tmp_path):
        baseline = _write(tmp_path / "base", _scale_payload())
        failures = _failures(baseline, tmp_path / "empty")
        assert failures and "missing" in failures[0]

    def test_missing_baseline_is_skipped(self, tmp_path):
        fresh = _write(tmp_path / "fresh", _scale_payload())
        assert _failures(tmp_path / "nobase", fresh) == []

    def test_clean_run_passes(self, tmp_path):
        baseline = _write(tmp_path / "base", _scale_payload(block_speedup=1.04))
        fresh = _write(tmp_path / "fresh", _scale_payload(block_speedup=0.94))
        assert _failures(baseline, fresh) == []

    def test_bitwise_divergence_fails_unconditionally(self, tmp_path):
        fresh = _write(
            tmp_path / "fresh", _scale_payload(bitwise_equal=False)
        )
        failures = _failures(tmp_path / "nobase", fresh)
        assert any("bitwise" in f for f in failures)

    def test_partial_recovery_fails_unconditionally(self, tmp_path):
        fresh = _write(
            tmp_path / "fresh", _scale_payload(recovery_rate=0.5)
        )
        failures = _failures(tmp_path / "nobase", fresh)
        assert any("recovered only" in f for f in failures)

    def test_block_speedup_regression_fails(self, tmp_path):
        # the loaded-machine re-record this gate exists to catch:
        # 1.04 -> 0.75 is a 28% drop, past the 20% budget
        baseline = _write(tmp_path / "base", _scale_payload(block_speedup=1.04))
        fresh = _write(tmp_path / "fresh", _scale_payload(block_speedup=0.75))
        failures = _failures(baseline, fresh)
        assert len(failures) == 1
        assert "block_speedup 0.75x" in failures[0]

    def test_within_budget_drop_passes(self, tmp_path):
        baseline = _write(tmp_path / "base", _scale_payload(block_speedup=1.04))
        fresh = _write(tmp_path / "fresh", _scale_payload(block_speedup=0.90))
        assert _failures(baseline, fresh) == []

    def test_fewer_cpus_skips_speedup_gate(self, tmp_path):
        baseline = _write(
            tmp_path / "base", _scale_payload(block_speedup=2.5, cpu_count=4)
        )
        fresh = _write(
            tmp_path / "fresh", _scale_payload(block_speedup=0.9, cpu_count=1)
        )
        assert _failures(baseline, fresh) == []

    def test_more_cpus_still_gates(self, tmp_path):
        baseline = _write(
            tmp_path / "base", _scale_payload(block_speedup=1.04, cpu_count=1)
        )
        fresh = _write(
            tmp_path / "fresh", _scale_payload(block_speedup=0.5, cpu_count=4)
        )
        assert len(_failures(baseline, fresh)) == 1

    def test_absent_speedup_field_is_skipped(self, tmp_path):
        base_payload = _scale_payload()
        del base_payload["four_block"]["block_speedup"]
        baseline = _write(tmp_path / "base", base_payload)
        fresh = _write(tmp_path / "fresh", _scale_payload(block_speedup=0.1))
        assert _failures(baseline, fresh) == []


def _serve_payload(
    *,
    pairs_per_second: float = 3.8,
    reference_seconds: float = 0.01,
    blas_threads: int | None = 1,
    blas_thread_env: dict | None = None,
    bitwise_equal: bool = True,
) -> dict:
    return {
        "pairs_per_second": pairs_per_second,
        "reference_seconds": reference_seconds,
        "blas_threads": blas_threads,
        "blas_thread_env": blas_thread_env or {},
        "every_job_bitwise_equal": bitwise_equal,
        "cache": {"hit_rate": 0.8125},
    }


def _serve_failures(baseline_dir: Path, current_dir: Path):
    return list(compare_bench.check_serve(baseline_dir, current_dir, 0.20))


def _write_serve(directory: Path, payload: dict) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "BENCH_serve.json").write_text(json.dumps(payload))
    return directory


class TestCheckServe:
    def test_calibrated_throughput_drop_fails(self, tmp_path):
        # the loaded-machine re-record: raw pairs/s rose (3.53 -> 5.09)
        # but pairs per reference workload fell 0.038 -> 0.026
        baseline = _write_serve(
            tmp_path / "base",
            _serve_payload(pairs_per_second=3.53, reference_seconds=0.038 / 3.53),
        )
        fresh = _write_serve(
            tmp_path / "fresh",
            _serve_payload(pairs_per_second=5.09, reference_seconds=0.026 / 5.09),
        )
        failures = _serve_failures(baseline, fresh)
        assert len(failures) == 1
        assert "serve bench regressed: 0.026" in failures[0]

    def test_clean_run_passes(self, tmp_path):
        baseline = _write_serve(tmp_path / "base", _serve_payload())
        fresh = _write_serve(
            tmp_path / "fresh", _serve_payload(pairs_per_second=3.5)
        )
        assert _serve_failures(baseline, fresh) == []

    def test_multi_thread_blas_without_override_fails(self, tmp_path):
        fresh = _write_serve(tmp_path / "fresh", _serve_payload(blas_threads=2))
        failures = _serve_failures(tmp_path / "nobase", fresh)
        assert len(failures) == 1
        assert "BLAS ran 2 thread(s)" in failures[0]

    def test_environment_override_allows_any_team(self, tmp_path):
        fresh = _write_serve(
            tmp_path / "fresh",
            _serve_payload(
                blas_threads=2, blas_thread_env={"OPENBLAS_NUM_THREADS": "2"}
            ),
        )
        assert _serve_failures(tmp_path / "nobase", fresh) == []

    def test_unknown_team_on_an_unsupported_build_is_noted(self, tmp_path, capsys):
        fresh = _write_serve(tmp_path / "fresh", _serve_payload(blas_threads=None))
        assert _serve_failures(tmp_path / "nobase", fresh) == []
        assert "BLAS team size unknown" in capsys.readouterr().out

    def test_missing_blas_threads_fails(self, tmp_path):
        payload = _serve_payload()
        del payload["blas_threads"]
        fresh = _write_serve(tmp_path / "fresh", payload)
        failures = _serve_failures(tmp_path / "nobase", fresh)
        assert failures == ["serve bench: no blas_threads recorded"]

    def test_baseline_under_a_different_blas_team_fails(self, tmp_path):
        baseline = _write_serve(tmp_path / "base", _serve_payload(blas_threads=2))
        fresh = _write_serve(tmp_path / "fresh", _serve_payload())
        failures = _serve_failures(baseline, fresh)
        assert len(failures) == 1
        assert "baseline calibrated under 2 BLAS thread(s)" in failures[0]

    def test_bitwise_divergence_fails(self, tmp_path):
        fresh = _write_serve(
            tmp_path / "fresh", _serve_payload(bitwise_equal=False)
        )
        failures = _serve_failures(tmp_path / "nobase", fresh)
        assert failures == [
            "serve bench: a served job's plan diverged bitwise from its "
            "pair's direct engine run"
        ]

    def test_missing_every_job_check_fails(self, tmp_path):
        payload = _serve_payload()
        del payload["every_job_bitwise_equal"]
        fresh = _write_serve(tmp_path / "fresh", payload)
        failures = _serve_failures(tmp_path / "nobase", fresh)
        assert failures == ["serve bench: no every_job_bitwise_equal recorded"]


def _solver_payload(
    *,
    fit_seconds: float = 0.70,
    backend_fit_seconds: dict | None = None,
    reference_seconds: float = 0.0100,
    blas_threads: int | None = 1,
) -> dict:
    return {
        "fit_seconds": fit_seconds,
        "reference_seconds": reference_seconds,
        "blas_threads": blas_threads,
        "backend_fit_seconds": backend_fit_seconds
        or {"fused-dense": 0.68, "batched-restart": 0.60},
    }


def _solver_failures(baseline: dict, fresh: dict, tmp_path: Path):
    for name, payload in (("base", baseline), ("fresh", fresh)):
        (tmp_path / name).mkdir(parents=True, exist_ok=True)
        (tmp_path / name / "BENCH_solver.json").write_text(json.dumps(payload))
    return list(
        compare_bench.check_solver(tmp_path / "base", tmp_path / "fresh", 0.20)
    )


class TestCheckSolver:
    def test_rerun_of_the_same_record_passes(self, tmp_path):
        assert _solver_failures(_solver_payload(), _solver_payload(), tmp_path) == []

    def test_pinned_slowdown_fails(self, tmp_path):
        # every solve 1.3x slower on the same machine reference
        fresh = _solver_payload(
            fit_seconds=0.70 * 1.3,
            backend_fit_seconds={"fused-dense": 0.68 * 1.3, "batched-restart": 0.60 * 1.3},
        )
        failures = _solver_failures(_solver_payload(), fresh, tmp_path)
        assert len(failures) == 3
        assert failures[0].startswith("solver microbench regressed")
        assert any("backend batched-restart regressed" in f for f in failures)
        assert any("backend fused-dense regressed" in f for f in failures)

    def test_backend_only_slowdown_fails(self, tmp_path):
        fresh = _solver_payload(
            backend_fit_seconds={"fused-dense": 0.68, "batched-restart": 0.60 * 1.3}
        )
        failures = _solver_failures(_solver_payload(), fresh, tmp_path)
        assert len(failures) == 1
        assert "backend batched-restart regressed" in failures[0]

    def test_reference_under_a_different_blas_team_fails(self, tmp_path):
        # a baseline calibrated under a 2-thread team (0.607 s fit,
        # 0.00606 s reference) against a one-thread run whose fit is
        # 1.5x slower: the one-thread reference (0.00976 s) would hide
        # the slowdown (93x vs 100x reference, an apparent speed-up)
        baseline = _solver_payload(
            fit_seconds=0.607, reference_seconds=0.00606, blas_threads=2
        )
        fresh = _solver_payload(
            fit_seconds=0.607 * 1.5, reference_seconds=0.00976, blas_threads=1
        )
        failures = _solver_failures(baseline, fresh, tmp_path)
        assert len(failures) == 1
        assert "calibrated figures are not comparable" in failures[0]


class TestGateWiring:
    def test_check_scale_wired_into_main(self, tmp_path, capsys):
        """main() must actually call check_scale — a regression that
        lands only when the committed artefacts trip it."""
        for name in (
            "BENCH_solver.json",
            "BENCH_serve.json",
            "BENCH_fidelity.json",
        ):
            src = REPO_ROOT / name
            if not src.exists():
                pytest.skip(f"{name} not present in the tree")
        baseline = tmp_path / "base"
        baseline.mkdir()
        for name in (
            "BENCH_solver.json",
            "BENCH_serve.json",
            "BENCH_fidelity.json",
        ):
            (baseline / name).write_text((REPO_ROOT / name).read_text())
        _write(baseline, _scale_payload(block_speedup=1.04))
        current = tmp_path / "current"
        current.mkdir()
        for name in (
            "BENCH_solver.json",
            "BENCH_serve.json",
            "BENCH_fidelity.json",
        ):
            (current / name).write_text((REPO_ROOT / name).read_text())
        _write(current, _scale_payload(block_speedup=0.75))
        rc = compare_bench.main(
            [str(baseline), "--current-dir", str(current)]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert "block_speedup" in captured.err
