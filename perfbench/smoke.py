"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py            # or: python3 -m pytest perfbench/smoke.py

Run from the root of a checkout.  Checks that every workload runs, prints
every metric named in BENCHMARK.json with its unit, counts a deliberately
wrong reference value as a failure, and refuses to run without the sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(*extra, cwd=ROOT, workload="fixed-tables", trace=0):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc) -> tuple[dict, list[str]]:
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _fail_count(lines: list[str]) -> int:
    line = next(line for line in lines if line.startswith("fail_frac "))
    return int(line.split("(")[1].split()[0])


def test_every_metric_prints_with_its_unit():
    spec = _declared()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            out, _ = _result(_run("--tiny", workload=workload, trace=trace))
            assert set(out) == RESULT_KEYS
            assert out["correct"] is True, (workload, trace)
            assert out["attempted"] >= 1 and out["failed"] == 0
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: v["unit"] for name, v in out["metrics"].items()}
            assert got == want, (workload, group)
            for name, v in out["metrics"].items():
                assert isinstance(v["value"], (int, float)), name


def test_wrong_reference_counts_as_failure():
    clean, clean_lines = _result(_run("--tiny"))
    planted, planted_lines = _result(_run("--tiny", "--wrong-reference"))
    assert _fail_count(planted_lines) == _fail_count(clean_lines) + 1
    assert planted["metrics"]["pass_frac"]["value"] < clean["metrics"]["pass_frac"]["value"]
    assert clean["correct"] is True and planted["correct"] is False


def test_refuses_without_sources():
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="smoke-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"PASS {name}")
