"""Fast self-test of the benchmark harness; not part of the test suite.

    python3 perfbench/selftest.py

Checks, in well under a minute:

* the last line of `run.py` output is the result object, and every metric
  named in BENCHMARK.json is reported with its unit, untraced and traced;
* the correct outputs of deriv-corpus give no failure, and a deliberately
  wrong expectation raises failed_frac, at the corpus's own small bounds and
  for the single-submission workloads at tiny bounds;
* in a directory holding only BENCHMARK.json and the benchmark, `run.py`
  exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXPECTED = json.loads((run.HERE / "expected.json").read_text(encoding="utf-8"))


def check_metrics(result: dict, trace: bool):
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"metrics {sorted(set(got) ^ set(want))} differ; units {got} vs {want}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)


def check_main_prints_result():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "deriv-corpus", "--seed", "7", "--seconds", "0", "--trace", "0"])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    check_metrics(result, trace=False)


def check_failures_counted():
    corpus = run.WORKLOADS["deriv-corpus"]
    for trace in (False, True):
        result = run.run(corpus, EXPECTED["deriv-corpus"], 5, 0, trace)
        check_metrics(result, trace)
        assert result["correct"] and result["failed"] == 0, result

        wrong = copy.deepcopy(EXPECTED["deriv-corpus"])
        wrong["files"]["s02_range_start.imp"]["cost"] = 2
        result = run.run(corpus, wrong, 5, 0, trace)
        check_metrics(result, trace)
        assert not result["correct"] and result["failed"] > 0, result

    # The single-submission workloads at tiny bounds, where their fixes are
    # not the ones expected.json records: every metric must still appear
    # and the mismatch must be counted.
    for name in ("deriv-single", "reverse-alternate"):
        tiny = dataclasses.replace(run.WORKLOADS[name], int_bits=3, max_list=2)
        for trace in (False, True):
            wrong = dict(EXPECTED[name], text=["deliberately wrong"])
            result = run.run(tiny, wrong, 5, 0, trace)
            check_metrics(result, trace)
            assert not result["correct"] and result["failed"] == result["attempted"], result


def check_fails_without_sources():
    bare = run.ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "deriv-corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def main() -> int:
    run.load_autofix()
    for check in (check_main_prints_result, check_failures_counted, check_fails_without_sources):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
