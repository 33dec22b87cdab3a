#!/usr/bin/env python3
"""Quick-size smoke test of the benchmark: every workload, untraced and
traced, on small streams.

    python3 perfbench/smoke.py

Asserts for each run that it exits 0, that the result line is valid and
correct, that it carries exactly the metrics ``BENCHMARK.json`` names for
its mode with their units, that every metric name is also printed with
its unit, and that the verdict-parity gate ran on every session.  Takes
about two minutes.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "predict", "multi_engine", "sessions")


def check(workload: str, trace: int, spec: dict) -> None:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", "7", "--seconds", "1", "--trace",
            str(trace), "--quick"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n" \
        f"{proc.stdout}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        f"{where}: result keys {sorted(result)}"
    assert result["correct"] and result["failed"] == 0, \
        f"{where}: {result['failed']} failed session(s)\n{proc.stdout}"
    assert result["attempted"] >= 1, f"{where}: no session attempted"
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}, \
        f"{where}: metrics {sorted(got)}"
    text = "\n".join(lines[:-1])
    for m in wanted:
        value = got[m["name"]]
        assert value["unit"] == m["unit"], f"{where}: {m['name']} unit"
        assert isinstance(value["value"], (int, float)), \
            f"{where}: {m['name']} value"
        assert re.search(rf"{re.escape(m['name'])}\s+\S+\s+"
                         rf"{re.escape(m['unit'])}", text), \
            f"{where}: {m['name']} not printed with its unit"
    parity = re.findall(r"parity\[[^\]]+\]: (\d+)/(\d+) sessions match",
                        text)
    assert parity, f"{where}: the parity gate did not run"
    ran = sum(int(total) for _ok, total in parity)
    assert all(ok == total for ok, total in parity) \
        and ran == result["attempted"], \
        f"{where}: parity covered {parity} of {result['attempted']}"
    for key in ("env: ", "env-end: "):
        assert any(line.startswith(key) for line in lines), \
            f"{where}: no {key.strip()} block"
    print(f"smoke: {where}: ok ({result['attempted']} sessions)")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check(workload, trace, spec)
    print("smoke: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
