#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

Usage, from the root of the repository:

    python3 perfbench/tests/selftest.py

Runs every workload of BENCHMARK.json at --scale tiny, untraced and traced,
at the pinned seed, and asserts that:
  * each run exits 0 and reports correct, with no failed runs;
  * every end-to-end (untraced) or per-layer (traced) metric is printed,
    by name and with the unit BENCHMARK.json gives it, in the JSON result
    and in the human-readable lines;
  * every traced replay ends on the untraced Engine::run's final-assignment
    hash;
  * a deliberately corrupted final state (--corrupt) is reported as a
    failure: non-zero exit, correct false, failed > 0.
Exits non-zero on the first workload that breaks any of these.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run(workload, trace, extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
           "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny",
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError("%s printed nothing:\n%s" % (cmd, proc.stderr[-3000:]))
    return proc.returncode, json.loads(lines[-1]), lines[:-1]


def check_metrics(where, result, human, declared):
    names = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    assert set(got) == set(names), "%s: metrics %s != declared %s" % (
        where, sorted(got), sorted(names))
    for name, unit in names.items():
        assert got[name]["unit"] == unit, "%s: %s unit %s != %s" % (
            where, name, got[name]["unit"], unit)
        pattern = re.compile(r"^%s \S+ %s$" % (re.escape(name), re.escape(unit)))
        assert any(pattern.match(line) for line in human), \
            "%s: no human-readable line for %s" % (where, name)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            where = "%s trace %d" % (workload, trace)
            code, result, human = run(workload, trace)
            assert code == 0 and result["correct"], "%s failed:\n%s" % (
                where, "\n".join(human))
            assert result["attempted"] >= 1 and result["failed"] == 0, where
            check_metrics(where, result, human, declared)
            if trace:
                pairs = [line.split() for line in human
                         if line.startswith("replay hash ")]
                assert pairs, "%s: no replay hash line" % where
                for words in pairs:
                    # "replay hash H engine hash H"
                    assert words[2] == words[5], "%s: %s" % (where, " ".join(words))
        code, result, human = run(workload, 0, ["--corrupt"])
        assert code != 0 and not result["correct"] and result["failed"] > 0, \
            "%s: corrupted final state was not reported as a failure" % workload
        print("ok %s" % workload)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print("FAIL %s" % e)
        sys.exit(1)
