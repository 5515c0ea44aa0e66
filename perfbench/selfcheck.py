"""Tiny-size self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs run.py on a dozen instances of ``desk`` and ``files`` and checks that
every metric named in BENCHMARK.json prints with its unit, untraced and
traced, and that a forged wrong verdict makes the command fail.  Exits 1
on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--seed", "0",
           "--seconds", "0", "--limit", "12", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


def expect(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for workload in ("desk", "files"):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = run("--workload", workload, "--trace", str(trace))
            expect(proc.returncode == 0 and result and result["correct"],
                   "%s --trace %d exits 0 with a correct result"
                   % (workload, trace))
            got = result["metrics"]
            for metric in bench[key]:
                name = metric["name"]
                expect(name in got and got[name]["unit"] == metric["unit"]
                       and isinstance(got[name]["value"], (int, float)),
                       "%s --trace %d prints %s in %s"
                       % (workload, trace, name, metric["unit"]))
    proc, result = run("--workload", "desk", "--trace", "0", "--forge-verdict")
    expect(proc.returncode != 0 and result and not result["correct"]
           and "WRONG" in proc.stdout,
           "a forged wrong verdict fails the command")


if __name__ == "__main__":
    main()
