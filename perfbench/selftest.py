#!/usr/bin/env python3
"""The benchmark's own tests, on tiny inputs (about a minute):

    python3 perfbench/selftest.py

1. Every workload (the gated ones of BENCHMARK.json and the ungated
   refresh), untraced and traced, prints every metric BENCHMARK.json names,
   with its unit, and a correct result in which no request failed.
2. A doctored ok reply and a doctored degraded reply each fail the oracle.
3. One seed reproduces byte-identical inputs; another seed does not.
4. Without the repo's sources beside it the benchmark exits non-zero and
   prints no result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def bench(*args, cwd=ROOT, run=RUN):
    return subprocess.run([sys.executable, run, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def last_json(out):
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    return cond


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for w in [w["name"] for w in spec["workloads"]] + ["refresh"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            out = bench("--workload", w, "--seed", "3", "--seconds", "1",
                        "--trace", trace, "--tiny")
            res = last_json(out) if out.returncode == 0 else None
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in (res or {}).get("metrics", {}).items()}
            passed = check(res is not None and res["correct"] and got == want
                           and res["attempted"] >= 1 and res["failed"] == 0,
                           f"{w} --trace {trace}: correct, none failed, "
                           f"{len(want)} metrics with units")
            if not passed:
                sys.stderr.write(out.stderr + "\n".join(out.stdout.splitlines()[-3:]) + "\n")
            ok &= passed

    for cls in ("ok", "degraded"):
        out = bench("--workload", "serve-hot", "--seed", "3", "--seconds", "1",
                    "--trace", "0", "--tiny", "--doctor-reply", cls)
        res = last_json(out) if out.returncode == 0 else None
        ok &= check(res is not None and res["correct"] is False,
                    f"a doctored {cls} reply fails the oracle")

    os.makedirs(os.path.join(ROOT, ".perfbench_run"), exist_ok=True)
    dumps = []
    for seed in ("5", "5", "6"):
        fd, path = tempfile.mkstemp(dir=os.path.join(ROOT, ".perfbench_run"))
        os.close(fd)
        bench("--workload", "refresh", "--seed", seed, "--tiny", "--dump-inputs", path)
        with open(path, "rb") as f:
            dumps.append(f.read())
        os.remove(path)
    ok &= check(dumps[0] and dumps[0] == dumps[1], "one seed gives byte-identical inputs")
    ok &= check(dumps[0] != dumps[2], "another seed gives other requests")

    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_run"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = bench("--workload", "serve-hot", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=bare, run=os.path.join(bare, "perfbench", "run.py"))
        ok &= check(out.returncode != 0 and not out.stdout.strip(),
                    "without the sources: non-zero exit, no result")
    finally:
        shutil.rmtree(bare)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
