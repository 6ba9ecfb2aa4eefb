#!/usr/bin/env python3
"""Shows that every correctness check of every workload can fail.

Run from the repository root:

    python3 perfbench/test_checks.py

For each workload it makes one short clean run, which must pass every
check, and then one run per check with `--corrupt <check>`: the workload
damages that check's outcome (a decrypted byte, a listed id, a count, a
snapshot byte, a merged result) before the check runs, and the run must
then report `"correct": false` with exactly that check failed. Exits 1 if
any expectation does not hold.
"""
import json
import re
import subprocess
import sys

CHECKS = {
    "upload": ["live_set", "replays", "syncs", "reopen", "decrypt",
               "self_rank"],
    "search": ["syncs", "reopen", "map", "ivf_recall", "self_rank",
               "decrypt"],
    "serve": ["live_set", "replays", "syncs", "reopen", "self_rank",
              "decrypt"],
    "cluster": ["union", "self_rank", "decrypt", "live_set", "syncs",
                "replicas", "reopen"],
}


def run(workload, corrupt):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "11", "--seconds", "1", "--trace", "0"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        return None, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    failed = re.findall(r"^CHECK FAILED (\S+):", proc.stderr, re.M)
    return result, failed


def main():
    problems = 0
    for workload, checks in CHECKS.items():
        for corrupt in [""] + checks:
            result, failed = run(workload, corrupt)
            if result is None:
                ok = False
                detail = "run failed: " + failed.strip().splitlines()[-1]
            elif not corrupt:
                ok = result["correct"] and not failed
                detail = "clean run, failed checks: %s" % failed
            else:
                ok = not result["correct"] and failed == [corrupt]
                detail = "failed checks: %s" % failed
            problems += not ok
            print("%-4s %-8s %-11s %s" % ("ok" if ok else "FAIL", workload,
                                         corrupt or "(clean)", detail))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
