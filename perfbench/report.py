"""Run every workload untraced and traced, on the default and a held-out seed.

    python3 perfbench/report.py

Every run lasts ``run_seconds`` of BENCHMARK.json.  For each workload this
makes four runs of run.py, one after another:
untraced on the default seed and on the held-out seed, and traced twice
on the default seed.  It prints the end-to-end metrics of both seeds side
by side, with the job count and fail ratio, then the per-layer metrics of
the traced run with the tracing overhead, and checks that every work
counter of the two traced runs is identical.  Exits 1 if a run fails, is
marked incorrect, or a counter differs.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
SEED = 1
HELD_OUT = 9001  # a seed not used while the benchmark was built
WORKLOADS = ("real-census", "global-census", "crosscheck")
END_TO_END = ("setup_s", "wall_s", "job_p50_s", "job_tail_s", "peak_rss_mb")


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit "
                           f"{proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    jobs = re.search(r"^jobs (\d+): job_tail_s is the p([\d.]+)", proc.stdout, re.M)
    result["jobs"] = (int(jobs.group(1)), float(jobs.group(2))) if jobs else None
    result["failures"] = [ln.strip() for ln in lines if ln.startswith("  FAIL")]
    return result


def main():
    ok = True
    for workload in WORKLOADS:
        seeds = (SEED, HELD_OUT)
        plain = [run(workload, seed, 0) for seed in seeds]
        traced = [run(workload, SEED, 1) for _ in range(2)]

        print(f"\n== {workload}")
        print(f"{'metric':<28}" + "".join(f"{'seed ' + str(s):>18}" for s in seeds))
        for name in END_TO_END:
            unit = plain[0]["metrics"][name]["unit"]
            print(f"{name + ' (' + unit + ')':<28}"
                  + "".join(f"{r['metrics'][name]['value']:>18.6g}" for r in plain))
        print(f"{'jobs (tail percentile)':<28}"
              + "".join(f"{r['jobs'][0]:>11} (p{r['jobs'][1]:.1f})" for r in plain))
        print(f"{'fail_ratio':<28}"
              + "".join(f"{r['failed']:>11}/{r['attempted']:<6}" for r in plain))
        print(f"{'correct':<28}" + "".join(f"{str(r['correct']):>18}" for r in plain))
        for line in sorted(set(plain[0]["failures"])):
            print("  " + line)

        first, second = (r["metrics"] for r in traced)
        differ = [
            name for name, m in first.items()
            if m["unit"] in ("count", "ratio") and m["value"] != second[name]["value"]
        ]
        print(f"-- traced run, seed {SEED}")
        for name, m in first.items():
            print(f"{name:<44}{m['value']:>16.6g} {m['unit']}")
        print("work counters identical across two traced runs: "
              + ("yes" if not differ else "NO: " + ", ".join(differ)))
        ok = ok and not differ and all(r["correct"] for r in plain + traced)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
