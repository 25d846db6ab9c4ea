"""Smoke test of the benchmark harness at tiny sizes.

    python3 perfbench/smoke.py

Run from the root of a checkout.  Checks that every metric BENCHMARK.json
names is printed with its unit, that a deliberately corrupted job output is
counted as failed, and that traced and untraced runs give identical output
digests.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for workload in workloads.WORKLOADS:
        results = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run.run(workload, 1, 0.2, trace, root, tiny=True)
            printed = json.loads(run.summary_line(result))["metrics"]
            named = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in printed.items()}
            expect(got == named, f"{workload} trace={trace}: every {section} metric "
                                 f"printed with its unit")
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace={trace}: all outputs pass their checks")
            results[trace] = result
        digests = [{j["id"]: j["digest"] for j in results[t]["jobs"]} for t in (0, 1)]
        expect(digests[0] == digests[1], f"{workload}: traced and untraced digests agree")

    clean = run.run("exact", 2, 0.2, 1, root, tiny=True)
    victim = clean["jobs"][0]["id"]
    broken = run.run("exact", 2, 0.2, 1, root, tiny=True, corrupt=victim)
    status = {j["id"]: j["status"] for j in broken["jobs"]}
    expect(status[victim] == "error" and not broken["correct"]
           and broken["metrics"]["failed_frac"]["value"] > 0,
           f"corrupted output of {victim} is counted in failed_frac")
    changed = compare.differences(clean, broken)
    expect(len(changed) == 1 and victim in changed[0],
           "comparing result sets lists exactly the corrupted job")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
