"""Compare two benchmark result files.

    python3 perfbench/compare.py OLD.json NEW.json

Lists every job whose output bytes changed (sha256 digest), every exact
layer count that differs, and the ratio of each metric.  Exits 1 when an
output or an exact count changed.
"""

from __future__ import annotations

import json
import sys

from layers import EXACT_COUNTS


def differences(old: dict, new: dict) -> list[str]:
    """Changed outputs of jobs with the same id and command line, and
    differing exact counts when both results are traced."""
    out = []
    before = {(j["id"], tuple(j["argv"])): j["digest"] for j in old["jobs"]}
    for job in new["jobs"]:
        digest = before.get((job["id"], tuple(job["argv"])))
        if digest is not None and digest != job["digest"]:
            out.append(f"output of {job['id']} changed: {digest[:12]} -> {job['digest'][:12]}")
    if old.get("trace") and new.get("trace") and old["seed"] == new["seed"]:
        for name in EXACT_COUNTS:
            a, b = old["metrics"][name]["value"], new["metrics"][name]["value"]
            if a != b:
                out.append(f"count {name} differs: {a} -> {b}")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.load(open(path)) for path in argv)
    diffs = differences(old, new)
    for line in diffs:
        print(line)
    for name, m in new["metrics"].items():
        base = old["metrics"].get(name, {}).get("value")
        ratio = f"{m['value'] / base:.3f}x" if base else "n/a"
        print(f"{name}: {base} -> {m['value']} {m['unit']} ({ratio})")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
