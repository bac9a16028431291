"""Record the seed-independent answers that have no hand-derived check.

    python3 perfbench/record.py

Writes ``perfbench/expected.json``: the fact ids of each preset, and for
each `vfkit lie` case of the symbolic-certify workload the digest of its
bracket-word list and its certificate (neither depends on the point).
Run it only to re-record on purpose; the benchmark compares every run
against this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from vfkit import cli, presets  # noqa: E402

import workloads  # noqa: E402


def main():
    cases = [case for table in (workloads.LIE_CASES, workloads.FLAT_LIE_CASES)
             for size_cases in table.values() for case in size_cases]
    paths = workloads._write_systems(sorted({system for system, _, _ in cases}))
    lie = {}
    for system, depth, degree in cases:
        argv = ["lie", "--system", paths[system], "--point", "1,1", "--depth", str(depth),
                "--format", "json"]
        if degree is not None:
            argv += ["--module-degree", str(degree)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if cli.main(argv) != 0:
                raise SystemExit(f"vfkit {' '.join(argv)} failed")
        res = json.loads(buf.getvalue())["results"]
        lie[workloads.lie_key(system, depth, degree)] = {
            "words_sha256": workloads._sha(res["words"]),
            "stabilized_at": res["stabilized_at"],
            "certificate": res["certificate"],
        }
    expected = {
        "corpus_facts": {name: [f.fact_id for f in preset.facts]
                         for name, preset in presets.PRESETS.items()},
        "lie_words": lie,
    }
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(f"wrote {workloads.EXPECTED_PATH}")


if __name__ == "__main__":
    main()
