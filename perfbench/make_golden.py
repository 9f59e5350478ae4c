"""Write perfbench/golden/*.json: the outputs of the tree under test at the golden seed.

    python3 perfbench/make_golden.py

Run it only on a commit whose outputs are the reference, never to make a
failing check pass: every benchmark run compares against these files.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

sys.dont_write_bytecode = True  # keep the benchmark's own bytecode out of the tree
import run  # noqa: E402


def main() -> None:
    seed = run.GOLDEN_SEED
    run.OUT.mkdir(exist_ok=True)
    workdir = run.OUT / f"golden-{os.getpid()}"
    workdir.mkdir()
    try:
        table1 = run.child(workdir, "table1", "timed", seed).result
        stream = run.child(workdir, "stream", "timed", seed).result
        files = run.write_process_inputs(workdir, seed)
        _, rows = run.process_call(workdir, files)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    by_name = run.rows_by_file(rows)
    outputs = {
        "table1": {"report": table1["reports"][0], "clean_eot": table1["clean_eot"]},
        "stream": {"signals": stream["signals"], "clean_eot": stream["clean_eot"]},
        "process": {"rows": [by_name[f.name] for f in files]},
    }
    run.GOLDEN.mkdir(exist_ok=True)
    for workload, payload in outputs.items():
        payload = {"seed": seed, **payload}
        (run.GOLDEN / f"{workload}.json").write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
