"""Write perfbench/reference.json: the outputs of the first ops of every
workload for the default seed, which later runs are checked against.

    python3 perfbench/make_reference.py

Run it only when the program's outputs are meant to change; the file pins
them at the commit that wrote it.  An op that fails at that commit is stored
as null with its error next to it, and stays in the workload.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import run, workloads  # noqa: E402

# More ops than a default-length run completes on a 2-core machine.
OPS = {"model-sweep": 160, "endpoint-grid": 80, "cli-verify": 32}


def main() -> int:
    run._cap_blas_threads()
    sys.path.insert(0, str(run.SRC))
    data = {"seed": run.DEFAULT_SEED, "grid_n": workloads.GRID_N,
            "git_commit": run._git_commit(), "ops": {}, "failed_ops": {}}
    for name, count in OPS.items():
        workdir = run.OUT / f"reference-{name}"
        try:
            bench, _, _ = run.set_up_here(name, run.DEFAULT_SEED, workdir)
            rows, failed = [], []
            for _ in range(count):
                op = next(bench.ops)
                with contextlib.redirect_stderr(io.StringIO()):
                    _, res, err = run.run_op(bench.prepare(op, False), op, [])
                if err:
                    rows.append(None)
                    failed.append(err)
                else:
                    rows.append({k: res[k] for k in workloads.CHECKED_KEYS if k in res})
            data["ops"][name] = rows
            data["failed_ops"][name] = failed
            print(f"{name}: {count} ops, {len(failed)} failed", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
