"""Write the correctness gate's references (refs/*.json) from the current
source, one op per workload at seed 42, at full and at tiny size:

    python3 bench/make_refs.py
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

import run
import workloads

REF_SEED = 42


def main():
    wp = run.import_wplap()
    workdir = run.ROOT / ".bench_work" / f"refs-{os.getpid()}"
    workdir.mkdir(parents=True)
    workloads.REFS_DIR.mkdir(exist_ok=True)
    try:
        for tiny in (False, True):
            configs = workloads.write_configs(workdir, tiny)
            for name in workloads.WORKLOADS:
                ref = {}
                for cmd in workloads.COMMANDS[name]:
                    out = workdir / ("tiny" if tiny else "full") / name / cmd
                    argv = workloads.command_argv(name, cmd, configs[name], out, REF_SEED)
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = wp["cli"].main(argv)
                    ref[cmd] = workloads.summarize(wp["cli"], cmd, out, code)
                path = workloads.reference_path(name, tiny)
                path.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
                print(f"wrote {path.relative_to(run.ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
