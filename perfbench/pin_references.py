"""Write references.json: every op's outputs at the current checkout.

    python3 perfbench/pin_references.py

The references were pinned at the commit that added this benchmark; rerun this
only when a change to dscat's outputs is intended.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import run
import workloads


def main() -> None:
    cli = run.import_cli()
    refs = {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for workload in workloads.WORKLOADS:
            for op in workloads.make_ops(workload):
                rc, stdout, _, _, crash = run.execute(cli, op, Path(tmp))
                if crash is not None:
                    raise SystemExit(f"{op.key} raised:\n{crash}")
                refs[op.key] = workloads.parse(workload, rc, stdout, Path(tmp))
                print(op.key, "exit", rc)
    lines = (f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in refs.items())
    workloads.REFERENCES.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
