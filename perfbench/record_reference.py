"""Record the reference outputs of every workload at the default seed.

    python3 perfbench/record_reference.py

Run it at the commit whose outputs are the reference.  Every output must
first pass its own check.  Later runs compare seed-independent items
with the reference on every seed, and seeded items on the default seed.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    lib = run.load_library()
    outputs = {}
    for name in workloads.BY_NAME:
        workload = workloads.build(name, lib, workloads.DEFAULT_SEED)
        m = run.Measurement()
        run.run_pass(workload, m)
        if m.raised:
            print(f"error: {name}: {m.raised}", file=sys.stderr)
            return 1
        outputs[name] = {}
        for (index, key), raw in m.firsts.items():
            item = workload.items[index]
            reason = item.check(raw)
            if reason is not None:
                print(f"error: {name} {item.name}: {reason}", file=sys.stderr)
                return 1
            outputs[name][item.name] = json.loads(key)
    reference = {"default_seed": workloads.DEFAULT_SEED, "outputs": outputs}
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
