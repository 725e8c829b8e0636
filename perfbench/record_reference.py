"""Record the outputs every unit key of every workload must reproduce.

    python3 perfbench/record_reference.py [--profile full|tiny ...]

Writes ``perfbench/reference.json``.  Re-record only when a change to the
program is meant to change what it computes, and say so in that change.
"""

import argparse
import json
import sys
from pathlib import Path

import run  # pins BLAS threads before numpy is imported

sys.path.insert(0, str(run.ROOT / "src"))

import workloads  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--profile", action="append", choices=sorted(workloads.PROFILES))
    args = p.parse_args(argv)
    path = Path(run.REFERENCE)
    reference = json.loads(path.read_text()) if path.exists() else {}
    for profile in args.profile or sorted(workloads.PROFILES):
        reference[profile] = {}
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(run.ROOT, profile)
            workload.setup()
            entries = {}
            for key in range(workload.size["pool"]):
                result = workload.run_unit(key, None, None)
                if result.failed:
                    print(f"{profile} {name} key {key}: "
                          f"{result.failed_commands + result.failures}", file=sys.stderr)
                    return 1
                entries[str(key)] = result.record
                print(f"{profile} {name} key {key}: {result.wall_s:.2f} s", flush=True)
            reference[profile][name] = entries
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
