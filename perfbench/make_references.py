"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_references.py --src path/to/checkout/src \\
        --out perfbench/references.json [--size full] [--variant N]

Runs every variant of every workload once through ``sirblab.cli.main`` of
the package under ``--src`` and stores the fingerprint of its outputs
(reference.py). The committed references.json was recorded this way from
the sources of commit feac582, so later changes to the program are checked
against that behaviour. ``--variant N`` records variant N only (the
self-test's tiny references).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import reference
import workloads


def record(src: Path, size: str, variants) -> dict:
    sys.path.insert(0, str(src))
    import sirblab
    import sirblab.cli

    refs = {"size": size, "sirblab": sirblab.__version__, "rtol": reference.RTOL,
            "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, kind in workloads.WORKLOADS.items():
            table = refs["workloads"][name] = {}
            for variant in variants:
                config = os.path.join(tmp, f"{name}-{variant}.json")
                out = os.path.join(tmp, f"{name}-{variant}")
                with open(config, "w", encoding="utf-8") as fh:
                    json.dump(workloads.make_doc(name, variant, size), fh)
                code = sirblab.cli.main(workloads.cli_argv(name, config, out))
                if code != 0:
                    raise SystemExit(f"{name} variant {variant} exited with {code}")
                table[str(variant)] = reference.fingerprint(kind, out)
                print(f"recorded {name} variant {variant}", file=sys.stderr)
    return refs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--variant", type=int, choices=range(workloads.VARIANTS),
                        metavar="N", help="record this variant only (default: all)")
    args = parser.parse_args(argv)
    variants = range(workloads.VARIANTS) if args.variant is None else [args.variant]
    refs = record(args.src.resolve(), args.size, variants)
    args.out.write_text(json.dumps(refs, separators=(",", ":")) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
