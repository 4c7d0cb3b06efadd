"""Set-up time of a fresh process, printed as one JSON object.

``python3 perfbench/setup_probe.py CONFIG.json`` times, from the first line
of the process, the import of ``sirblab.cli`` and the calls the CLI makes
before its operation starts, in the same order: for ``simulate``,
``load_json`` and ``build_sim_config(...).build_initial()`` (a ``mode``
start resolves its steady state by tag); for ``sweep``, ``load_json``,
``parse_sweep``, ``analysis_mode_count`` and ``parse_grid``. Each sweep
point's own set-up happens inside ``run_sweep`` and is timed with the
operation.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(config):
    import sirblab.cli  # noqa: F401  (the import is part of what is timed)
    from sirblab import scenario

    doc = scenario.load_json(config)
    if "base" in doc:
        base, _, _, _ = scenario.parse_sweep(doc)
        scenario.analysis_mode_count(base, None)
        scenario.parse_grid(base)
    else:
        scenario.build_sim_config(doc).build_initial()
    print(json.dumps({"setup_s": time.perf_counter() - _START}))


if __name__ == "__main__":
    main(sys.argv[1])
