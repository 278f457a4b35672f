"""Set-up probe, run in a fresh interpreter: import ieskit from the checkout,
parse the given configs and build their fields, then print as one JSON line
the import time, the parse-and-build time, and the wall and rescaled time
(speed.py) of the stretch from numpy imported to fields built.

    python3 perfbench/probe.py SRC_DIR CONFIG...
"""

import time

_start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv) -> int:
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    import speed  # numpy, which ieskit imports first anyway

    with speed.SpeedSampler() as sampler:
        from ieskit import cli  # noqa: F401  (what the ieskit entry point imports)
        from ieskit import scenarios

        imported = time.perf_counter()
        for cfg in argv[1:]:
            scenarios.build_field(scenarios.parse_config(cfg))
        built = time.perf_counter()
    if not Path(scenarios.__file__).resolve().is_relative_to(src):
        print(f"ieskit imported from {scenarios.__file__}, not {src}", file=sys.stderr)
        return 2
    print(json.dumps({"import_s": imported - _start, "parse_build_s": built - imported,
                      "sampled_wall_s": sampler.wall_s, "sampled_scaled_s": sampler.scaled_s}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
