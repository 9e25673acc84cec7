"""One job of one workload in a fresh interpreter; started by run.py.

The clock reading taken right after `import asymcodes` lets run.py measure
set-up time from the moment it started this interpreter.  The last line of
standard output is one JSON object with the job's counts and timings.

With --setup-only the interpreter imports the package and exits.
"""

import time

import asymcodes

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.JOBS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    env = {
        "asymcodes_file": asymcodes.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "enum_cap": asymcodes.words.DEFAULT_ENUM_CAP,
    }
    if args.setup_only:
        print(json.dumps({"imported_at": IMPORTED_AT, "env": env}))
        return 0

    # A traced job runs without the speed probe, so probes never land in spans.
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        tracer.install()
    result = workloads.run(args.workload, args.seed, tracer, None if args.trace else SpeedProbe())
    if args.trace:
        tracer.uninstall()
        tracer.dump(args.spans)
    result.update(
        imported_at=IMPORTED_AT,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        spans=len(tracer.spans) if args.trace else 0,
        env=env,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
