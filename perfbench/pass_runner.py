"""One benchmark pass in a fresh interpreter: import sscorpus, run CLI calls.

Usage: ``python3 pass_runner.py SPEC_JSON`` where SPEC_JSON holds
``{"src": <package dir>, "calls": [[argv...], ...], "trace": bool}``.

Prints one JSON line with the clocks the harness turns into metrics:
``ready`` (``time.monotonic`` right after ``import sscorpus.cli``, comparable
with the parent's clock on Linux), the ``perf_counter`` seconds from the first
call into the CLI to the return of the last one, the CPU seconds spent in the
same interval by this process and the children it reaped, the host-speed calibration readings taken right before and right
after that interval (``calibrate.py``), the exit code and captured stdout of
each call, the peak resident memory and, when traced, the span table.
"""

import sys
import time

from sscorpus import cli

READY = time.monotonic()

import contextlib  # noqa: E402  (imports after READY are harness cost, not set-up)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402


def _cpu_seconds() -> float:
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN),
        )
    )


def _peak_rss_kib() -> int:
    """High-water resident memory of this process image.

    ``ru_maxrss`` is not used where ``VmHWM`` exists: Linux carries the
    spawning process's peak across fork and exec into ``ru_maxrss``, so it
    would report the harness's memory, not the pass's.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    spec = json.loads(sys.argv[1])
    package_dir = Path(cli.__file__).resolve().parent
    if package_dir != Path(spec["src"]).resolve():
        print(f"imported sscorpus from {package_dir}, expected {spec['src']}", file=sys.stderr)
        return 3

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    codes, stdouts = [], []
    calibration_before = calibrate.host_seconds()
    cpu_start = _cpu_seconds()
    start = time.perf_counter()
    for argv in spec["calls"]:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            codes.append(cli.main(argv))
        stdouts.append(captured.getvalue())
    seconds = time.perf_counter() - start
    cpu_seconds = _cpu_seconds() - cpu_start
    calibration_after = calibrate.host_seconds()

    result = {
        "ready": READY,
        "seconds": seconds,
        "cpu_seconds": cpu_seconds,
        "calibration_s": [calibration_before, calibration_after],
        "codes": codes,
        "stdouts": stdouts,
        "peak_rss_kib": _peak_rss_kib(),
    }
    if tracer is not None:
        result["spans"] = tracer.rows()
        result["caches"] = tracing.cache_counts()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
