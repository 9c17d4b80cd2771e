"""Start the ``repro serve`` entry point for the benchmark.

Usage (``PYTHONPATH`` must reach the ``src/`` tree)::

    python3 bench/serve_launcher.py --report OUT.json --trace 0|1 \\
        --host 127.0.0.1 --port 0 --workers 1 --cache-dir DIR

Everything after the launcher's own two options goes to ``repro
serve``. With ``--trace 1`` the layer wrappers of ``spans.py`` are set
before the daemon builds its worker tier; each SIGUSR1 then starts the
next span phase, alternately off and on (phase 0, the start-up and
warm-up solve, is on). On exit, SIGTERM included, the launcher writes
its import time, its peak RSS and the spans to ``--report``.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, serve_args = parser.parse_known_args()

    start = time.perf_counter()
    import repro.cli
    import repro.service  # noqa: F401  (imported by `serve`; timed here)
    import_s = time.perf_counter() - start

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.install_service(recorder)
        signal.signal(signal.SIGUSR1, lambda *_: recorder.next_phase(
            enabled=recorder.phase % 2 == 1))
    try:
        return repro.cli.main(["serve", *serve_args])
    finally:
        # ru_maxrss is in KiB on Linux
        report = {"import_s": import_s,
                  "rss_peak_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024}
        if recorder is not None:
            report["spans"] = [list(span) for span in recorder.spans]
        args.report.write_text(json.dumps(report))


if __name__ == "__main__":
    sys.exit(main())
