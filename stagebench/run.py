"""Stage-resolved routing benchmark.

Usage (from the repository root)::

    python3 stagebench/run.py --workload faraday-serial --seed 1 --seconds 25 --trace 0

``--trace 0`` routes the workload's batch with no benchmark spans and
prints the end-to-end metrics; ``--trace 1`` routes it once untraced and
once with stage spans plus ``profile="counters"``, and prints the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  ``attempted``/``failed`` count routing calls;
a call that crashes or times out is failed, counts all its nets as
unrouted, and fails the correctness check.  The exit code is 1 when the
correctness check fails and 2 when the routing package is missing.
See ``stagebench/README.md``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

if __name__ == "__main__":
    try:
        import repro.api  # noqa: F401
    except ImportError as exc:
        print(f"stagebench: cannot import the routing package: {exc}", file=sys.stderr)
        sys.exit(2)
    from bench import main, stop_children

    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
