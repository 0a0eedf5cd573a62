"""Entry point: ``python3 perfbench/run.py`` (what ``BENCHMARK.json`` names).

Puts the repository root and ``src/`` on ``sys.path`` and pins
``PYTHONHASHSEED=0`` for this process and every node process it spawns
(set iteration order is part of what the engine does per op), then hands
over to :mod:`perfbench.cli`.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bootstrap() -> None:
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.exit(f"perfbench: no engine to measure at {source}/repro")
    for path in (source, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


if __name__ == "__main__":
    bootstrap()
    from perfbench.cli import main

    sys.exit(main())
