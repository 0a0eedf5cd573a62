"""``python -m perfbench`` — same program as ``python3 perfbench/run.py``."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.run import bootstrap  # noqa: E402

bootstrap()

from perfbench.cli import main  # noqa: E402

sys.exit(main())
