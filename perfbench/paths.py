"""Where the benchmark finds the program and puts what it writes."""

import os

#: The checkout the benchmark runs in: the directory above ``perfbench/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Everything a run writes (pass records, traces, stores, daemon state).
OUT = os.path.join(ROOT, ".perfbench_out")


def program_present() -> bool:
    """True when the checkout holds the program's sources."""
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))
