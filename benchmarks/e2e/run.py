#!/usr/bin/env python3
"""End-to-end benchmark entry point; see README.md beside this file."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

if __name__ == "__main__":
    if not (SRC / "repro").is_dir():
        sys.exit(f"run.py: the program under test is missing ({SRC / 'repro'})")
    sys.path[:0] = [str(SRC), str(HERE)]
    from e2ebench.cli import main

    sys.exit(main(sys.argv[1:]))
