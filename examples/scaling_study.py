#!/usr/bin/env python3
"""Paper-scale performance study: regenerate all six evaluation figures.

Runs the simulated-mode experiment behind every figure in the paper's §5
and prints its table; ``tests/test_bench_figures.py`` holds each to the
paper's shape.  Takes a couple of minutes.
"""

import argparse

from repro.bench import ablations, fig6, fig7, fig8, fig9, fig10, fig11


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args(argv)

    for module in (fig6, fig7, fig8, fig9, fig10, fig11):
        print(module.run().table())
        print()
    print(ablations.secret_graph_ablation().table())
    print()
    print(ablations.topology_ablation().table())
    print()
    print(ablations.churn_restart_ablation().table())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
