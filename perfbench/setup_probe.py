"""Set-up probe: one fresh process pays what every CLI invocation pays.

    python3 perfbench/setup_probe.py <src-dir> <workload> [<config.yaml>]

Times importing geoctrl, building the workload's model and, for the CLI
workloads, loading and parsing the config (``set_up`` in workloads.py).
Prints the seconds taken.
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402


def main(argv):
    sys.path.insert(0, argv[0])
    from workloads import WORKLOADS

    WORKLOADS[argv[1]].set_up(argv[2] if len(argv) > 2 else None)
    print(repr(time.perf_counter() - _T0))


if __name__ == "__main__":
    main(sys.argv[1:])
