"""Run a module as ``python -m MODULE`` would, with the speed probe on.

Usage: python perfbench/probed.py SAMPLES_FILE MODULE [ARGS...]

stdout, stderr and the exit code are the module's; the probe's samples
(see speed.py) go to SAMPLES_FILE.
"""

import os
import runpy
import sys

import speed


def main():
    out, module = sys.argv[1], sys.argv[2]
    sys.argv = [module, *sys.argv[3:]]
    sys.path[0] = os.getcwd()  # as under -m, not this file's directory
    probe = speed.Probe()
    try:
        with probe.ticking("python"):
            runpy.run_module(module, run_name="__main__", alter_sys=True)
    finally:
        with open(out, "w") as f:
            f.write(probe.dumps())


if __name__ == "__main__":
    main()
