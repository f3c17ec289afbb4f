"""`python -m uncrel.cli` under the host-speed sampler.

    python3 bench/clirun.py <uncrel.cli arguments>

Runs uncrel.cli as `python -m` does and, at exit, writes the sampler's
figures to the file named by $UNCREL_BENCH_SPEED (see hostspeed.py).
"""

import atexit
import os
import runpy
import sys

import hostspeed  # found next to this file: sys.path[0] is bench/

atexit.register(hostspeed.Sampler().start().write, os.environ["UNCREL_BENCH_SPEED"])
sys.path[0] = os.getcwd()  # as under `python -m`
sys.argv[0] = "uncrel.cli"
runpy.run_module("uncrel.cli", run_name="__main__", alter_sys=True)
