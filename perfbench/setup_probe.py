"""Build one workload's inputs in a fresh interpreter and print their digest.

    python3 perfbench/setup_probe.py <workload> <seed>

run.py times this whole process as the workload's set-up: starting the
interpreter, importing squaretour and generating the inputs from the seed.
"""

import sys

import workloads

wl = workloads.WORKLOADS[sys.argv[1]]
print(workloads.inputs_digest(wl, wl.build(int(sys.argv[2]))))
