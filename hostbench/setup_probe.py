"""Time a cold start: import repro, then build one machine and program.

Run as ``python3 setup_probe.py SRC ARCH DISKS TASK SCALE`` in a fresh
interpreter; prints the host seconds from before ``import repro`` to the
built program. Lazy memos (seek curves, zone tables, programs) fill here.
"""

import sys
import time


def main(argv):
    began = time.perf_counter()
    src, arch, disks, task, scale = argv
    sys.path.insert(0, src)
    from repro import Simulator, build_machine, build_program, config_for

    config = config_for(arch, int(disks))
    build_machine(Simulator(), config)
    build_program(task, config, float(scale))
    print(repr(time.perf_counter() - began))


if __name__ == "__main__":
    main(sys.argv[1:])
