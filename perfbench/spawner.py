"""Lean process launcher that times each child and reads its own peak RSS.

Linux folds the exec'ing process's old address-space high-water mark into the
child's ru_maxrss, so a child spawned from a large process (one that has
imported numpy and holds reference arrays) reports at least the spawner's
peak. This launcher imports only the standard library and is started before
the benchmark imports anything heavy, so ru_maxrss of its children is their
own high-water mark.

Protocol: one JSON request per stdin line,
    {"argv": [...], "stdout": path, "stderr": path, "env": {...}}
answered by one JSON line
    {"wall_s": float, "exit": int, "maxrss_kb": int}.
The child's stdout and stderr go to the named files. EOF on stdin ends it.
"""

import json
import os
import sys
import time

_OUT_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def run(req):
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, req["stdout"], _OUT_FLAGS, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, req["stderr"], _OUT_FLAGS, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "exit": os.waitstatus_to_exitcode(status), "maxrss_kb": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
