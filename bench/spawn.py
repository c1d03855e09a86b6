"""Run one command; report its exit status, wall time and peak RSS.

Usage: python3 -I -S bench/spawn.py REPORT_FD TIMEOUT_S CMD [ARGS...]

The command inherits stdin, stdout and stderr.  When it has ended, one line
"exit wall_s maxrss_kib timed_out" is written to REPORT_FD.  After TIMEOUT_S
seconds the command is killed.

The peak RSS that ``wait4`` reports for a child includes the peak RSS of the
process that started it (the kernel carries the old address space's high-water
mark across ``exec``).  The benchmark's own process is larger than the
smallest CLI jobs, so it starts each job through this script, which runs
without ``site`` and imports only built-in modules, to stay below them.
"""

import os
import signal
import sys
import time


def main(argv):
    report_fd, timeout, cmd = int(argv[0]), float(argv[1]), argv[2:]
    os.set_inheritable(report_fd, False)
    start = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ)
    timed_out = []

    def on_alarm(signum, frame):
        timed_out.append(1)
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(pid, 0)
    wall_s = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    os.write(report_fd, (f"{os.waitstatus_to_exitcode(status)} {wall_s!r} "
                         f"{usage.ru_maxrss} {len(timed_out)}\n").encode())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
