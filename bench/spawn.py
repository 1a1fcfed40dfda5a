"""Starts the benchmark's CLI calls from a small process.

When a process execs, Linux keeps the peak RSS of the memory it had before
as a floor on its own ``ru_maxrss``. A call started straight from the
benchmark (numpy, mpmath and the program loaded) would therefore report the
benchmark's memory, not its own. This process imports only the standard
modules below (run it with ``python -S``), so the floor it passes on is
that of a bare interpreter, below any call's own peak.

Protocol: one line on stdin per call, its fields separated by NUL:

    timeout_s, stdout_path, stderr_path, cwd, program, args...

and one line back on stdout: seconds from fork to reap, exit status, the
child's peak RSS in KiB, and 1 if it was killed at the timeout, else 0.
The process exits when stdin closes.
"""

import os
import signal
import sys
import time

_FILE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def _child(out, err, cwd, argv):
    try:
        os.chdir(cwd)
        os.dup2(os.open(out, _FILE_FLAGS, 0o644), 1)
        os.dup2(os.open(err, _FILE_FLAGS, 0o644), 2)
        os.execv(argv[0], argv)
    finally:
        os._exit(127)


def main():
    killed = []
    for line in sys.stdin:
        timeout, out, err, cwd, *argv = line.rstrip("\n").split("\0")
        killed.clear()
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            _child(out, err, cwd, argv)

        def kill(signum, frame, pid=pid):
            killed.append(pid)
            os.kill(pid, signal.SIGKILL)

        signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, float(timeout))
        _, status, usage = os.wait4(pid, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        sys.stdout.write(f"{seconds!r} {code} {usage.ru_maxrss} {int(bool(killed))}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
