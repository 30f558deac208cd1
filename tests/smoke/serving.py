"""``repro`` subprocesses for the smoke tests that drive one."""

import os
import re
import select
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")


@contextmanager
def repro_process(argv, url_pattern, cwd=None):
    """Start ``python -m repro ARGV`` and yield ``(process, url)`` once a
    line of its output matches ``url_pattern`` (the URL is its first
    group); stdout and stderr share one pipe.  The wait reads the pipe a
    byte at a time, so everything after the matching line is still there
    for the caller, and a line that arrives in the same chunk as an
    earlier one is not left unseen in a read buffer.  Still running at
    exit (the caller did not stop it, or a test failed), it is killed."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), cwd=cwd)
    try:
        fd, deadline, log, line = proc.stdout.fileno(), time.monotonic() + 60, [], b""
        while True:
            ready, _, _ = select.select([fd], [], [],
                                        max(deadline - time.monotonic(), 0))
            byte = os.read(fd, 1) if ready else b""
            line += byte
            if byte in (b"\n", b""):
                log.append(line.decode(errors="replace"))
                found = re.search(url_pattern, log[-1])
                if found:
                    break
                line = b""
            assert byte, f"no line matching {url_pattern!r}:\n" + "".join(log)
        yield proc, found.group(1)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def repro_serve(*args, cwd=None):
    """Start ``repro serve --port 0 ARGS`` and yield ``(process, base
    url)`` once it has printed the URL it bound."""
    return repro_process(
        ["serve", "--host", "127.0.0.1", "--port", "0", "--run-seconds", "900",
         *args],
        r"serving detection API on (http://\S+)", cwd=cwd)
