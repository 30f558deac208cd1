"""A ``repro serve`` subprocess for the smoke tests that drive one."""

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
def repro_serve(*args, cwd=None):
    """Start ``repro serve --port 0 ARGS`` and yield ``(process, base
    url)`` once it has printed the URL it bound; stdout and stderr share
    one pipe.  Still running at exit (the caller did not stop it, or a
    test failed), it is killed."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
         "--port", "0", "--run-seconds", "900", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), cwd=cwd)
    try:
        deadline, log = time.monotonic() + 60, []
        while True:
            ready, _, _ = select.select([proc.stdout], [], [],
                                        max(deadline - time.monotonic(), 0))
            line = proc.stdout.readline() if ready else ""
            log.append(line)
            found = re.search(r"serving detection API on (http://\S+)", line)
            if found:
                break
            assert line, "server never came up:\n" + "".join(log)
        yield proc, found.group(1)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
