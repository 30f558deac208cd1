"""A local CLI run is one driver call on the calling thread.

``repro detect-path`` without ``--server`` runs its query with
:func:`repro.service.broker.execute_query` on the thread that parsed the
flags: no detection service, no worker fleet, no HTTP client and no
coordinator thread.  A ``run.json`` written while the CLI still took
``--kernel`` resumes, the key ignored, to an uninterrupted run's rounds.
"""

import json
import os
import subprocess
import sys

import repro.service.broker as broker
from repro.cli import main

_PROBE = """
import json, sys, threading
started = []
_start = threading.Thread.start
def start(self):
    started.append(self.name)
    return _start(self)
threading.Thread.start = start
from repro.cli import main
rc = main(["detect-path", "--er", "200", "-k", "4", "--seed", "3"])
loaded = [m for m in ("repro.service.server", "repro.service.client",
                      "repro.core.process_backend") if m in sys.modules]
print(json.dumps({"rc": rc, "loaded": loaded, "threads": started}))
"""


def test_a_local_run_starts_no_service():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["rc"] == 0  # the k = 4 path is found in the first round
    assert got["loaded"] == []
    assert "midas-service-sweep" not in got["threads"]


def test_a_run_json_with_a_kernel_key_resumes(tmp_path, monkeypatch, capsys):
    # disjoint 4-cliques: witness-free for k = 5, so every round runs
    edges = tmp_path / "cliques.txt"
    edges.write_text("".join(f"{4 * c + i} {4 * c + j}\n" for c in range(6)
                             for i in range(4) for j in range(i + 1, 4)))
    rounds = []
    real = broker.execute_query

    def recording(spec, entry, rt):
        payload, raw = real(spec, entry, rt)
        rounds.append(payload["result"]["round_values"])
        return payload, raw

    monkeypatch.setattr(broker, "execute_query", recording)
    args = ["detect-path", "--edge-list", str(edges), "-k", "5",
            "--eps", "0.3", "--seed", "7"]
    assert main(args) == 1
    # a deadline that trips at once leaves a checkpoint of a cut-short run
    ckpt = tmp_path / "ckpt"
    assert main(args + ["--checkpoint-dir", str(ckpt), "--deadline", "1e-9"]) == 4
    cfg = json.loads((ckpt / "run.json").read_text())
    cfg.update(kernel="bitsliced", deadline=None)
    (ckpt / "run.json").write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["resume", str(ckpt)]) == 1
    assert f"resuming detect-path from {ckpt}" in capsys.readouterr().out
    assert len(rounds[0]) >= 2 and rounds[-1] == rounds[0]
