"""Property-based fuzzing of the communication sanitizer.

Random small SPMD programs are generated in two flavours: *well-formed*
(every send received, every request waited, collectives agree — built by
construction from a global event order, so they are also deadlock-free)
and *seeded* with exactly one violation of a chosen class.  The
sanitizer must flag exactly the injected class and must never flag a
well-formed program — including when a fault plan is injecting
duplicates and delays underneath it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, RuntimeSimulationError, SanitizerError
from repro.runtime.comm import AllReduce, Irecv, Recv, Send, Wait
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.scheduler import Simulator
from repro.sanitize import CommSanitizer, SanitizerReport
from repro.sanitize.comm import VIOLATION_KINDS

#: the reducers a generated ``AllReduce`` may use
REDUCERS = ("sum", "max", "xor")


# ------------------------------------------------------ program generator
@st.composite
def spmd_programs(draw):
    """A (nranks, events) pair describing a well-formed SPMD program.

    Events are globally ordered; every rank replays its slice of that
    order, which makes the program deadlock-free by construction (each
    blocking receive's send is issued at an earlier-or-equal global
    position).
    """
    nranks = draw(st.integers(2, 4))
    n_events = draw(st.integers(1, 8))
    events = []
    for i in range(n_events):
        kind = draw(st.sampled_from(["p2p", "async", "collective"]))
        if kind == "collective":
            events.append(("collective", draw(st.sampled_from(REDUCERS))))
        else:
            src = draw(st.integers(0, nranks - 1))
            dst = (src + draw(st.integers(1, nranks - 1))) % nranks
            arr = draw(st.booleans())
            events.append((kind, src, dst, arr))
    return nranks, events


def build_scripts(nranks, events):
    """Per-rank op scripts from the global event order (drain not added)."""
    scripts = [[] for _ in range(nranks)]
    for i, ev in enumerate(events):
        if ev[0] == "collective":
            for r in range(nranks):
                scripts[r].append(("coll", ev[1]))
        else:
            kind, src, dst, arr = ev
            tag = f"t{i}"
            scripts[src].append(("send", dst, tag, arr))
            scripts[dst].append(("recv" if kind == "p2p" else "irecv",
                                 src, tag))
    return scripts


def make_program(scripts):
    def prog(ctx):
        pending = []
        for op in scripts[ctx.rank]:
            name = op[0]
            if name == "send":
                payload = np.arange(4) if op[3] else 7
                yield Send(op[1], op[2], payload)
            elif name == "recv":
                yield Recv(op[1], op[2])
            elif name == "irecv":
                pending.append((yield Irecv(op[1], op[2])))
            elif name == "leak":
                yield Irecv(op[1], op[2])  # deliberately never waited
            elif name == "dwait":
                req = yield Irecv(op[1], op[2])
                yield Wait(req)
                yield Wait(req)
            elif name == "mutsend":
                buf = np.arange(4)
                yield Send(op[1], "mut", buf)
                buf[0] = 99
            elif name == "mutrecv":
                yield Recv(op[1], "mut")
            elif name == "coll":
                yield AllReduce(ctx.rank + 1, op=op[1])
        for req in pending:
            yield Wait(req)

    return prog


def inject(scripts, kind, a, b):
    """Seed exactly one violation of ``kind`` into well-formed scripts."""
    if kind == "self-send":
        scripts[a].append(("send", a, "viol", False))
    elif kind == "unmatched-send":
        scripts[a].append(("send", b, "viol", False))
    elif kind == "leaked-request":
        scripts[b].append(("leak", a, "viol"))
    elif kind == "double-wait":
        scripts[a].append(("send", b, "viol", False))
        scripts[b].append(("dwait", a, "viol"))
    elif kind == "collective-divergence":
        for r in range(len(scripts)):
            scripts[r].append(("coll", "max" if r == a else "sum"))
    elif kind == "send-buffer-mutation":
        # a sends + mutates before a global all-reduce; b receives after
        # it, so the mutation is guaranteed to precede delivery
        scripts[a].append(("mutsend", b))
        for r in range(len(scripts)):
            scripts[r].append(("coll", "sum"))
        scripts[b].append(("mutrecv", a))
    else:  # pragma: no cover - exhaustiveness guard
        raise AssertionError(kind)


FUZZ = settings(max_examples=50, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# ------------------------------------------------------------- properties
@FUZZ
@given(spmd_programs())
def test_well_formed_programs_never_flagged(program):
    nranks, events = program
    scripts = build_scripts(nranks, events)
    san = CommSanitizer("strict")
    Simulator(nranks, sanitizer=san).run(make_program(scripts))
    assert san.report.clean
    assert san.report.ops_checked > 0


@FUZZ
@given(spmd_programs(), st.integers(0, 2 ** 31 - 1))
def test_well_formed_clean_under_fault_plans(program, seed):
    nranks, events = program
    scripts = build_scripts(nranks, events)
    plan = FaultPlan(
        specs=(
            FaultSpec(kind="duplicate", p=0.5),
            FaultSpec(kind="delay", delay=0.25, p=0.5),
        ),
        seed=seed,
    )
    san = CommSanitizer("strict")
    Simulator(nranks, faults=plan, sanitizer=san).run(make_program(scripts))
    assert san.report.clean


@FUZZ
@given(spmd_programs(), st.sampled_from(VIOLATION_KINDS),
       st.integers(0, 3), st.integers(1, 3))
def test_seeded_violation_flagged_as_exactly_its_class(program, kind,
                                                       a_raw, off):
    nranks, events = program
    a = a_raw % nranks
    b = (a + off % (nranks - 1) + 1) % nranks if nranks > 1 else a
    scripts = build_scripts(nranks, events)
    inject(scripts, kind, a, b)
    with pytest.raises(SanitizerError) as ei:
        Simulator(nranks, sanitizer=CommSanitizer("strict")).run(
            make_program(scripts)
        )
    assert ei.value.kind == kind
    assert ei.value.rank is not None


@FUZZ
@given(spmd_programs(), st.sampled_from(VIOLATION_KINDS),
       st.integers(0, 3), st.integers(1, 3))
def test_warn_mode_counts_exactly_one_class(program, kind, a_raw, off):
    nranks, events = program
    a = a_raw % nranks
    b = (a + off % (nranks - 1) + 1) % nranks if nranks > 1 else a
    scripts = build_scripts(nranks, events)
    inject(scripts, kind, a, b)
    rep = SanitizerReport()
    try:
        Simulator(nranks, sanitizer=CommSanitizer("warn", rep)).run(
            make_program(scripts)
        )
    except (DeadlockError, RuntimeSimulationError):
        # warn mode records the violation but lets the program run on; a
        # double wait then blocks forever — the report stands
        pass
    counts = rep.counts()
    assert counts.get(kind, 0) >= 1
    # a self-sent message necessarily also sits unreceived in the inbox;
    # every other injection must produce no collateral findings
    allowed = {kind} | ({"unmatched-send"} if kind == "self-send" else set())
    assert set(counts) <= allowed


@FUZZ
@given(spmd_programs())
def test_sanitizer_is_deterministic(program):
    nranks, events = program
    scripts = build_scripts(nranks, events)
    reports = []
    for _ in range(2):
        san = CommSanitizer("strict")
        Simulator(nranks, sanitizer=san).run(make_program(scripts))
        reports.append(san.report.ops_checked)
    assert reports[0] == reports[1]
