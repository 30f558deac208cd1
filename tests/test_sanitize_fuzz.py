"""Property-based fuzzing of the communication sanitizer.

Random small SPMD programs are generated in two flavours: *well-formed*
(every message received, every exchange collected, collectives agree —
built by construction from a global event order, so they are also
deadlock-free) and *seeded* with exactly one violation of a chosen
class.  The sanitizer must flag exactly the injected class and must
never flag a well-formed program — including when a fault plan is
injecting duplicates and delays underneath it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, RuntimeSimulationError, SanitizerError
from repro.runtime.comm import AllReduce, Collect, Exchange
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.scheduler import Simulator
from repro.sanitize import CommSanitizer, SanitizerReport
from repro.sanitize.comm import VIOLATION_KINDS


# ------------------------------------------------------ program generator
@st.composite
def spmd_programs(draw):
    """A (nranks, events) pair describing a well-formed SPMD program.

    Events are globally ordered and every rank takes part in each, so
    exchange ordinals agree across ranks and each ``Collect``'s messages
    were sent at an earlier-or-equal global position: the program is
    deadlock-free by construction.  A ``p2p`` event collects at once
    (with every exchange still outstanding); an ``async`` one leaves its
    exchange posted for a later event or the final drain.
    """
    nranks = draw(st.integers(2, 4))
    n_events = draw(st.integers(1, 8))
    events = []
    for i in range(n_events):
        kind = draw(st.sampled_from(["p2p", "async", "collective"]))
        if kind == "collective":
            events.append(("collective",))
        else:
            src = draw(st.integers(0, nranks - 1))
            dst = (src + draw(st.integers(1, nranks - 1))) % nranks
            arr = draw(st.booleans())
            events.append((kind, src, dst, arr))
    return nranks, events


def _exchange(scripts, src, dst, payload, listed=True, collect=True):
    """One exchange on every rank: ``src`` sends ``payload`` to ``dst``,
    which lists ``src`` unless not ``listed``; ``collect=None`` leaves it
    posted for good."""
    for r, script in enumerate(scripts):
        sends = {dst: payload} if r == src else {}
        recv_from = (src,) if r == dst and listed else ()
        script.append(("exchange", sends, recv_from, collect))


def build_scripts(nranks, events):
    """Per-rank op scripts from the global event order (drain not added)."""
    scripts = [[] for _ in range(nranks)]
    for ev in events:
        if ev[0] == "collective":
            for script in scripts:
                script.append(("coll", "scalar"))
        else:
            kind, src, dst, arr = ev
            _exchange(scripts, src, dst, np.arange(4) if arr else 7,
                      collect=kind == "p2p")
    return scripts


def make_program(scripts):
    def prog(ctx):
        pending = 0
        for op in scripts[ctx.rank]:
            if op[0] == "coll":
                yield AllReduce(ctx.rank + 1 if op[1] == "scalar"
                                else np.zeros(2, np.int64))
                continue
            _, sends, recv_from, collect = op
            yield Exchange(sends, recv_from)
            if collect is None:
                continue  # deliberately never collected
            pending += 1
            if collect:
                for _ in range(pending):
                    yield Collect()
                pending = 0
        for _ in range(pending):
            yield Collect()

    return prog


def inject(scripts, kind, a, b, variant):
    """Seed exactly one violation of ``kind`` into well-formed scripts."""
    if kind == "unmatched-send":
        # b leaves a out of its recv_from, or never collects the exchange
        _exchange(scripts, a, b, 7, listed=bool(variant),
                  collect=None if variant else True)
    elif kind == "collective-divergence":
        for r, script in enumerate(scripts):
            script.append(("coll", "array" if r == a else "scalar"))
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
    inject(scripts, kind, a, b, off % 2)
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
    inject(scripts, kind, a, b, off % 2)
    rep = SanitizerReport()
    try:
        Simulator(nranks, sanitizer=CommSanitizer("warn", rep)).run(
            make_program(scripts)
        )
    except (DeadlockError, RuntimeSimulationError):  # pragma: no cover
        pytest.fail("a seeded violation must not stall the program")
    counts = rep.counts()
    assert counts.get(kind, 0) >= 1
    assert set(counts) == {kind}  # no collateral findings


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
