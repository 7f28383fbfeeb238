"""Tests of the benchmark's tracer, seeded inputs and gate tolerances.

    python3 -m pytest perfbench
"""

import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gate  # noqa: E402
import inputs  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


def _span(i, parent, start, end, thread=0):
    return Span(i, parent, f"s{i}", thread, start, end)


def test_self_time_subtracts_nested_children():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0),
             _span(2, 1, 2.0, 3.0), _span(3, 0, 5.0, 7.0)]
    selfs = self_times(spans)
    assert selfs == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0}
    # on one thread the self times add up to the root's duration
    assert sum(selfs.values()) == 10.0


def test_self_time_counts_overlapping_children_once():
    # two sweep points running in parallel under one sweep span
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 6.0, thread=1),
             _span(2, 0, 3.0, 8.0, thread=2), _span(3, 0, 9.0, 12.0, thread=1)]
    selfs = self_times(spans)
    assert selfs[0] == 10.0 - 7.0 - 1.0


def test_spans_attributed_per_thread():
    tracer = Tracer()
    both_inside = threading.Barrier(2, timeout=10)

    def inner(tag):
        return tag

    def work(tag):
        both_inside.wait()  # both threads hold an open "work" span here
        return tracer_inner(tag)

    tracer_inner = tracer.wrap("inner", inner)
    traced_work = tracer.wrap("work", work)

    def sweep():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(traced_work, ["a", "b"]))

    assert tracer.wrap("sweep", sweep)() == ["a", "b"]
    by_id = {s.id: s for s in tracer.spans}
    (root,) = [s for s in tracer.spans if s.name == "sweep"]
    works = [s for s in tracer.spans if s.name == "work"]
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert root.parent is None
    assert len(works) == 2 and all(w.parent == root.id for w in works)
    assert {w.thread for w in works} == {i.thread for i in inners}
    assert len({w.thread for w in works}) == 2
    for i in inners:
        parent = by_id[i.parent]
        assert parent.name == "work" and parent.thread == i.thread


def test_install_patches_every_binding_and_restores():
    import thermolim
    from thermolim import dyson, fock, propagator
    original = fock.coherent_state
    tracer = Tracer()
    restore = tracer.install({"thermolim.fock.coherent_state": None})
    try:
        for mod in (thermolim, fock, dyson, propagator):
            assert mod.coherent_state is not original
        state = fock.cat_state(1.0, 0.5, 40)[0]  # calls coherent_state twice
        assert state.ncut == 40
        assert [s.name for s in tracer.spans] == ["fock.coherent_state"] * 2
    finally:
        restore()
    for mod in (thermolim, fock, dyson, propagator):
        assert mod.coherent_state is original


def test_draw_is_deterministic_and_in_range():
    for workload in inputs.WORKLOADS:
        for seed in range(20):
            config, drawn = inputs.draw(workload, seed)
            assert inputs.draw(workload, seed) == (config, drawn)
            if workload in inputs.PHI_BANDS:
                lo, hi = inputs.PHI_BANDS[workload]
                assert lo <= config["phi"] <= hi
            else:
                assert inputs.DELTA_RANGE[0] <= config["delta"] <= inputs.DELTA_RANGE[1]
                assert sorted(config["sweep_values"]) == list(inputs.SWEEP_N)


def test_gate_tolerance_accepts_engine_gap_and_rejects_drift():
    ref = 0.0123
    assert gate.matches("first_amplitude", ref * (1 + 9e-8), ref)
    assert not gate.matches("first_amplitude", ref * (1 + 1e-5), ref)
    assert gate.matches("residual_corrected", 3e-4 + 5e-8, 3e-4)
    assert not gate.matches("residual_corrected", 3e-4 + 1e-6, 3e-4)
    assert not gate.matches("min_fidelity", None, 1.0)
