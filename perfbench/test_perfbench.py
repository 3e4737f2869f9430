"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from trace_layers import LAYER_MODULES, Tracer, layer_table, overhead_s, self_times  # noqa: E402


# -- self-time arithmetic ----------------------------------------------------


def test_self_times_on_synthetic_span_tree():
    # a [0,10] -> b [1,4] -> c [2,3];  a -> d [5,9] -> b [6,7]
    names = ["a", "b", "c", "d", "b"]
    start = [0.0, 1.0, 2.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 9.0, 7.0]
    parent = [-1, 0, 1, 0, 3]
    got = self_times(names, start, end, parent)
    assert got == {"a": 10 - 3 - 4, "b": (3 - 1) + 1, "c": 1, "d": 4 - 1}
    assert sum(got.values()) == 10  # self times partition the root span


def test_tracer_counts_outer_calls_and_subtracts_children():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    def inner():
        return tr.call("x", leaf, (), {})  # same name nested: not counted again

    def outer():
        tr.call("y", inner, (), {})
        return tr.call("x", inner, (), {})

    tr.call("root", outer, (), {})
    raw = tr.raw()
    assert raw["x.calls"] == 2 and raw["y.calls"] == 1 and raw["root.calls"] == 1
    # root 0..9 holds y 1..4 (x 2..3) and x 5..8 (x 6..7): self times 3, 2, 4
    total = raw["root.self_s"] + raw["x.self_s"] + raw["y.self_s"]
    assert total == pytest.approx(tr.span_end[0] - tr.span_start[0])
    assert raw["trace.spans"] == len(tr.span_name)


# -- scaling to the reference speed -------------------------------------------


def test_work_is_scaled_by_the_kernel_runs_around_each_stretch(monkeypatch):
    class Kernel:  # the CPU runs at half the reference speed, then at full speed
        times = iter([2, 2, 1])

        def time(self):
            return next(self.times) * reference.REF_S

    cpu = iter([0.0, 0.3, 0.3, 0.6, 0.6, 0.9])  # three units of 0.3 s CPU each
    monkeypatch.setattr(reference, "reference", Kernel)
    monkeypatch.setattr(reference.time, "process_time", lambda: next(cpu))
    monkeypatch.setattr(reference, "CHUNK_S", 0.5)
    out = reference.timed_units([lambda: None] * 3)
    # stretches: units 1-2 (0.6 s) between kernel runs 2 and 2, unit 3 between 2 and 1
    assert out["cpu_s"] == pytest.approx(0.9)
    assert out["work_s"] == pytest.approx(0.6 / 2 + 0.3 / 1.5)
    assert out["ref_s"] == pytest.approx(2 * reference.REF_S)


# -- wrappers are restored ---------------------------------------------------


def _bindings():
    import importlib

    mods = {name: importlib.import_module(name) for name in LAYER_MODULES}
    snap = {}
    for modname, mod in mods.items():
        for attr, value in vars(mod).items():
            snap[(modname, attr)] = value
    field_spec = sys.modules["cyclrc.field"].FieldSpec
    for attr, value in vars(field_spec).items():
        snap[("FieldSpec", attr)] = value
    return snap


def test_no_wrapper_left_after_traced_run():
    before = _bindings()
    cyclic = sys.modules["cyclrc.cyclic"]
    original = cyclic.min_distance
    with Tracer() as tr:
        assert cyclic.min_distance is not original
        assert sys.modules["cyclrc.selfcheck"].min_distance is not original
        settled, errors = worker.check_item(("closed", 5, 8, [1, 5]))
    assert settled > 0 and errors == []
    raw = tr.raw()
    table = layer_table(raw)
    assert table["cyclic.min_distance.calls"] == settled
    assert table["field.oddext.mul_elems"] > 0
    assert 0 < raw["trace.kernel_spans"] < raw["trace.spans"]
    assert overhead_s(raw) > 0
    assert _bindings() == before


def test_wrappers_restored_when_traced_code_raises():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert _bindings() == before


# -- failed checks count in fail_frac ---------------------------------------


def _fake_certify_spawn(verify_exit: dict):
    def spawn(job, _deadline):
        out = {"setup_s": 0.1, "maxrss_kb": 1024, "work_s": 0.01, "cpu_s": 0.01, "wall_s": 0.01}
        if job["kind"] == "construct":
            path = Path(job["argv"][job["argv"].index("-o") + 1])
            path.write_bytes(b"certificate " + path.name.encode())
            out["exit"] = 0
        else:
            out["exit"] = verify_exit.get(Path(job["argv"][1]).stem, 0)
        return out
    return spawn


def _reference(tmp_path, tamper: str | None):
    names = [name for name, _ in run.certify_requests(0)]
    ref = {}
    for name in names:
        digest = hashlib.sha256(b"certificate " + f"{name}.json".encode()).hexdigest()
        if name == tamper:
            digest = digest[::-1]
        ref[name] = {"sha256": digest, "construct_exit": 0}
    path = tmp_path / "certificates.json"
    path.write_text(json.dumps(ref))
    return path, names


def test_tampered_digest_and_verify_exit_count_as_failures(tmp_path, monkeypatch):
    ref, names = _reference(tmp_path, tamper=None)
    monkeypatch.setattr(run, "REFERENCE", ref)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "spawn", _fake_certify_spawn({}))
    clean = run.certify_pass(0, False, None, float("inf"))
    assert clean.failures == [] and clean.codes == clean.attempted == len(names)
    assert run.fail_frac([clean]) == 0

    ref, names = _reference(tmp_path, tamper=names[3])
    monkeypatch.setattr(run, "REFERENCE", ref)
    monkeypatch.setattr(run, "spawn", _fake_certify_spawn({names[5]: 2}))
    p = run.certify_pass(0, False, None, float("inf"))
    assert len(p.failures) == 2
    assert any("certificate bytes differ" in f for f in p.failures)
    assert any("verify exit 2" in f for f in p.failures)
    assert run.fail_frac([p]) == pytest.approx(2 / len(names))


def test_broken_identity_counts_as_failure(monkeypatch):
    import cyclrc.bounds

    items = [("closed", 5, 8, [1, 5]), ("anchor", 19, 18, [0, 9])]
    clean = [worker.check_item(it) for it in items]
    assert all(not errors for _, errors in clean)
    monkeypatch.setattr(cyclrc.bounds, "exact_dual_distance", lambda A: 1)

    def spawn(job, _deadline):
        ops = []
        for it in items:
            settled, errors = worker.check_item(it)
            ops.append({"item": it, "settled": settled, "errors": errors})
        return {"setup_s": 0.1, "maxrss_kb": 1024, "work_s": 0.5, "cpu_s": 0.5,
                "wall_s": 0.5, "ops": ops}

    monkeypatch.setattr(run, "spawn", spawn)
    p = run.sweep_pass(0, False, None, float("inf"))
    assert p.attempted == 2 and len(p.failures) == 2
    assert all("dual criterion 1" in f for f in p.failures)
    assert run.fail_frac([p]) == 1.0


def test_unsettled_distance_counts_as_failure(monkeypatch):
    import cyclrc.cyclic

    real = cyclrc.cyclic.min_distance

    def unsettled(code, *a, **k):
        res = real(code, *a, **k)
        return cyclrc.cyclic.DistanceResult(res.lower, res.upper, None, "bch")

    monkeypatch.setattr(cyclrc.cyclic, "min_distance", unsettled)
    settled, errors = worker.check_item(("closed", 5, 8, [1, 5]))
    assert settled == 0 and any("unsettled" in e for e in errors)


def test_workers_stop_at_the_run_limit():
    with pytest.raises(run.WorkerFailed, match="not started"):
        run.spawn({"kind": "probe"}, time.monotonic() - 1)
    with pytest.raises(run.WorkerFailed, match="timed out"):
        run.spawn({"kind": "probe"}, time.monotonic() + 0.01)
    assert run.spawn({"kind": "probe"}, time.monotonic() + 60)["setup_s"] > 0


# -- inputs ----------------------------------------------------------------


def test_sweep_inputs_follow_the_seed():
    assert worker.sweep_items(3) == worker.sweep_items(3)
    assert worker.sweep_items(3) != worker.sweep_items(4)
    assert all(len(exps) <= worker.ANCHOR_MAX for kind, _, _, exps in worker.sweep_items(3)
               if kind == "anchor")
    assert run.certify_requests(3) == run.certify_requests(3)
    assert sorted(run.certify_requests(3)) == sorted(run.certify_requests(4))
