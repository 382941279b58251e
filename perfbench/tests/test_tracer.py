import sys

import pytest

import fractalsio
import fractalsio.cli  # noqa: F401
import tracer
import worker
from workloads import config_text, load_config


def _snapshot():
    """Every attribute of every fractalsio module, and of the classes they define."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "fractalsio" and not name.startswith("fractalsio."):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("fractalsio"):
                for key, member in vars(value).items():
                    out[(name, attr, key)] = member
    return out


def _same(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


@pytest.fixture
def jobs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = load_config("middle_thirds")
    out = [
        {"id": "j000", "command": "pv-trace", "config": dict(cfg, params={
            "word": {"pre": [], "period": [1]}, "K": 3, "depth": 6}),
         "argv": ["pv-trace", "--config", "j000.json", "--format", "json"]},
        {"id": "j001", "command": "integrate", "config": dict(cfg, params={
            "integrand": {"kind": "witness", "u": [1, 2]}, "method": "net", "depth": 6}),
         "argv": ["integrate", "--config", "j001.json"]},
        {"id": "j002", "command": "divergence", "argv": None,
         "config": dict(cfg, params={"word": [1], "K": 3, "depth": 6})},
    ]
    for job in out:
        (tmp_path / f"{job['id']}.json").write_text(config_text(job["config"]))
    return out


def test_untraced_run_patches_nothing(jobs):
    before = _snapshot()
    executions, _, rounds = worker.run_rounds(fractalsio, jobs, seconds=0.0)
    assert rounds == 1 and [e[1] for e in executions] == [0, 0, 0]
    assert _same(before, _snapshot())


def test_traced_run_restores_and_attributes(jobs):
    before = _snapshot()
    tr = tracer.Tracer()
    executions, _, _ = worker.run_rounds(fractalsio, jobs, seconds=0.0, tracer=tr)
    assert _same(before, _snapshot())
    assert all(e[5] for e in executions)            # traced output is identical
    summary = tr.summary()
    layers = summary["layers"]
    assert layers["cli.calls"] == 2 and layers["sio.driver.calls"] >= 2
    assert layers["sio.witness.calls"] == 1 and layers["symbolic.validate.calls"] > 0
    assert layers["measure.cells.cells"] > 0
    named = sum(layers[f"{layer}.self_s"] for layer, *_ in tracer.LAYERS)
    assert named + summary["unattributed_s"] == pytest.approx(summary["job_s"], rel=1e-9)
    assert summary["unattributed_s"] < 0.1 * summary["job_s"]


def test_missing_target_is_reported_absent(jobs, monkeypatch):
    layers = tracer.LAYERS + (("gone", True, None, [("fractalsio.sio:no_such_driver", None),
                                                    ("fractalsio.nowhere:f", None)]),)
    monkeypatch.setattr(tracer, "LAYERS", layers)
    tr = tracer.Tracer()
    seconds, (rc, _) = tr.timed_job(lambda: worker._run_job(fractalsio, jobs[0]))
    assert rc == 0 and seconds > 0
    assert tr.summary()["absent"] == ["fractalsio.nowhere:f", "fractalsio.sio:no_such_driver"]
