import json

import pytest

import fractalsio
import fractalsio.cli  # noqa: F401
import run
import worker
from checks import Checker
from workloads import config_text, load_config


def _job(job_id, command, params, argv_extra=()):
    cfg = dict(load_config("middle_thirds"), params=params)
    argv = None if command == "divergence" else [command, "--config", f"{job_id}.json",
                                                 *argv_extra]
    return {"id": job_id, "command": command, "argv": argv, "config": cfg}


@pytest.fixture
def jobs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = [_job("j000", "criterion", {"word": [1], "depth": 8}),
           _job("j001", "truncated", {"x": [0.0], "eps": 0.1, "depth": 8}),
           _job("j002", "divergence", {"word": [1], "K": 3, "depth": 6})]
    for job in out:
        (tmp_path / f"{job['id']}.json").write_text(config_text(job["config"]))
    return out


def test_real_outputs_pass(jobs):
    checker = Checker("middle_thirds", jobs[0]["config"], seed=3)
    for job in jobs:
        rc, text = worker._run_job(fractalsio, job)
        assert rc == 0
        assert checker.check(job, rc, text).problems == []


def test_tampered_value_counts_as_failed(jobs):
    executions = []
    for i, job in enumerate(jobs):
        rc, text = worker._run_job(fractalsio, job)
        rep = json.loads(text)
        if job["command"] == "divergence":
            rep["criterion"]["value"] += 0.05
        else:
            rep["value"] += 0.05
        executions.append([i, rc, json.dumps(rep), 0.1])
    _, failed = run._check("middle_thirds", 3, jobs, executions)
    assert failed == {0, 1, 2}


def test_exit_code_must_agree(jobs):
    checker = Checker("middle_thirds", jobs[0]["config"], seed=3)
    rc, text = worker._run_job(fractalsio, jobs[0])
    problems = checker.check(jobs[0], 2, text).problems
    assert any("exit code" in p for p in problems)
    assert checker.check(jobs[0], None, "Traceback ...").problems
