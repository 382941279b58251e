import json

import pytest

from fractalsio.cli import build_parser
from workloads import WORKLOADS, config_text, generate


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_bytes(workload):
    a, b = generate(workload, 7), generate(workload, 7)
    assert json.dumps(a) == json.dumps(b)
    assert [config_text(j["config"]) for j in a] == [config_text(j["config"]) for j in b]
    assert json.dumps(generate(workload, 8)) != json.dumps(a)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_every_argv_parses(workload, seed):
    parser = build_parser()
    for job in generate(workload, seed):
        if job["argv"] is None:
            assert job["command"] == "divergence"
            continue
        args = parser.parse_args(job["argv"])
        assert args.command == job["command"]
        assert args.config == f"{job['id']}.json"
