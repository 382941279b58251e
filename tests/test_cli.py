import json
from pathlib import Path

import numpy as np
import pytest

import _helpers as h
from fractalsio import mc_integrate, net, region_cells
from fractalsio.cli import _integrand, _monomial, main

_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


@pytest.fixture
def mt_config(tmp_path):
    cfg = h.middle_thirds_config()
    cfg["kernel"] = {"s": 0.6309297535714574, "omega": {"kind": "sign"}}
    cfg["params"] = {}
    return h.write_config(tmp_path / "mt.json", cfg)


@pytest.fixture
def line_config_file(tmp_path):
    cfg = h.line_config()
    cfg["kernel"] = {"s": 0.6309297535714574,
                     "omega": {"kind": "riesz", "axis": 2}}
    cfg["params"] = {"word": [1], "depth": 5}
    return h.write_config(tmp_path / "line.json", cfg)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_dim(mt_config, capsys):
    assert main(["dim", "--config", mt_config]) == 0
    out = _json_out(capsys)
    assert out["s"] == pytest.approx(0.6309297535714574, abs=1e-14)
    assert out["residual"] <= 1e-14
    assert out["config"]["maps"][0]["r"] == pytest.approx(1.0 / 3.0)
    assert "threads" not in out


def test_separation(mt_config, capsys):
    assert main(["separation", "--config", mt_config]) == 0
    out = _json_out(capsys)
    assert out["report"]["status"] == "StronglySeparated"


def test_separation_inconclusive(tmp_path, capsys):
    # overlapping intervals: no positive gap can be certified
    cfg = {"geometry": {"kind": "euclidean", "dim": 1},
           "maps": [{"r": 0.6, "q": [0.0]}, {"r": 0.6, "q": [0.4]}]}
    path = h.write_config(tmp_path / "overlap.json", cfg)
    assert main(["separation", "--config", path]) == 2
    out = _json_out(capsys)
    assert out["report"]["status"] == "Inconclusive"


def test_separation_touching_overlaps(tmp_path, capsys):
    # touching intervals share the attractor point 1/2: a certified verdict
    cfg = {"geometry": {"kind": "euclidean", "dim": 1},
           "maps": [{"r": 0.5, "q": [0.0]}, {"r": 0.5, "q": [0.5]}]}
    path = h.write_config(tmp_path / "touch.json", cfg)
    assert main(["separation", "--config", path]) == 0
    out = _json_out(capsys)
    assert out["report"]["status"] == "Overlapping"
    assert out["report"]["gap_lo"] == out["report"]["gap_hi"] == 0.0


def test_integrate_and_echo_reproduces(mt_config, tmp_path, capsys):
    args = ["integrate", "--config", mt_config,
            "--override", 'params.integrand={"kind":"monomial","exponents":[2]}',
            "--override", "params.depth=8"]
    assert main(args) == 0
    first = _json_out(capsys)
    assert abs(first["value"] - 0.375) <= first["err"]
    # re-running from the embedded config reproduces the value bit for bit
    echo = h.write_config(tmp_path / "echo.json", first["config"])
    assert main(["integrate", "--config", echo]) == 0
    second = _json_out(capsys)
    assert second["value"] == first["value"]
    assert second["err"] == first["err"]


def test_integrate_witness_excluded(mt_config, capsys):
    # over C minus C_1 the witness for u = (1,) is 1 on all of C_2: exactly 1/2
    args = ["integrate", "--config", mt_config,
            "--override", 'params.integrand={"kind": "witness", "u": [1]}',
            "--override", "params.excluded=[1]", "--override", "params.depth=6"]
    assert main(args) == 0
    out = _json_out(capsys)
    assert (out["value"], out["err"], out["cells"]) == (0.5, 0.0, 64)
    assert abs(out["value"] - 0.5) <= out["err"]


def test_main_calls_share_no_state(mt_config, capsys):
    # main reuses one parser: appended overrides must not leak into the next call
    assert main(["dim", "--config", mt_config, "--override", "params.a=1"]) == 0
    assert _json_out(capsys)["config"]["params"] == {"a": 1}
    assert main(["dim", "--config", mt_config, "--override", "params.b=2"]) == 0
    assert _json_out(capsys)["config"]["params"] == {"b": 2}
    assert main(["dim", "--config", mt_config]) == 0
    assert _json_out(capsys)["config"]["params"] == {}


def test_integrate_mc(mt_config, capsys):
    args = ["integrate", "--config", mt_config,
            "--override", 'params.integrand={"kind":"monomial","exponents":[1]}',
            "--override", "params.method=mc",
            "--override", "params.n_samples=20000", "--seed", "3",
            "--override", "params.seed=9"]  # --seed wins over any override
    assert main(args) == 0
    out = _json_out(capsys)
    assert abs(out["value"] - 0.5) <= 4 * out["stderr"]
    assert out["seed"] == 3
    assert out["config"]["params"]["seed"] == 3


def test_seed_flag_sets_params_seed(mt_config, capsys):
    # --seed is the last override, params.seed, whichever command runs
    assert main(["dim", "--config", mt_config, "--seed", "5"]) == 0
    assert _json_out(capsys)["config"]["params"] == {"seed": 5}
    assert main(["birkhoff", "--config", mt_config, "--override", "params.target=[1]",
                 "--override", "params.n_steps=100", "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: seed must be a nonnegative integer, got -1\n"


@pytest.mark.parametrize("exponents, coeff", [
    ([0, 0, 0], 2.5), ([1, 0, 0], 1.0), ([2, 1, 0], -1.7), ([0, 3, 2], 2.5),
    ([3, 3, 3], 0.3), ([0, 0], -1.7), ([2, 3], 2.5), ([0, 1], 1.0), ([3, 2], 0.3),
])
def test_monomial_is_the_per_point_product(heis_twisted, four_corner, exponents, coeff):
    # on non-dyadic points (the nodes of the twisted Heisenberg set's depth-6
    # cells, random points in the plane), the value at each point is coeff
    # times the product, in coordinate order, of its x_j ** e_j over e_j > 0,
    # each power taken on that one coordinate alone; squares are x_j * x_j
    if len(exponents) == 3:
        ifs, pts = heis_twisted, region_cells(heis_twisted, [()], 6).points
    else:
        ifs, pts = four_corner, np.random.default_rng(61).standard_normal((700, 2))
    f, _ = _integrand(ifs, {"kind": "monomial", "exponents": exponents, "coeff": coeff})
    vals = f(pts)
    assert vals.shape == (len(pts),)
    for p, v in zip(pts, vals):
        factors = [(p[j:j + 1] ** e)[0] for j, e in enumerate(exponents) if e]
        ref = coeff
        if factors:
            prod = factors[0]
            for x in factors[1:]:
                prod = prod * x
            ref = coeff * prod
        assert v == ref
        for j, e in enumerate(exponents):
            if e == 2:
                assert (p[j:j + 1] ** 2)[0] == p[j] * p[j]


@pytest.mark.parametrize("config, exponents, depth, exact", [
    ("heisenberg.json", [2, 0, 0], 6, 11 / 45),
    ("four_corner.json", [2, 0], 4, 0.4),
])
def test_lipschitz_key_is_ignored(tmp_path, capsys, config, exponents, depth, exact):
    # a monomial's constant is derived from the invariant box in both
    # geometries, so a typed "lipschitz" cannot narrow the bracket
    base = json.loads((_CONFIGS / config).read_text())
    reports = []
    for extra in ({}, {"lipschitz": 0}):
        integrand = {"kind": "monomial", "exponents": exponents, **extra}
        path = h.write_config(tmp_path / "c.json",
                              dict(base, params={"depth": depth, "integrand": integrand}))
        assert main(["integrate", "--config", path]) == 0
        out = _json_out(capsys)
        assert out.pop("config")["params"]["integrand"] == integrand
        reports.append(out)
    assert reports[0] == reports[1]
    assert abs(reports[0]["value"] - exact) <= reports[0]["err"]


def test_group_monomial_runs(tmp_path, capsys):
    # no constant is asked for on the group, a t exponent included
    cfg = dict(h.heis_quarter_config(), params={
        "depth": 5, "integrand": {"kind": "monomial", "exponents": [1, 0, 1]}})
    assert main(["integrate", "--config", h.write_config(tmp_path / "q.json", cfg)]) == 0
    out = _json_out(capsys)
    assert 0.0 < out["err"] < 0.01


def test_euclidean_monomial_constant_is_unchanged(capsys):
    # the four-corner x^2 bracket at depth 4, bit for bit, as when the
    # constant was derived in Euclidean space alone
    assert main(["integrate", "--config", str(_CONFIGS / "four_corner.json"),
                 "--override", 'params.integrand={"kind": "monomial", "exponents": [2, 0]}',
                 "--override", "params.depth=4"]) == 0
    assert _json_out(capsys)["err"] == 0.009713418161948144


@pytest.mark.parametrize("ifs_name", ["heis_quarter", "heis_twisted"])
def test_group_t_constant_bounds_node_pairs(request, ifs_name):
    # |t_p - t_q| <= L_t d(p, q) over the node pairs of the depth-5 net, L_t
    # the constant of the monomial t
    ifs = request.getfixturevalue(ifs_name)
    _, lip_t = _monomial(ifs, {"kind": "monomial", "exponents": [0, 0, 1]})
    pts = net(ifs, 5).points
    d = ifs.geometry.dist(pts[:, np.newaxis], pts[np.newaxis])
    dt = np.abs(pts[:, np.newaxis, 2] - pts[np.newaxis, :, 2])
    assert (dt <= lip_t * d).all()


@pytest.mark.parametrize("ifs_name", ["heis_quarter", "heis_twisted"])
@pytest.mark.parametrize("exponents", [[0, 0, 1], [1, 0, 1], [0, 0, 2]])
def test_group_t_monomials_meet_monte_carlo(request, ifs_name, exponents):
    # depth-7 net brackets of monomials in t contain a Monte Carlo reference
    # to within 4 standard errors
    ifs = request.getfixturevalue(ifs_name)
    f, bracket = _integrand(ifs, {"kind": "monomial", "exponents": exponents})
    quad = bracket(net(ifs, 7))
    mean, stderr = mc_integrate(ifs, f, 200000, 1)
    assert abs(quad.value - mean) <= quad.err + 4 * stderr


def test_pv_trace_csv(mt_config, tmp_path):
    out_path = tmp_path / "trace.csv"
    args = ["pv-trace", "--config", mt_config,
            "--override", "params.word=[1]",
            "--override", "params.K=4", "--override", "params.depth=5",
            "--out", str(out_path)]
    assert main(args) == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "k,F_value,F_err,A_value,A_err,flag"
    assert len(lines) == 5
    assert lines[1].split(",")[0] == "0"


def test_pv_trace_k_zero(mt_config, capsys):
    args = ["pv-trace", "--config", mt_config, "--override", "params.K=0"]
    assert main(args) == 0
    out = capsys.readouterr().out.strip()
    assert out == "k,F_value,F_err,A_value,A_err,flag"


def test_pv_trace_json(mt_config, capsys):
    args = ["pv-trace", "--config", mt_config, "--format", "json",
            "--override", "params.word=[1]",
            "--override", "params.K=2", "--override", "params.depth=5"]
    assert main(args) == 0
    out = _json_out(capsys)
    assert len(out["rows"]) == 2
    assert out["eta_estimate"] is not None


def test_truncated(mt_config, capsys):
    args = ["truncated", "--config", mt_config,
            "--override", "params.x=[0.0]",
            "--override", "params.eps=0.5", "--override", "params.depth=7"]
    assert main(args) == 0
    out = _json_out(capsys)
    assert -0.6458 <= out["value"] <= -0.5


def test_criterion_certified(mt_config, capsys):
    args = ["criterion", "--config", mt_config,
            "--override", "params.word=[1]", "--override", "params.depth=7"]
    assert main(args) == 0
    out = _json_out(capsys)
    assert out["verdict"] == "NonzeroCertified"
    assert out["value"] < 0


def test_criterion_zero_exit_two(line_config_file, capsys):
    assert main(["criterion", "--config", line_config_file]) == 2
    out = _json_out(capsys)
    assert out["verdict"] == "ZeroWithinBracket"
    assert out["value"] == 0.0


def test_maximal(mt_config, capsys):
    args = ["maximal", "--config", mt_config,
            "--override", "params.word=[1]",
            "--override", "params.max_n=3", "--override", "params.depth=5"]
    assert main(args) == 0
    out = _json_out(capsys)
    assert out["best"]["m"] == 0 and out["best"]["n"] == 3
    assert len(out["table"]) == 6


def test_gap(mt_config, capsys):
    args = ["gap", "--config", mt_config,
            "--override", "params.word=[1]", "--override", "params.n=2",
            "--override", "params.m1=1", "--override", "params.depth=5"]
    assert main(args) == 0
    out = _json_out(capsys)
    assert out["value"] >= 0.0
    assert out["radius_factor"] == 2.0


@pytest.mark.parametrize("command, params", [
    ("pv-trace", {"word": [1], "K": 4, "depth": 8}),
    ("criterion", {"word": [1], "depth": 8}),
    ("gap", {"word": [1], "n": 2, "m1": 1, "depth": 6}),
    ("truncated", {"x": [0.0], "eps": 0.1, "depth": 8}),
])
def test_osc_ball_key_is_ignored(tmp_path, capsys, command, params):
    # a config written when an open-set ball could be declared still loads,
    # and gives the same report as without the key, up to the echoed config
    base = _CONFIGS / "middle_thirds.json"
    cfg = dict(json.loads(base.read_text()), params=params)
    cfg.pop("osc_ball", None)
    fmt = ["--format", "json"] if command == "pv-trace" else []
    reports = []
    for ball in (None, {"center": [0.5], "radius": 0.5}, {"radius": "x"}):
        path = h.write_config(tmp_path / "mt.json",
                              cfg if ball is None else dict(cfg, osc_ball=ball))
        assert main([command, "--config", path] + fmt) == 0
        out = _json_out(capsys)
        assert out.pop("config").get("osc_ball") == ball
        reports.append(out)
    assert reports[0] == reports[1] == reports[2]


def test_birkhoff_seed_reproducible(mt_config, capsys):
    args = ["birkhoff", "--config", mt_config,
            "--override", "params.target=[1]",
            "--override", "params.n_steps=20000", "--seed", "42"]
    assert main(args) == 0
    first = _json_out(capsys)
    assert main(args) == 0
    second = _json_out(capsys)
    assert first["frequency"] == second["frequency"]
    assert abs(first["frequency"] - 0.5) <= 3 * first["stderr"]


def test_birkhoff_hitting_times_pinned(tmp_path, capsys):
    # exact report: one orbit gives both the frequency and the hitting times;
    # the times are the starts of (2, 3) in the reference stream's letters
    cfg = h.heis_twisted_config()
    cfg["params"] = {"target": [2, 3], "n_steps": 120, "with_hitting_times": True}
    path = h.write_config(tmp_path / "b.json", cfg)
    assert main(["birkhoff", "--config", path, "--seed", "42"]) == 0
    out = _json_out(capsys)
    # (2, 3) has no period below its length, so the count's variance is
    # n p [(1 - p) - 2 p] = n p (1 - 3 p)
    assert (out["frequency"], out["expected"], out["stderr"]) == (
        0.11666666666666667, 0.11111111111111113, 0.024845199749997663)
    assert out["hitting_times"] == [14, 24, 28, 36, 45, 51, 61, 64, 66, 80, 96, 101,
                                    110, 118]


def test_perturb_emits_kernel(tmp_path, capsys):
    cfg = h.line_config()
    cfg["kernel"] = {"s": 1.0, "omega": {"kind": "riesz", "axis": 2}}
    cfg["params"] = {"direction": [1.0, 0.0], "rho": 0.5, "eps": 0.1}
    path = h.write_config(tmp_path / "p.json", cfg)
    assert main(["perturb", "--config", path]) == 0
    out = _json_out(capsys)
    assert out["kernel"]["omega"]["kind"] == "perturbed"
    assert out["delta_at_direction"] == pytest.approx(0.1)
    assert "analytic" not in out["kernel"]


def test_missing_subcommand_exits_one(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(mt_config, capsys):
    assert main(["frobnicate", "--config", mt_config]) == 1


def test_bad_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["dim", "--config", str(bad)]) == 1
    assert main(["dim", "--config", str(tmp_path / "missing.json")]) == 1


def test_missing_param_exits_one(mt_config, capsys):
    assert main(["criterion", "--config", mt_config]) == 1
    assert "params.word" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--seed", "3"], ["--override", "params.x=1"]])
def test_override_through_a_scalar_exits_one(tmp_path, capsys, flag):
    # an override path through a value that is neither an object nor a list
    # is an error, not a fresh object in its place
    path = h.write_config(tmp_path / "bad.json", dict(h.middle_thirds_config(), params=5))
    assert main(["dim", "--config", path] + flag) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_override_creates_missing_keys(tmp_path, capsys):
    path = h.write_config(tmp_path / "mt.json", h.middle_thirds_config())
    assert main(["dim", "--config", path, "--override", "params.x.y=1", "--seed", "3"]) == 0
    assert _json_out(capsys)["config"]["params"] == {"x": {"y": 1}, "seed": 3}


def test_override_raw_string(mt_config, capsys):
    # values that fail JSON parsing pass through as raw strings
    assert main(["separation", "--config", mt_config,
                 "--override", "note=plain text"]) == 0
    out = _json_out(capsys)
    assert out["config"]["note"] == "plain text"


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()
              if line.startswith("  ") and line.split()}
    assert {"dim", "separation", "integrate", "pv-trace", "truncated", "criterion",
            "maximal", "gap", "birkhoff", "perturb"} <= listed


def test_format_only_on_pv_trace(mt_config, capsys):
    assert main(["dim", "--config", mt_config, "--format", "json"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err and "--format" in err


@pytest.mark.parametrize("command, override, key", [
    ("criterion", 'params.word=["x"]', "params.word"),
    ("truncated", "params.x=0.5", "params.x"),
    ("truncated", "params.eps=abc", "params.eps"),
    ("truncated", "params.eps=0", "params.eps"),
    ("truncated", "params.eps=-1", "params.eps"),
    ("truncated", "params.eps=NaN", "params.eps"),
    ("truncated", "params.eps=Infinity", "params.eps"),
    ("gap", "params.radius_factor=0", "params.radius_factor"),
    ("gap", "params.radius_factor=NaN", "params.radius_factor"),
    ("gap", "params.radius_factor=Infinity", "params.radius_factor"),
    ("criterion", "params.depth=2.5", "params.depth"),
    ("criterion", "params.depth=true", "params.depth"),
    ("birkhoff", "params.seed=-1", "seed"),
    ("birkhoff", 'params.with_hitting_times="no"', "params.with_hitting_times"),
    ("perturb", "params.eps=0", "params.eps"),
    ("perturb", "params.eps=-1", "params.eps"),
    ("perturb", "params.eps=NaN", "params.eps"),
    ("perturb", "params.eps=Infinity", "params.eps"),
    ("perturb", "params.eps=abc", "params.eps"),
    ("perturb", "params.rho=0", "params.rho"),
    ("perturb", "params.rho=4.0", "params.rho"),
    ("perturb", "params.rho=NaN", "params.rho"),
    ("perturb", "params.rho=abc", "params.rho"),
])
def test_malformed_param_exits_one(mt_config, capsys, command, override, key):
    args = [command, "--config", mt_config, "--override", "params.word=[1]",
            "--override", "params.x=[0.0]", "--override", "params.eps=0.5",
            "--override", "params.depth=3", "--override", "params.target=[1]",
            "--override", "params.n=1", "--override", "params.m1=1",
            "--override", "params.n_steps=100", "--override", "params.direction=[1.0]",
            "--override", "params.rho=0.5", "--override", override]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {key} must be")


@pytest.mark.parametrize("override, section", [
    ('maps.0.r="x"', "'maps.0'"),
    ('maps.0.r="0.3333"', "'maps.0'"),
    ('maps.0.q=["a"]', "'maps.0'"),
    ("maps=5", "'maps'"),
    ('s="x"', "'s'"),
    ('kernel.s="x"', "'kernel'"),
    ('kernel.omega={"kind": "riesz", "axis": "a"}', "'omega'"),
    ('kernel.omega={"kind": "poly_over_norm", "coeffs": 5, "degree": 1}', "'omega'"),
    ('kernel.omega={"kind": "poly_over_norm", "coeffs": [[NaN, [1]]], "degree": 1}', "'omega'"),
    ('kernel.omega={"kind": "perturbed", "base": {"kind": "sign"}, '
     '"direction": "ab", "rho": 0.5, "eps": 0.1}', "'omega'"),
])
def test_malformed_config_section_exits_one(mt_config, capsys, override, section):
    assert main(["criterion", "--config", mt_config, "--override", "params.word=[1]",
                 "--override", "params.depth=3", "--override", override]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and section in err


@pytest.mark.parametrize("integrand, key", [
    ({"kind": "witness", "u": ["x"]}, "u"),
    ({"kind": "monomial", "exponents": ["x"]}, "exponents"),
    ({"kind": "monomial", "exponents": [1.5]}, "exponents"),
    ({"kind": "monomial", "exponents": [float("inf")]}, "exponents"),
    ({"kind": "monomial", "exponents": [1], "coeff": "abc"}, "coeff"),
    ({"kind": "monomial", "exponents": [1], "coeff": float("nan")}, "coeff"),
    ({"kind": "constant", "value": [1.0]}, "value"),
    ({"kind": "constant", "value": "3"}, "value"),
    ({"kind": "monomial", "exponents": [1], "coeff": "2"}, "coeff"),
])
def test_malformed_integrand_field_exits_one(mt_config, capsys, integrand, key):
    assert main(["integrate", "--config", mt_config, "--override", "params.depth=3",
                 "--override", f"params.integrand={json.dumps(integrand)}"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: params.integrand.{key} must be")
