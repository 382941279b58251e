"""Command-line front end.

One JSON config file describes the geometry, the IFS maps, the kernel, and a
``params`` block holding the per-command inputs; ``--override key=value``
patches any dotted path in it before the run.  JSON reports embed the fully
resolved config so a run can be reproduced bit for bit from its own output.

Exit codes: 0 for certified results and plain successes, 2 when the answer is
inconclusive (an uncertified verdict, a flagged row, an infinite bracket),
1 for configuration or evaluation errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import ConfigError, FractalsioError, integer, positive, real
from .ergodic import _block_statistics, birkhoff_frequency, hitting_times
from .ifs import IFS
from .kernels import HomogeneousKernel
from .measure import complement_base_words, integrate_cells, mc_integrate, region_cells
from .sio import (PV_CSV_HEADER, WitnessIntegrand, ball_cylinder_gap, criterion,
                  maximal_symbolic, pv_trace, truncated)
from .symbolic import EPWord, validate_word


class _Parser(argparse.ArgumentParser):
    """Argparse variant whose usage errors surface as ConfigError (exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


# ---- config plumbing ---------------------------------------------------------


def _parse_override(item: str):
    key, sep, raw = item.partition("=")
    if not sep or not key:
        raise ConfigError(f"override must look like key=value, got {item!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _set_path(cfg, dotted: str, value):
    """Set the dotted path in ``cfg``, creating missing object keys; a path
    through a value that is neither an object nor a list is a ConfigError."""
    *parents, last = dotted.split(".")
    node = cfg
    try:
        for part in parents:
            node = node[int(part)] if isinstance(node, list) else node.setdefault(part, {})
        if isinstance(node, list):
            node[int(last)] = value
        else:
            node[last] = value
    except (ValueError, IndexError, KeyError, AttributeError, TypeError) as exc:
        raise ConfigError(f"cannot apply override {dotted!r}: {exc}") from exc


def load_config(path: str, overrides) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for item in overrides or ():
        key, value = _parse_override(item)
        _set_path(cfg, key, value)
    return cfg


def _params(cfg: dict) -> dict:
    p = cfg.get("params", {})
    if not isinstance(p, dict):
        raise ConfigError("'params' must be a JSON object")
    return p


def _need(p: dict, key: str, where: str = "params"):
    if key not in p:
        raise ConfigError(f"{where}.{key} is required for this command")
    return p[key]


def _param(p: dict, key: str, read, what: str, default=None, where: str = "params"):
    """``read(p[key])``; a value it rejects is a ConfigError naming ``where.key``."""
    raw = _need(p, key, where) if default is None else p.get(key, default)
    try:
        return read(raw)
    except (TypeError, ValueError, OverflowError):  # an InputError is a ValueError
        raise ConfigError(f"{where}.{key} must be {what}") from None


def _int_param(p: dict, key: str, default=None) -> int:
    """An integer of any sign; the library entry point checks its range."""
    return _param(p, key, lambda raw: integer(raw, key, -math.inf), "an integer", default)


def _bool_param(p: dict, key: str, default=None) -> bool:
    def read(raw):
        if not isinstance(raw, bool):
            raise TypeError(raw)
        return raw
    return _param(p, key, read, "true or false", default)


def _point_param(p: dict, key: str) -> list:
    return _param(p, key, lambda raw: [float(v) for v in raw], "a list of numbers")


def _word_param(p: dict, key: str) -> tuple:
    return _param(p, key, validate_word, "a list of letters 1, 2, ...")


def _epword_param(p: dict, key: str) -> EPWord:
    return _param(p, key, lambda raw: EPWord.from_config(raw) if isinstance(raw, dict)
                  else EPWord(period=raw), "a letter list or {'pre': [...], 'period': [...]}")


def _build_kernel(cfg: dict, ifs: IFS) -> HomogeneousKernel:
    if "kernel" not in cfg:
        raise ConfigError("config needs a 'kernel' section for this command")
    return HomogeneousKernel.from_config(cfg["kernel"], ifs.geometry)


def _emit(text: str, out_path):
    text = text if text.endswith("\n") else text + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---- integrand specs for `integrate` ------------------------------------------


def _field(desc: dict, key: str, read, what: str, default=None):
    """An integrand field read like a params key, and named by its path."""
    return _param(desc, key, read, what, default, where="params.integrand")


def _monomial(ifs: IFS, desc: dict):
    geom = ifs.geometry

    def read_exponents(raw):
        exps = [integer(e, "exponent", 0) for e in raw]
        if len(exps) != geom.dim:
            raise ValueError(raw)
        return np.array(exps, dtype=np.int64)

    exps = _field(desc, "exponents", read_exponents,
                  f"a list of {geom.dim} nonnegative integers")
    coeff = _field(desc, "coeff", lambda raw: real(raw, "coeff"), "a finite number", 1.0)
    powers = [(j, int(e)) for j, e in enumerate(exps) if e]

    def f(pts):
        # one integer power per column: an array of exponents would send every
        # column through numpy's vectorised pow, which is slower and does not
        # round x ** 2 as x * x
        pts = np.asarray(pts, dtype=float)
        if not powers:
            return np.full(pts.shape[:-1], coeff)
        out = pts[..., powers[0][0]] ** powers[0][1]
        for j, e in powers[1:]:
            out = out * pts[..., j] ** e
        return coeff * out

    # |f(p) - f(q)| <= sum_j sup |d f / d x_j| |x_j(p) - x_j(q)| over the
    # attractor's box, where |x_j| <= B_j; |x_j(p) - x_j(q)| <= L_j d(p, q)
    # with L_j = 1, except the group's t: the t of q^-1 p is t_p - t_q - (x_q
    # y_p - y_q x_p) / 2, at most d^2 in size, so L_t = diam + (B_x + B_y) / 2
    lo, hi = ifs.attractor_box()
    bounds = np.maximum(np.abs(lo), np.abs(hi))
    coord_lip = [1.0] * geom.dim
    if geom.kind == "heisenberg1" and exps[2]:
        coord_lip[2] = ifs.diam_bracket()[1] + 0.5 * (bounds[0] + bounds[1])
    lip = abs(coeff) * sum(e * coord_lip[j] * math.prod(bounds[l] ** (exps[l] - (l == j))
                                                        for l in range(geom.dim))
                           for j, e in powers)
    return f, lip


def _integrand(ifs: IFS, desc) -> tuple:
    """The integrand on points, and its bracket over a ``CellBlock``."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError("params.integrand must be an object with a 'kind'")
    kind = desc["kind"]
    if kind == "witness":
        g = WitnessIntegrand(ifs, _field(desc, "u", validate_word,
                                         "a list of letters 1, 2, ..."))
        return g, g.bracket
    if kind == "monomial":
        f, lip = _monomial(ifs, desc)
    elif kind == "constant":
        c = _field(desc, "value", lambda raw: real(raw, "value"), "a finite number", 1.0)
        f, lip = (lambda pts: np.full(np.asarray(pts).shape[:-1], c)), 0.0
    else:
        raise ConfigError(f"unknown integrand kind {kind!r}")
    return f, lambda cells: integrate_cells(cells, f, lip)


# ---- commands ------------------------------------------------------------------
#
# Each command takes the loaded config, its IFS, the params block and the
# parsed arguments, and returns (body, exit code).  A dict body is emitted as
# a JSON report; a string (the pv-trace CSV) is emitted as is.


def cmd_dim(cfg, ifs, p, args):
    s = ifs.dim_s
    residual = abs(float(np.sum(ifs.ratios ** s)) - 1.0)
    return {"s": s, "residual": residual}, 0


def cmd_separation(cfg, ifs, p, args):
    rep = ifs.check_separation()
    return ({"report": rep.as_dict()},
            0 if rep.status in ("Separated", "StronglySeparated", "Overlapping") else 2)


def cmd_integrate(cfg, ifs, p, args):
    f, bracket = _integrand(ifs, _need(p, "integrand"))
    method = p.get("method", "net")
    if method == "mc":
        if "excluded" in p:
            raise ConfigError("excluded regions need method 'net'")
        n_samples = _int_param(p, "n_samples")
        seed = _int_param(p, "seed", 0)
        mean, stderr = mc_integrate(ifs, f, n_samples, seed)
        body = {"method": "mc", "value": mean, "stderr": stderr,
                "n_samples": n_samples, "seed": seed}
    elif method == "net":
        depth = _int_param(p, "depth")
        bases = (complement_base_words(_word_param(p, "excluded"), ifs.n_letters)
                 if "excluded" in p else [()])
        body = {"method": "net", **bracket(region_cells(ifs, bases, depth)).as_dict()}
    else:
        raise ConfigError(f"unknown method {method!r} (use 'net' or 'mc')")
    return body, 0


def cmd_pv_trace(cfg, ifs, p, args):
    kern = _build_kernel(cfg, ifs)
    K = _int_param(p, "K")
    if K == 0:
        if args.format == "json":
            return {"rows": []}, 0
        return PV_CSV_HEADER + "\n", 0
    w = _epword_param(p, "word")
    depth = _int_param(p, "depth")
    trace = pv_trace(ifs, kern, w, K, depth)
    body = trace.as_dict() if args.format == "json" else trace.to_csv_text()
    return body, 2 if any(r.flag for r in trace.rows) else 0


def cmd_truncated(cfg, ifs, p, args):
    kern = _build_kernel(cfg, ifs)
    x = _point_param(p, "x")
    eps = _param(p, "eps", lambda raw: positive(raw, "eps"), "a finite positive number")
    depth = _int_param(p, "depth")
    quad = truncated(ifs, kern, x, eps, depth)
    return ({"x": x, "eps": eps, **quad.as_dict()},
            0 if math.isfinite(quad.err) else 2)


def cmd_criterion(cfg, ifs, p, args):
    kern = _build_kernel(cfg, ifs)
    word = _word_param(p, "word")
    depth = _int_param(p, "depth")
    rep = criterion(ifs, kern, word, depth)
    return rep.as_dict(), 0 if rep.verdict == "NonzeroCertified" else 2


def cmd_maximal(cfg, ifs, p, args):
    kern = _build_kernel(cfg, ifs)
    w = _epword_param(p, "word")
    max_n = _int_param(p, "max_n")
    depth = _int_param(p, "depth")
    est = maximal_symbolic(ifs, kern, w, max_n, depth)
    shaky = bool(est.separation) or any(
        not math.isfinite(q.err) for _, _, q in est.table)
    return est.as_dict(), 2 if shaky else 0


def cmd_gap(cfg, ifs, p, args):
    kern = _build_kernel(cfg, ifs)
    w = _epword_param(p, "word")
    n = _int_param(p, "n")
    m1 = _int_param(p, "m1")
    depth = _int_param(p, "depth")
    radius_factor = _param(p, "radius_factor", lambda raw: positive(raw, "radius_factor"),
                           "a finite positive number", 2.0)
    quad = ball_cylinder_gap(ifs, kern, w, n, m1, depth,
                             radius_factor=radius_factor)
    return ({"n": n, "m1": m1, "radius_factor": radius_factor,
             **quad.as_dict()}, 0 if math.isfinite(quad.err) else 2)


def cmd_birkhoff(cfg, ifs, p, args):
    target = _word_param(p, "target")
    n_steps = _int_param(p, "n_steps")
    seed = _int_param(p, "seed", 0)
    times = None
    if _bool_param(p, "with_hitting_times", False):
        # one orbit scan: the frequency is the count of the hits
        times = hitting_times(ifs, target, n_steps, seed)
        freq, expected, stderr = _block_statistics(ifs, target, len(times), n_steps)
    else:
        freq, expected, stderr = birkhoff_frequency(ifs, target, n_steps, seed)
    body = {"target": list(target), "n_steps": n_steps, "seed": seed,
            "frequency": freq, "expected": expected, "stderr": stderr}
    if times is not None:
        body["hitting_times"] = times
    return body, 0


def cmd_perturb(cfg, ifs, p, args):
    kern = _build_kernel(cfg, ifs)
    direction = _point_param(p, "direction")
    rho = _param(p, "rho", lambda raw: positive(raw, "rho", math.pi), "a number in (0, pi)")
    eps = _param(p, "eps", lambda raw: positive(raw, "eps"), "a finite positive number")
    new_kern = kern.perturb(direction, rho, eps)
    geom = ifs.geometry
    u = np.asarray(direction, dtype=float)
    u = u / geom.norm(u)
    delta_at_dir = float(new_kern.omega.eval(geom, u) - kern.omega.eval(geom, u))
    return ({"kernel": new_kern.to_config(),
             "delta_at_direction": delta_at_dir,
             "sup_bound": eps}, 0)


# ---- parser --------------------------------------------------------------------


_COMMANDS = {
    "dim": (cmd_dim, "similarity dimension of the configured IFS"),
    "separation": (cmd_separation, "certified separation check"),
    "integrate": (cmd_integrate, "integrate a configured function against mu"),
    "pv-trace": (cmd_pv_trace, "truncation trace F_k / A_k along a word"),
    "truncated": (cmd_truncated, "truncated singular integral outside a ball"),
    "criterion": (cmd_criterion, "periodic-point nonvanishing test"),
    "maximal": (cmd_maximal, "symbolic maximal scan over annulus sums"),
    "gap": (cmd_gap, "cylinder versus ball annulus comparison"),
    "birkhoff": (cmd_birkhoff, "empirical block frequencies along an orbit"),
    "perturb": (cmd_perturb, "emit a perturbed kernel config"),
}


def build_parser() -> argparse.ArgumentParser:
    """One flat parser: the command, then options shared by every command."""
    parser = _Parser(prog="fractalsio",
                     description="singular integrals on self-similar sets",
                     epilog="commands:\n" + "\n".join(
                         f"  {name:<12}{help_}" for name, (_, help_) in _COMMANDS.items()),
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=list(_COMMANDS),
                        metavar="COMMAND", help="one of the commands listed below")
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="JSON config file")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="patch a dotted config path (JSON value or raw string)")
    parser.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    parser.add_argument("--seed", type=int, help="override params.seed")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="pv-trace output format (default csv)")
    return parser


_PARSER = build_parser()  # parse_args keeps no state between calls


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.format is not None and args.command != "pv-trace":
            _PARSER.error("--format applies only to pv-trace")
        seed = [] if args.seed is None else [f"params.seed={args.seed}"]
        cfg = load_config(args.config, args.override + seed)
        ifs = IFS.from_config(cfg)
        body, code = _COMMANDS[args.command][0](cfg, ifs, _params(cfg), args)
        if not isinstance(body, str):
            body = json.dumps({"command": args.command, **body, "config": cfg},
                              indent=2)
        _emit(body, args.out)
        return code
    except (FractalsioError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
