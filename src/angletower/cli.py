"""Batch front end: configured runs, exports, and run manifests.

One flat config file (INI-style sections, JSON accepted too) drives all
subcommands against a shared output directory:

    [map]
    degree = 2
    c_real = -2.0
    angle = 1/2
    [tower]
    R = 8
    extra_levels = 64
    [sampling]
    seed = 7

tower-build writes tower.json; the other stages read it back, so a run
directory is self-contained and diff-able.  Every command also writes
<command>.manifest.json with the echoed config, the resolved seed, a
git-blob sha1 per output file, a combined content hash and the landing
counters; wall time is recorded but excluded from hashing, so identical
(config, seed) reruns produce identical artifact bytes and manifests.

All randomness flows from the single [sampling] seed; stages that draw
samples use documented offsets (lift +0, lyapunov +1, induce +2,
conformal +3).

Exit codes: 0 ok, 2 config error, 3 dependency error (missing, stale,
corrupt or too shallow prerequisite artifacts), 4 check failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import math
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from .angles import RayChoice, build_partition, format_angle, parse_angle
from .census import (InsufficientDepth, brute_force_census, cutpoint_census,
                     l_table_csv, s_table_csv, subset_count_bound,
                     verify_appendix)
from .conformal import (build_basis, conformality_residual, curve_csv,
                        lyapunov_liftability_experiment, solve_delta,
                        weights_csv)
from .geometry import (LandingError, LandingSolver, PolynomialModel,
                       landing_table_csv)
from .inducing import (branch_words_csv, choose_W, expansion_and_abramov,
                       first_return, kac_check, recurrent_witness_domain,
                       tau_histogram_csv)
from .lifting import (DEFAULT_FLOOR, brolin_period_samples, brolin_samples,
                      curves_csv, dirac_cycle, lift_cesaro, lift_report,
                      lyapunov_consistency, make_ensemble)
from .streams import FrontierReached
from .tower import (TowerGraph, build_tower, structural_checks,
                    tower_from_json, tower_to_json_str)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEPENDENCY = 3
EXIT_CHECK = 4


class ConfigError(Exception):
    pass


class DependencyError(Exception):
    pass


def git_blob_sha1(text: str) -> str:
    data = text.encode()
    h = hashlib.sha1(b"blob %d\0" % len(data))
    h.update(data)
    return h.hexdigest()


# --------------------------------------------------------------------------
# config


def _find_line(text: str, section: str, key: str) -> int | None:
    current = None
    for i, line in enumerate(text.splitlines(), start=1):
        m = re.match(r"\s*\[([^\]]+)\]", line)
        if m:
            current = m.group(1)
            continue
        if current == section and re.match(
                rf"\s*{re.escape(key)}\s*[=:]", line):
            return i
    return None


class RawConfig:
    """Parsed sections with anchored error reporting."""

    def __init__(self, path: str, text: str, sections: dict):
        self.path = path
        self.text = text
        self.sections = sections

    def anchor(self, section: str, key: str) -> str:
        line = _find_line(self.text, section, key)
        if line is not None:
            return f"{self.path}:{line}"
        return f"{self.path} ({section}.{key})"

    def error(self, section: str, key: str, message: str) -> ConfigError:
        return ConfigError(f"{self.anchor(section, key)}: {message}")

    def raw(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    def get(self, section, key, conv, default, what):
        v = self.raw(section, key)
        if v is None:
            if default is None:
                raise self.error(section, key, f"{key} is mandatory")
            return default
        try:
            return conv(v)
        except (ValueError, ZeroDivisionError) as e:
            raise self.error(section, key,
                             f"{key} must be {what}: {e}") from None

    def get_int(self, section, key, default=None, minimum=None):
        v = self.get(section, key, lambda x: int(str(x)), default,
                     "an integer")
        if minimum is not None and v is not None and v < minimum:
            raise self.error(section, key, f"{key} must be >= {minimum}")
        return v

    def get_float(self, section, key, default=None, positive=False):
        v = self.get(section, key, lambda x: float(str(x)), default,
                     "a number")
        if positive and v is not None and v <= 0:
            raise self.error(section, key, f"{key} must be > 0")
        return v

    def get_fraction(self, section, key, default=None):
        return self.get(section, key, lambda x: Fraction(str(x)), default,
                        'a fraction "p/q"')

    def get_list(self, section, key, conv, default, what, minimum=None,
                 maximum=None):
        v = self.raw(section, key)
        if v is None:
            out = default
        else:
            parts = (list(v) if isinstance(v, (list, tuple))
                     else str(v).split())
            try:
                out = tuple(conv(str(p)) for p in parts)
            except (ValueError, ZeroDivisionError) as e:
                raise self.error(section, key, f"{key} must be a list of "
                                 f"{what}: {e}") from None
            if not out:
                raise self.error(section, key, f"{key} must be nonempty")
        if minimum is not None and min(out) < minimum:
            raise self.error(section, key,
                             f"{key} entries must be >= {minimum}")
        if maximum is not None and max(out) > maximum:
            raise self.error(section, key,
                             f"{key} entries must be <= {maximum}")
        return out

    def get_choice(self, section, key, choices, default):
        v = str(self.raw(section, key, default))
        if v not in choices:
            raise self.error(section, key,
                             f"{key} must be one of {sorted(choices)}")
        return v

    def echo(self) -> dict:
        return {s: {k: (list(v) if isinstance(v, (list, tuple)) else str(v))
                    for k, v in kv.items()}
                for s, kv in sorted(self.sections.items())}


def parse_config_file(path: str) -> RawConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise ConfigError(f"{path}: cannot read config: {e}") from None
    stripped = text.lstrip()
    if p.suffix == ".json" or stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}:{e.lineno}: invalid JSON: "
                              f"{e.msg}") from None
        if not isinstance(data, dict) or not all(
                isinstance(v, dict) for v in data.values()):
            raise ConfigError(f"{path}: top level must be an object of "
                              f"sections")
        return RawConfig(path, text, data)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str  # R and r_grid keys are case-sensitive
    try:
        parser.read_string(text, source=path)
    except configparser.Error as e:
        raise ConfigError(str(e)) from None
    sections = {s: dict(parser.items(s)) for s in parser.sections()}
    return RawConfig(path, text, sections)


@dataclasses.dataclass(frozen=True, eq=False)
class RunConfig:
    raw: RawConfig
    ray_choice: RayChoice
    model: PolynomialModel
    tower_R: int
    extra_levels: int
    seed: int
    samples: int
    horizon: int
    solver: LandingSolver
    eigen_tol: float
    bisection_tol: float
    margin: Fraction
    out: str


def load_config(args) -> RunConfig:
    raw = parse_config_file(args.config)
    degree = raw.get_int("map", "degree", default=2, minimum=2)
    c_real = raw.get_float("map", "c_real")
    c_imag = raw.get_float("map", "c_imag", default=0.0)
    angles = raw.get_list("map", "angle", parse_angle, None,
                          'fractions "p/q"')
    if angles is None:
        raise raw.error("map", "angle", "angle is mandatory")
    try:
        rc = RayChoice(degree, tuple(angles))
    except ValueError as e:
        raise raw.error("map", "angle", str(e)) from None
    kappa = raw.get_int("map", "kappa", default=len(angles))
    if kappa != len(angles):
        raise raw.error("map", "kappa",
                        f"kappa = {kappa} but {len(angles)} angle(s) given")
    tol_orbit = raw.get_float("tolerances", "tol_orbit", default=1e-9,
                              positive=True)
    try:
        model = PolynomialModel(degree, complex(c_real, c_imag),
                                tol_orbit=tol_orbit)
    except ValueError as e:
        key = "c_imag" if raw.raw("map", "c_imag") is not None else "c_real"
        raise raw.error("map", key, str(e)) from None

    seed = args.seed
    if seed is None:
        seed = raw.get_int("sampling", "seed")

    out = args.out or raw.raw("output", "dir")
    if out is None:
        raise raw.error("output", "dir",
                        "output directory is mandatory (config or --out)")

    margin = raw.get_fraction("margins", "cutpoint_margin",
                              default=Fraction(1, 64))
    if margin < 0:
        raise raw.error("margins", "cutpoint_margin",
                        "cutpoint_margin must be >= 0")

    cfg = RunConfig(
        raw=raw,
        ray_choice=rc,
        model=model,
        tower_R=raw.get_int("tower", "R", default=8, minimum=1),
        extra_levels=raw.get_int("tower", "extra_levels", default=0,
                                 minimum=0),
        seed=int(seed),
        samples=raw.get_int("sampling", "samples", default=1000, minimum=1),
        horizon=raw.get_int("sampling", "horizon", default=1000, minimum=1),
        # one solver lands every ray of the run, and counts its decisions
        solver=LandingSolver(model, tol_land=raw.get_float(
            "tolerances", "tol_land", default=1e-12, positive=True)),
        eigen_tol=raw.get_float("tolerances", "eigen_tol", default=1e-10,
                                positive=True),
        bisection_tol=raw.get_float("tolerances", "bisection_tol",
                                    default=1e-6, positive=True),
        margin=margin,
        out=str(out),
    )
    # each ray must land on c, or the tower is not this map's
    for a, ld in zip(angles, cfg.solver.land_many(angles)):
        miss = (math.inf if isinstance(ld, LandingError)
                else abs(ld.points[0] - model.c))
        if not miss <= tol_orbit:
            raise raw.error("map", "angle", f"the ray at {format_angle(a)} "
                            f"lands {miss:.3g} from c, beyond tol_orbit")
    return cfg


# --------------------------------------------------------------------------
# command bodies: each returns (files, failures, summary lines)


def _load_tower(cfg: RunConfig, out: Path):
    """The tower in out/tower.json, checked against the run config.

    A missing, unreadable or stale tower (built from another degree, angle,
    truncation or extra_levels) is a dependency error.
    """
    path = out / "tower.json"
    if not path.exists():
        raise DependencyError(
            f"{path} not found; run tower-build into this directory first")
    expected = TowerGraph(build_partition(cfg.ray_choice), cfg.tower_R,
                          cfg.extra_levels).config_json()
    try:
        payload = json.loads(path.read_text())
        if payload["config"] != expected:
            raise DependencyError(
                f"{path} was built from another config ({payload['config']}, "
                f"this run needs {expected}); rerun tower-build")
        return tower_from_json(payload)
    except (KeyError, TypeError, ValueError) as e:
        # JSONDecodeError is a ValueError, as is an off-lattice angle
        raise DependencyError(
            f"{path} is corrupt ({type(e).__name__}: {e}); rerun "
            f"tower-build") from None


def _dump(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def cmd_tower_build(cfg: RunConfig, out: Path):
    g = build_tower(cfg.ray_choice, cfg.tower_R,
                    extra_levels=cfg.extra_levels)
    rep = structural_checks(g)
    files = {
        "tower.json": tower_to_json_str(g) + "\n",
        "structure.json": _dump({"passed": rep.passed,
                                 **vars(rep)}),
    }
    failures = [] if rep.passed else ["structural checks failed"]
    inside = g.domain_count(within_truncation=True)
    summary = [f"{inside} domains, truncation {cfg.tower_R}, "
               f"{g.domain_count() - inside} beyond truncation, "
               f"structural checks {'pass' if rep.passed else 'FAIL'}"]
    return files, failures, summary


def cmd_tower_export(cfg: RunConfig, out: Path):
    g = _load_tower(cfg, out)
    files = {"tower.dot": g.to_dot()}
    return files, [], [f"DOT export, {g.domain_count()} domains"]


def cmd_census(cfg: RunConfig, out: Path):
    g = _load_tower(cfg, out)
    raw = cfg.raw
    R = raw.get_int("census", "R", default=2, minimum=1)
    horizon = raw.get_int("census", "horizon", default=20, minimum=1)
    brute_depth = raw.get_int("census", "brute_depth", default=8, minimum=0)
    subset_n = raw.get_list("census", "subset_n", int, (20, 40, 60),
                            "integers")
    subset_eps = raw.get_list("census", "subset_eps", Fraction,
                              (Fraction(1, 20), Fraction(1, 10),
                               Fraction(1, 5), Fraction(3, 10)),
                              "fractions")
    ids = sorted(i for i, d in g.domains.items() if d.level == R)
    if not ids:
        raise DependencyError(f"tower has no level-{R} domains")

    N = g.partition.size
    files = {}
    failures = []
    domains_json = []
    for did in ids:
        tbl = cutpoint_census(g, R, did, horizon)
        rep = verify_appendix(tbl, N)
        match = True
        if brute_depth > 0:
            bf = brute_force_census(g, did, min(brute_depth, horizon))
            match = (tbl.s[:len(bf.s)] == bf.s)
            if not match:
                failures.append(f"DP/DFS mismatch on domain {did}")
        if not rep.ok:
            failures.append(f"appendix violations on domain {did}: "
                            f"{rep.first_violation()}")
        files[f"s_table_D{did}.csv"] = s_table_csv(tbl)
        files[f"l_table_D{did}.csv"] = l_table_csv(tbl)
        domains_json.append({"domain": did, "brute_match": match,
                             "appendix": rep.to_json()})
    subsets = []
    for n in subset_n:
        for eps in subset_eps:
            b = subset_count_bound(eps, n)
            if not b.holds:
                failures.append(f"subset bound fails at n={n} eps={eps}")
            subsets.append({"n": n, "eps": str(b.eps), "count": b.count,
                            "bound": b.bound, "holds": b.holds})
    files["census.json"] = _dump({"R": R, "horizon": horizon,
                                  "domains": domains_json,
                                  "subset_bounds": subsets})
    ok = "ok" if not failures else "FAIL"
    summary = [f"R={R} horizon={horizon}: {len(ids)} domain(s), "
               f"{len(subsets)} subset bounds, {ok}"]
    return files, failures, summary


def _sampler(cfg: RunConfig, section: str, partition, seed: int):
    raw = cfg.raw
    kind = raw.get_choice(section, "sampler",
                          {"brolin", "brolin-periodic", "dirac"}, "brolin")
    count = raw.get_int(section, "count", default=cfg.samples, minimum=1)
    if kind == "brolin":
        return brolin_samples(partition, count, cfg.horizon, seed=seed)
    if kind == "brolin-periodic":
        bits = raw.get_int(section, "bits", default=16, minimum=2)
        return brolin_period_samples(partition, count, seed=seed, bits=bits)
    angle = raw.get_fraction(section, "angle", default=None)
    if angle is None:
        raise raw.error(section, "angle", "dirac sampler needs an angle")
    return dirac_cycle(partition, angle)


def cmd_lift(cfg: RunConfig, out: Path):
    g = _load_tower(cfg, out)
    raw = cfg.raw
    mu = _sampler(cfg, "lift", g.partition, cfg.seed)
    # a Brolin measure is exact to its horizon; the others to any
    n_grid = raw.get_list("sampling", "n_grid", int, (250, 500, 1000),
                          "integers", minimum=1, maximum=mu.horizon)
    R_grid = raw.get_list("sampling", "R_grid", int, (4, 6, 8), "integers")
    floor = raw.get_float("lift", "floor", default=DEFAULT_FLOOR,
                          positive=True)
    rep = lift_report(mu, g, n_grid, R_grid, floor=floor)
    files = {
        "lift.json": _dump({"provenance": mu.provenance,
                            "samples": len(mu.nums),
                            **rep.to_json()}),
        "curves.csv": curves_csv(rep.curves),
    }
    n_max, r_max = max(n_grid), max(R_grid)
    tail = [r for r in rep.curves if r[0] == n_max and r[1] == r_max]
    retained = tail[0][2] if tail else float("nan")
    summary = [f"{mu.provenance} x{len(mu.nums)}: verdict {rep.verdict}, "
               f"retained(n={n_max}, R={r_max}) = {retained:.4f}"]
    return files, [], summary


def cmd_lyapunov(cfg: RunConfig, out: Path):
    g = _load_tower(cfg, out)
    raw = cfg.raw
    count = raw.get_int("lyapunov", "count", default=512, minimum=1)
    bits = raw.get_int("lyapunov", "bits", default=12, minimum=2)
    n = raw.get_int("lyapunov", "n", default=240, minimum=1)
    rows = raw.get_int("lyapunov", "landing_rows", default=12, minimum=0)
    mu = brolin_period_samples(g.partition, count, seed=cfg.seed + 1,
                               bits=bits)
    ens = make_ensemble(mu, g, n)
    rep = lyapunov_consistency(mu, ens, cfg.model, cfg.solver,
                               R=cfg.tower_R, n=n)
    files = {
        "lyapunov.json": _dump({"count": count, "bits": bits,
                                **rep.to_json()}),
        "landings.csv": landing_table_csv(cfg.model, rep.landings[:rows], n),
    }
    lam = "none" if rep.lambda_f is None else f"{rep.lambda_f:.6f}"
    lam_hat = ("none" if rep.lambda_fhat is None
               else f"{rep.lambda_fhat:.6f}")
    summary = [f"lambda_f = {lam}, tower-side = {lam_hat}, "
               f"used weight {rep.used_weight:.4f}"]
    return files, [], summary


def cmd_induce(cfg: RunConfig, out: Path):
    g = _load_tower(cfg, out)
    raw = cfg.raw
    count = raw.get_int("induce", "count", default=768, minimum=1)
    bits = raw.get_int("induce", "bits", default=16, minimum=2)
    horizon = raw.get_int("induce", "horizon", default=1600, minimum=2)
    word_limit = raw.get_int("induce", "branch_words", default=200,
                             minimum=0)
    mu = brolin_period_samples(g.partition, count, seed=cfg.seed + 2,
                               bits=bits)
    ens = make_ensemble(mu, g, horizon)
    witness = choose_W(g, recurrent_witness_domain(g), cfg.margin)
    ind = first_return(ens, witness)
    mass = lift_cesaro(mu, g, horizon, cfg.tower_R, ensemble=ens)
    kac = kac_check(ind, mass)
    expansion = expansion_and_abramov(ind, cfg.solver)
    files = {
        "induce.json": _dump({"witness": witness.to_json(),
                              "kac": kac.to_json(),
                              "expansion": expansion.to_json()}),
        "tau_histogram.csv": tau_histogram_csv(ind),
        "branch_words.csv": branch_words_csv(ind, limit=word_limit),
    }
    summary = [f"witness D{witness.domain_id}, returns {ind.return_count}, "
               f"kac rel err {kac.relative_error:.4f} ({kac.verdict})"]
    return files, [], summary


def cmd_conformal(cfg: RunConfig, out: Path):
    g = _load_tower(cfg, out)
    raw = cfg.raw
    depth = raw.get_int("conformal", "depth", default=8, minimum=1)
    lambdas = raw.get_list("conformal", "lambdas", float, (1.1, 1.2, 1.5),
                           "numbers")
    if min(lambdas) <= 0:
        raise raw.error("conformal", "lambdas", "lambdas entries must be > 0")
    lift_horizon = raw.get_int("conformal", "lift_horizon",
                               default=cfg.horizon, minimum=depth + 1)
    horizons = raw.get_list("conformal", "horizons", int, (6, 8, 10),
                            "integers", minimum=1, maximum=lift_horizon)
    eps_grid = raw.get_list("conformal", "eps", float, (0.05, 0.1, 0.2),
                            "numbers")
    basis = build_basis(g.partition, cfg.solver, depth)
    solve = solve_delta(basis, delta_tol=cfg.bisection_tol,
                        eigen_tol=cfg.eigen_tol)
    residual = conformality_residual(basis, solve.weights, solve.delta)
    experiment = lyapunov_liftability_experiment(
        solve, g, cfg.solver, lambdas=lambdas, horizons=horizons,
        eps_grid=eps_grid, level_cap=cfg.tower_R,
        lift_horizon=lift_horizon, margin=cfg.margin)
    files = {
        "conformal.json": _dump({"solve": solve.to_json(),
                                 "residual": residual,
                                 "experiment": experiment.to_json(),
                                 "seed": cfg.seed + 3}),
        "delta_curve.csv": curve_csv(solve),
        "weights.csv": weights_csv(solve),
    }
    failures = []
    if not solve.grid_strictly_decreasing:
        failures.append("eigenvalue curve not strictly decreasing")
    if not experiment.consistent:
        failures.append("liftability criterion sides disagree")
    summary = [f"depth {depth}: delta* = {solve.delta:.8f}, residual "
               f"{residual:.3e}, experiment "
               f"{'consistent' if experiment.consistent else 'INCONSISTENT'}"
               f" (liftable={experiment.liftable})"]
    return files, failures, summary


REPORT_HEADLINES = {
    "tower.json": lambda d: (f"{len(d['domains'])} domains, truncation "
                             f"{d['config']['truncation']}"),
    "structure.json": lambda d: ("structural checks pass" if d["passed"]
                                 else "structural checks FAIL"),
    "census.json": lambda d: (f"R={d['R']} horizon={d['horizon']}, "
                              f"{len(d['domains'])} domain(s), "
                              f"{len(d['subset_bounds'])} subset bounds"),
    "lift.json": lambda d: (f"verdict {d['verdict']}, "
                            f"{d['samples']} {d['provenance']} samples"),
    "lyapunov.json": lambda d: (f"lambda_f = {d['lambda_f']}, "
                                f"tower-side = {d['lambda_fhat']}"),
    "induce.json": lambda d: (f"witness D{d['witness']['domain']}, kac "
                              f"verdict {d['kac']['verdict']}"),
    "conformal.json": lambda d: (f"delta* = {d['solve']['delta']:.8f}, "
                                 f"consistent = "
                                 f"{d['experiment']['consistent']}"),
}


def cmd_report(cfg: RunConfig, out: Path):
    artifacts = {}
    for name in REPORT_HEADLINES:
        path = out / name
        if path.exists():
            artifacts[name] = json.loads(path.read_text())
    if not artifacts:
        raise DependencyError(
            f"no artifacts found in {out}; run some stages first")
    manifests = {}
    for path in sorted(out.glob("*.manifest.json")):
        if path.name == "report.manifest.json":
            continue
        blob = json.loads(path.read_text())
        # timing would defeat byte-identical reruns of the aggregate
        blob.pop("wall_time_s", None)
        manifests[path.name] = blob

    lines = [f"{'artifact':<16} summary", f"{'-' * 16} {'-' * 7}"]
    headlines = {}
    for name, blob in sorted(artifacts.items()):
        try:
            head = REPORT_HEADLINES[name](blob)
        except (KeyError, TypeError, IndexError):
            head = "present (unrecognized layout)"
        headlines[name] = head
        lines.append(f"{name:<16} {head}")
    table = "\n".join(lines) + "\n"

    # the tower export is a fixed point of re-encoding, so its text goes in
    # as it is, two levels deeper, where its artifacts entry reads null (a
    # headline is never null, and strings hold no raw newline)
    spliced = "tower.json" in artifacts
    if spliced:
        artifacts["tower.json"] = None
    report = _dump({"headlines": headlines, "artifacts": artifacts,
                    "manifests": manifests})
    if spliced:
        key = '\n  "tower.json": '
        tower = (out / "tower.json").read_text().strip()
        report = report.replace(key + "null",
                                key + tower.replace("\n", "\n  "), 1)
    files = {"report.json": report, "report.txt": table}
    return files, [], [f"{len(artifacts)} artifact(s) aggregated"]


COMMANDS = {
    "tower-build": cmd_tower_build,
    "tower-export": cmd_tower_export,
    "census": cmd_census,
    "lift": cmd_lift,
    "lyapunov": cmd_lyapunov,
    "induce": cmd_induce,
    "conformal": cmd_conformal,
    "report": cmd_report,
}


# --------------------------------------------------------------------------
# driver


def write_run(out: Path, command: str, cfg: RunConfig, files: dict,
              failures: list, t0: float) -> None:
    out.mkdir(parents=True, exist_ok=True)
    hashes = {}
    for name, content in sorted(files.items()):
        (out / name).write_text(content)
        hashes[name] = git_blob_sha1(content)
    combined = hashlib.sha1("\n".join(
        f"{n}:{h}" for n, h in sorted(hashes.items())).encode()).hexdigest()
    manifest = {
        "command": command,
        "config": cfg.raw.echo(),
        "config_path": cfg.raw.path,
        "seed": cfg.seed,
        "outputs": hashes,
        "content_hash": combined,
        "failures": failures,
        "counters": dict(cfg.solver.counters),
        "wall_time_s": round(time.time() - t0, 3),
    }
    (out / f"{command}.manifest.json").write_text(_dump(manifest))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="angletower",
        description="Markov tower experiments in the exact angle model")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI or JSON config")
        p.add_argument("--out", default=None,
                       help="output directory (overrides [output] dir)")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides [sampling] seed)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(cfg.out)
    t0 = time.time()
    try:
        files, failures, summary = COMMANDS[args.command](cfg, out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DependencyError, InsufficientDepth, FrontierReached) as e:
        print(f"dependency error: {e}", file=sys.stderr)
        return EXIT_DEPENDENCY
    except (ValueError, RuntimeError) as e:
        print(f"check failure: {e}", file=sys.stderr)
        return EXIT_CHECK
    write_run(out, args.command, cfg, files, failures, t0)
    for line in summary:
        print(f"{args.command}: {line}")
    if failures:
        for f in failures:
            print(f"check failure: {f}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
