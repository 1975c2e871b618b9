"""Batch front end: configured runs, exports, and run manifests.

One flat config file (INI-style sections, JSON accepted too) drives all
subcommands against a shared output directory.  SCHEMA names its keys;
every command checks the whole file at load, for every stage.

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
from typing import NamedTuple

from .angles import RayChoice, build_partition, format_angle
from .geometry import (LandingError, LandingSolver, PolynomialModel,
                       landing_table_csv)
from .tower import (TowerGraph, TowerTooShallow, build_tower,
                    structural_checks, tower_from_json, tower_to_json_str)

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
# config: one schema, read whole at load


SAMPLERS = ("brolin", "brolin-periodic", "dirac")
# parsers of a value (of each entry of a list), with what they accept; the
# sampler's index raises ValueError on a name off the list
INT = (int, "an integer")
NUMBER = (float, "a number")
FRACTION = (Fraction, 'a fraction "p/q"')
SAMPLER = (lambda s: SAMPLERS[SAMPLERS.index(s)], f"one of {list(SAMPLERS)}")


class Key(NamedTuple):
    """A key's parser, default (a value, None, or ... if the config or flag
    must give it), and bounds on its value or each list entry (many),
    inclusive unless strict; a callable one reads v, the values so far."""

    parse: tuple
    default: object
    lo: object = None
    hi: object = None
    strict: bool = False
    many: bool = False
    flag: str | None = None


def _max_bits(v) -> int:
    # d**bits - 1 bounds the int64 draw of brolin_period_samples
    return max(b for b in range(64) if v["map", "degree"] ** b <= 1 << 63)


SCHEMA = {
    ("map", "degree"): Key(INT, 2, lo=2),
    ("map", "c_real"): Key(NUMBER, ...),
    ("map", "c_imag"): Key(NUMBER, 0.0),
    ("map", "angle"): Key(FRACTION, ..., many=True),
    ("map", "kappa"): Key(INT, lambda v: len(v["map", "angle"])),
    ("tower", "R"): Key(INT, 8, lo=1),
    ("tower", "extra_levels"): Key(INT, 0, lo=0),
    ("sampling", "seed"): Key(INT, ..., lo=0, flag="seed"),
    ("sampling", "samples"): Key(INT, 1000, lo=1),
    ("sampling", "horizon"): Key(INT, 1000, lo=1),
    # a Brolin measure is exact to its horizon; the others to any
    ("sampling", "n_grid"): Key(INT, (250, 500, 1000), lo=1, many=True, hi=(
        lambda v: v["sampling", "horizon"]
        if v["lift", "sampler"] == "brolin" else None)),
    ("sampling", "R_grid"): Key(INT, (4, 6, 8), lo=0, many=True),
    ("tolerances", "tol_land"): Key(NUMBER, 1e-12, lo=0, strict=True),
    ("tolerances", "tol_orbit"): Key(NUMBER, 1e-9, lo=0, strict=True),
    ("tolerances", "eigen_tol"): Key(NUMBER, 1e-10, lo=0, strict=True),
    ("tolerances", "bisection_tol"): Key(NUMBER, 1e-6, lo=0, strict=True),
    ("margins", "cutpoint_margin"): Key(FRACTION, Fraction(1, 64), lo=0,
                                        hi=Fraction(1, 2), strict=True),
    ("output", "dir"): Key((str, "a path"), ..., flag="out"),
    ("census", "R"): Key(INT, 2, lo=1),
    ("census", "horizon"): Key(INT, 20, lo=1),
    ("census", "brute_depth"): Key(INT, 8, lo=0),
    ("census", "subset_n"): Key(INT, (20, 40, 60), lo=1, many=True),
    ("census", "subset_eps"): Key(FRACTION, tuple(map(Fraction, (
        "1/20", "1/10", "1/5", "3/10"))), lo=0, hi=1, strict=True, many=True),
    ("lift", "sampler"): Key(SAMPLER, "brolin"),
    ("lift", "count"): Key(INT, lambda v: v["sampling", "samples"], lo=1),
    ("lift", "bits"): Key(INT, 16, lo=2, hi=_max_bits),
    ("lift", "angle"): Key(FRACTION, lambda v: (
        ... if v["lift", "sampler"] == "dirac" else None)),
    ("lyapunov", "count"): Key(INT, 512, lo=1),
    ("lyapunov", "bits"): Key(INT, 12, lo=2, hi=_max_bits),
    ("lyapunov", "n"): Key(INT, 240, lo=1),
    ("lyapunov", "landing_rows"): Key(INT, 12, lo=0),
    ("induce", "count"): Key(INT, 768, lo=1),
    ("induce", "bits"): Key(INT, 16, lo=2, hi=_max_bits),
    ("induce", "horizon"): Key(INT, 1600, lo=2),
    ("induce", "branch_words"): Key(INT, 200, lo=0),
    ("conformal", "depth"): Key(INT, 8, lo=1),
    ("conformal", "lambdas"): Key(NUMBER, (1.1, 1.2, 1.5), lo=0,
                                  strict=True, many=True),
    ("conformal", "lift_horizon"): Key(
        INT, lambda v: v["sampling", "horizon"],
        lo=lambda v: v["conformal", "depth"] + 1),
    ("conformal", "horizons"): Key(INT, (6, 8, 10), lo=1, many=True, hi=(
        lambda v: v["conformal", "lift_horizon"])),
    ("conformal", "eps"): Key(NUMBER, (0.05, 0.1, 0.2), many=True),
}


def _members(text: str):
    """(line, name, opens a section) of each INI or JSON section and key."""
    if text.lstrip().startswith("{"):
        for m in re.finditer(r'"((?:[^"\\]|\\.)*)"\s*:\s*(\{)?', text):
            yield text.count("\n", 0, m.start()) + 1, m[1], bool(m[2])
        return
    for i, line in enumerate(text.splitlines(), start=1):
        if m := re.match(r"\s*(?:\[([^\]]+)\]|([^\s;#][^=:]*?)\s*[=:])", line):
            yield i, m[1] or m[2], m[1] is not None


class RawConfig(NamedTuple):
    """A config file's sections of unparsed values, and its text."""

    path: str
    text: str
    sections: dict

    def error(self, section: str, key, message: str) -> ConfigError:
        """message at key's line in section (the header's if key is None)"""
        current = None
        for line, name, opens in _members(self.text):
            current = name if opens else current
            if (current, name, opens) == (section, key or section, not key):
                return ConfigError(f"{self.path}:{line}: {message}")
        return ConfigError(f"{self.path} ({section}.{key}): {message}")


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


def read_schema(raw: RawConfig, args) -> dict:
    """Every SCHEMA key's value, given, default or flag's, and bounded."""
    for section, keys in raw.sections.items():
        if not any(s == section for s, _ in SCHEMA):
            raise raw.error(section, None, f"unknown section [{section}]")
        for key in keys:
            if (section, key) not in SCHEMA:
                raise raw.error(section, key, f"unknown key [{section}] {key}")
    v = {}
    for (section, key), spec in SCHEMA.items():
        text = raw.sections.get(section, {}).get(key)
        given = getattr(args, spec.flag) if spec.flag else None
        if text is None:
            value = (spec.default(v) if callable(spec.default)
                     else spec.default)
            if value is ... and given is None:
                raise raw.error(section, key, f"{key} is mandatory" + (
                    f" (config or --{spec.flag})" if spec.flag else ""))
        else:
            parse, what = spec.parse
            items = ((text if isinstance(text, list) else str(text).split())
                     if spec.many else [text])
            try:  # an empty list fails as one empty entry
                value = tuple(parse(str(x)) for x in items or [""])
            except (ValueError, ZeroDivisionError):
                raise raw.error(section, key, f"{key} must be {what}"
                                f"{' in each entry' * spec.many}, not "
                                f"{text!r}") from None
            value = value if spec.many else value[0]
        v[section, key] = value if given is None else given
    for (section, key), spec in SCHEMA.items():
        xs = v[section, key] if spec.many else (v[section, key],)
        label, op = f"{key}{' entries' * spec.many}", "=" * (not spec.strict)
        lo, hi = (b(v) if callable(b) else b for b in (spec.lo, spec.hi))
        for bound, sign, holds in ((lo, ">", lambda x: lo < x),
                                   (hi, "<", lambda x: x < hi)):
            if bound is not None and not all(
                    holds(x) or op and x == bound for x in xs):
                raise raw.error(section, key,
                                f"{label} must be {sign}{op} {bound}")
    return v


@dataclasses.dataclass(frozen=True, eq=False)
class RunConfig:
    """Every config value, as cfg[section, key], and what the load built."""

    values: dict
    ray_choice: RayChoice
    model: PolynomialModel
    solver: LandingSolver
    path: str
    echo: dict

    def __getitem__(self, key):
        return self.values[key]


def load_config(args) -> RunConfig:
    raw = parse_config_file(args.config)
    v = read_schema(raw, args)
    try:
        rc = RayChoice(v["map", "degree"], v["map", "angle"])
    except ValueError as e:
        raise raw.error("map", "angle", str(e)) from None
    angles = rc.angles  # each reduced mod 1
    if v["map", "kappa"] != len(angles):
        raise raw.error("map", "kappa", f"kappa = {v['map', 'kappa']} but "
                        f"{len(angles)} angle(s) given")
    # a point mass sits on a cycle: its angle's denominator is prime to d
    dirac, d = v["lift", "angle"], v["map", "degree"]
    if v["lift", "sampler"] == "dirac" and math.gcd(dirac.denominator, d) > 1:
        raise raw.error("lift", "angle", f"angle {format_angle(dirac % 1)} "
                        f"is not periodic under multiplication by {d}")
    # a [lift] key written for a sampler that never reads it is refused
    sampler = v["lift", "sampler"]
    for key, read in (("count", sampler != "dirac"),
                      ("bits", sampler == "brolin-periodic"),
                      ("angle", sampler == "dirac")):
        if not read and key in raw.sections.get("lift", {}):
            raise raw.error("lift", key, f"{key} is not read under "
                            f"sampler = {sampler}")
    tol_orbit = v["tolerances", "tol_orbit"]
    try:
        model = PolynomialModel(v["map", "degree"], complex(
            v["map", "c_real"], v["map", "c_imag"]), tol_orbit=tol_orbit)
    except ValueError as e:
        key = "c_imag" if "c_imag" in raw.sections["map"] else "c_real"
        raise raw.error("map", key, str(e)) from None
    # one solver lands every ray of the run, and counts its decisions
    solver = LandingSolver(model, tol_land=v["tolerances", "tol_land"])
    # each ray must land on c, or the tower is not this map's
    for a, ld in zip(angles, solver.land_many(angles)):
        miss = (math.inf if isinstance(ld, LandingError)
                else abs(ld.points[0] - model.c))
        if not miss <= tol_orbit:
            raise raw.error("map", "angle", f"the ray at {format_angle(a)} "
                            f"lands {miss:.3g} from c, beyond tol_orbit")
    return RunConfig(v, rc, model, solver, raw.path, raw.sections)


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
    expected = TowerGraph(build_partition(cfg.ray_choice), cfg["tower", "R"],
                          cfg["tower", "extra_levels"]).config_json()
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
    g = build_tower(cfg.ray_choice, cfg["tower", "R"],
                    extra_levels=cfg["tower", "extra_levels"])
    rep = structural_checks(g)
    files = {
        "tower.json": tower_to_json_str(g) + "\n",
        "structure.json": _dump({"passed": rep.passed,
                                 **vars(rep)}),
    }
    failures = [] if rep.passed else ["structural checks failed"]
    inside = g.domain_count(within_truncation=True)
    summary = [f"{inside} domains, truncation {cfg['tower', 'R']}, "
               f"{g.domain_count() - inside} beyond truncation, "
               f"structural checks {'pass' if rep.passed else 'FAIL'}"]
    return files, failures, summary


def cmd_tower_export(cfg: RunConfig, out: Path):
    g = _load_tower(cfg, out)
    files = {"tower.dot": g.to_dot()}
    return files, [], [f"DOT export, {g.domain_count()} domains"]


def cmd_census(cfg: RunConfig, out: Path):
    from .census import (brute_force_census, cutpoint_census, l_table_csv,
                         s_table_csv, subset_count_bound, verify_appendix)
    g = _load_tower(cfg, out)
    R, horizon = cfg["census", "R"], cfg["census", "horizon"]
    brute_depth = cfg["census", "brute_depth"]
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
    for n in cfg["census", "subset_n"]:
        for eps in cfg["census", "subset_eps"]:
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


def cmd_lift(cfg: RunConfig, out: Path):
    from .lifting import (brolin_period_samples, brolin_samples, curves_csv,
                          dirac_cycle, lift_report, make_ensemble)
    g = _load_tower(cfg, out)
    kind, count = cfg["lift", "sampler"], cfg["lift", "count"]
    if kind == "brolin":
        mu = brolin_samples(g.partition, count, cfg["sampling", "horizon"],
                            seed=cfg["sampling", "seed"])
    elif kind == "brolin-periodic":
        mu = brolin_period_samples(g.partition, count,
                                   seed=cfg["sampling", "seed"],
                                   bits=cfg["lift", "bits"])
    else:
        mu = dirac_cycle(g.partition, cfg["lift", "angle"])
    n_grid, R_grid = cfg["sampling", "n_grid"], cfg["sampling", "R_grid"]
    rep = lift_report(make_ensemble(mu, g, max(n_grid)), n_grid, R_grid)
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
    from .lifting import (brolin_period_samples, lyapunov_consistency,
                          make_ensemble)
    g = _load_tower(cfg, out)
    count, bits = cfg["lyapunov", "count"], cfg["lyapunov", "bits"]
    n, rows = cfg["lyapunov", "n"], cfg["lyapunov", "landing_rows"]
    mu = brolin_period_samples(g.partition, count,
                               seed=cfg["sampling", "seed"] + 1, bits=bits)
    rep = lyapunov_consistency(make_ensemble(mu, g, n), cfg.model,
                               cfg.solver, R=cfg["tower", "R"], n=n)
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
    from .inducing import (branch_words_csv, choose_W, expansion_and_abramov,
                           first_return, kac_check, recurrent_witness_domain,
                           tau_histogram_csv)
    from .lifting import brolin_period_samples, make_ensemble
    g = _load_tower(cfg, out)
    mu = brolin_period_samples(g.partition, cfg["induce", "count"],
                               seed=cfg["sampling", "seed"] + 2,
                               bits=cfg["induce", "bits"])
    ens = make_ensemble(mu, g, cfg["induce", "horizon"])
    try:
        domain = recurrent_witness_domain(g)
    except ValueError:
        # a walk into the frontier is refused first (exit 3), as in the
        # other walking stages
        ens.fold(ens.horizon)
        raise
    witness = choose_W(g, domain, cfg["margins", "cutpoint_margin"])
    ind = first_return(ens, witness)
    kac = kac_check(ind, cfg["tower", "R"])
    expansion = expansion_and_abramov(ind, cfg.solver)
    files = {
        "induce.json": _dump({"witness": witness.to_json(),
                              "kac": kac.to_json(),
                              "expansion": expansion.to_json()}),
        "tau_histogram.csv": tau_histogram_csv(ind),
        "branch_words.csv": branch_words_csv(
            ind, limit=cfg["induce", "branch_words"]),
    }
    summary = [f"witness D{witness.domain_id}, returns {ind.return_count}, "
               f"kac rel err {kac.relative_error:.4f} ({kac.verdict})"]
    return files, [], summary


def cmd_conformal(cfg: RunConfig, out: Path):
    from .conformal import (build_basis, conformality_residual, curve_csv,
                            lyapunov_liftability_experiment, solve_delta,
                            weights_csv)
    g = _load_tower(cfg, out)
    depth = cfg["conformal", "depth"]
    basis = build_basis(g.partition, cfg.solver, depth)
    solve = solve_delta(basis, delta_tol=cfg["tolerances", "bisection_tol"],
                        eigen_tol=cfg["tolerances", "eigen_tol"])
    residual = conformality_residual(basis, solve.weights, solve.delta)
    experiment = lyapunov_liftability_experiment(
        solve, g, cfg.solver, lambdas=cfg["conformal", "lambdas"],
        horizons=cfg["conformal", "horizons"],
        eps_grid=cfg["conformal", "eps"], level_cap=cfg["tower", "R"],
        lift_horizon=cfg["conformal", "lift_horizon"],
        margin=cfg["margins", "cutpoint_margin"])
    files = {
        "conformal.json": _dump({"solve": solve.to_json(),
                                 "residual": residual,
                                 "experiment": experiment.to_json(),
                                 "seed": cfg["sampling", "seed"] + 3}),
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
        "config": cfg.echo,
        "config_path": cfg.path,
        "seed": cfg["sampling", "seed"],
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
    # a bad --seed is refused as it is parsed, citing no config line
    def seed(text: str) -> int:
        if int(text) < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, not {text}")
        return int(text)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI or JSON config")
        p.add_argument("--out", default=None,
                       help="output directory (overrides [output] dir)")
        p.add_argument("--seed", type=seed, default=None,
                       help="master seed (overrides [sampling] seed)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(cfg["output", "dir"])
    t0 = time.time()
    try:
        files, failures, summary = COMMANDS[args.command](cfg, out)
    except (DependencyError, TowerTooShallow) as e:
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
