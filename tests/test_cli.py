"""End-to-end checks for the command line driver."""

import csv
import hashlib
import json
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from angletower.angles import itinerary
from angletower.census import InsufficientDepth
from angletower.cli import (COMMANDS, EXIT_CHECK, EXIT_CONFIG,
                            EXIT_DEPENDENCY, EXIT_OK, SCHEMA, build_parser,
                            git_blob_sha1, load_config, main)
from angletower.geometry import LandingSolver, PolynomialModel
from angletower.lifting import brolin_samples, make_ensemble
from angletower.streams import FrontierReached
from angletower.tower import TowerTooShallow, tower_from_json

BASE = """\
[map]
degree = 2
c_real = -2.0
c_imag = 0.0
angle = 1/2

[tower]
R = {R}
extra_levels = {extra}

[sampling]
seed = 3
samples = 200
horizon = 200
n_grid = 100 200
R_grid = 4 5

[census]
R = 2
horizon = 12
brute_depth = 6
subset_n = 20
subset_eps = 1/10

[lift]
sampler = brolin
count = 200

[output]
dir = {out}
"""


# d = 3: c solves c^2 = e^(2 pi i / 3) - 1, where the ray 1/6 lands
CUBIC = """\
[map]
degree = 3
c_real = 0.34062501931660666
c_imag = 1.2712298784187062
angle = 1/6

[tower]
R = 6
extra_levels = 32

[sampling]
seed = 5
samples = 50
horizon = 200
n_grid = 50 100 200
R_grid = 4 6

[lift]
sampler = brolin
count = 50

[output]
dir = {out}
"""


# z^2 + i with the ray 1/6, and kappa = 2 at the airplane-like
# c = -1.5436890..., where the rays 5/12 and 7/12 both land
LIFT_MAPS = {
    "dend": "degree = 2\nc_real = 0.0\nc_imag = 1.0\nangle = 1/6\n",
    "pair-small": ("degree = 2\nc_real = -1.5436890126920764\n"
                   "c_imag = 0.0\nangle = 5/12 7/12\nkappa = 2\n"),
}
LIFT_RUN = """\
[map]
{map}
[tower]
R = 6
extra_levels = 300

[sampling]
seed = 17
samples = 400
horizon = 300
n_grid = 100 200 300
R_grid = 4 6

[lift]
sampler = brolin
count = 400

[output]
dir = {out}
"""

# sha1 of lift.json and curves.csv, computed with the Fraction samplers
# and weighted sums that the integer measures and the count path replaced
FROZEN_LIFTS = {
    "dend": ("488610a6847d72274b663c60dfdfd926399b31c0",
             "1f8a3e906cc05e38093033ce0546623e4fb900ce"),
    "cubic": ("59f9cd89a4e9b8d6807105383eb7a6ede1fbd15d",
              "b02e6a6e26f274b339a94b75b869bc68843ebfae"),
    "pair-small": ("3e340e902ca3d2f0e8e606be6566e8a313a71ec4",
                   "6fb4131c3922de84b859e3211cd29d906e59f7d2"),
}


def write_cfg(tmp_path, name="run.ini", R=5, extra=16, out=None, text=None):
    out = Path(out or tmp_path / "out")
    path = tmp_path / name
    path.write_text(text if text is not None
                    else BASE.format(R=R, extra=extra, out=out))
    return path, out


def assert_refused(capsys, cfg, stages, anchored):
    """Each stage exits 2 on cfg at load, printing the anchored message
    (file:line: message)."""
    capsys.readouterr()
    for stage in stages:
        assert main([stage, "--config", str(cfg)]) == EXIT_CONFIG, stage
        assert f"config error: {anchored}" in capsys.readouterr().err, stage


def test_tower_build_small(tmp_path, capsys):
    # truncation 5: six domains inside, one frontier level beyond
    cfg, out = write_cfg(tmp_path, R=5, extra=0)
    assert main(["tower-build", "--config", str(cfg)]) == EXIT_OK
    assert "6 domains" in capsys.readouterr().out
    payload = json.loads((out / "tower.json").read_text())
    assert len(payload["domains"]) == 7
    structure = json.loads((out / "structure.json").read_text())
    assert structure["passed"] is True


def test_tower_export_needs_build(tmp_path):
    cfg, out = write_cfg(tmp_path)
    assert main(["tower-export", "--config", str(cfg)]) == EXIT_DEPENDENCY
    assert main(["tower-build", "--config", str(cfg)]) == EXIT_OK
    assert main(["tower-export", "--config", str(cfg)]) == EXIT_OK
    assert (out / "tower.dot").read_text().startswith("digraph")


def test_census_outputs(tmp_path):
    cfg, out = write_cfg(tmp_path, R=6)
    assert main(["census", "--config", str(cfg)]) == EXIT_DEPENDENCY
    assert main(["tower-build", "--config", str(cfg)]) == EXIT_OK
    assert main(["census", "--config", str(cfg)]) == EXIT_OK
    blob = json.loads((out / "census.json").read_text())
    assert blob["R"] == 2 and blob["horizon"] == 12
    for dom in blob["domains"]:
        assert dom["brute_match"] is True
        assert dom["appendix"]["ok"] is True
        assert (out / f"s_table_D{dom['domain']}.csv").exists()
        assert (out / f"l_table_D{dom['domain']}.csv").exists()
    assert all(b["holds"] for b in blob["subset_bounds"])


def test_lift_outputs(tmp_path):
    cfg, out = write_cfg(tmp_path)
    main(["tower-build", "--config", str(cfg)])
    assert main(["lift", "--config", str(cfg)]) == EXIT_OK
    blob = json.loads((out / "lift.json").read_text())
    assert blob["provenance"] == "brolin"
    assert blob["samples"] == 200
    header = (out / "curves.csv").read_text().splitlines()[0]
    assert header == "n,R,retained,escaped"


@pytest.mark.parametrize("name", list(FROZEN_LIFTS))
def test_lift_artifacts_bytes_frozen(tmp_path, name):
    out = tmp_path / "out"
    text = (CUBIC.format(out=out) if name == "cubic"
            else LIFT_RUN.format(map=LIFT_MAPS[name], out=out))
    cfg, _ = write_cfg(tmp_path, text=text)
    for stage in ("tower-build", "lift"):
        assert main([stage, "--config", str(cfg)]) == EXIT_OK, stage
    got = tuple(hashlib.sha1((out / f).read_bytes()).hexdigest()
                for f in ("lift.json", "curves.csv"))
    assert got == FROZEN_LIFTS[name]


# sha1 of the shipped chebyshev config's induce artifacts at seed 7,
# computed with the dense samples x horizon matrices that the sample-block
# folds replaced; induce.json's since the Cesaro mass is read from the
# per-step domain sums, whose domain_mass_lift 0.4889567057291667 lies
# 5e-17 from the exact C/(count*n) = 600830/(768*1600), and since the
# orbits land by Newton on their cycles, which moved lambda_f from
# 0.6931471805599457 to 0.6931471805599461, lambda_induced from
# 1.5121262192486444 to 1.5121262192486449 and lambda_error from
# 0.002278812007624564 to 0.002278812007624723
FROZEN_INDUCE = {
    "induce.json": "3f2b4e54931674e2ceb94e30ca7f5c6575940760",
    "tau_histogram.csv": "c70541ad795ac2b508f6226af77dd97cd0aa74f0",
    "branch_words.csv": "f74c2203045fc2050d014c25cdba8041c8f8f489",
}


def test_induce_artifacts_bytes_frozen(tmp_path):
    cfg = Path(__file__).resolve().parents[1] / "configs" / "chebyshev.ini"
    for stage in ("tower-build", "induce"):
        assert main([stage, "--config", str(cfg),
                     "--out", str(tmp_path)]) == EXIT_OK, stage
    got = {f: hashlib.sha1((tmp_path / f).read_bytes()).hexdigest()
           for f in FROZEN_INDUCE}
    assert got == FROZEN_INDUCE


# sha1 of the shipped chebyshev config's conformal artifacts at seed 7,
# computed with the transfer operator built as a CSR matrix, before it
# became a gather over the cylinder child table
FROZEN_CONFORMAL = {
    "conformal.json": "cd6bf49a505e9d09800da167b53ea99a6757814c",
    "weights.csv": "719c388bdb7357698f46cf41a3e8955828ef26b0",
    "delta_curve.csv": "75d2dfb36de461c28a4e5b846112a38681536df2",
}


def test_conformal_artifacts_bytes_frozen(tmp_path):
    cfg = Path(__file__).resolve().parents[1] / "configs" / "chebyshev.ini"
    for stage in ("tower-build", "conformal"):
        assert main([stage, "--config", str(cfg), "--out", str(tmp_path),
                     "--seed", "7"]) == EXIT_OK, stage
    got = {f: hashlib.sha1((tmp_path / f).read_bytes()).hexdigest()
           for f in FROZEN_CONFORMAL}
    assert got == FROZEN_CONFORMAL


def test_manifest_counters_repeat_and_dendrite_lands_by_newton(tmp_path):
    # counters are deterministic, outside the content hash; every dendrite
    # orbit of lyapunov and induce (and the load check's ray) is finished
    # by Newton
    cfg = Path(__file__).resolve().parents[1] / "configs" / "dendrite.ini"
    runs = []
    for out in (tmp_path / "a", tmp_path / "b"):
        for stage in ("tower-build", "lyapunov", "induce"):
            assert main([stage, "--config", str(cfg), "--out", str(out),
                         "--seed", "7"]) == EXIT_OK, stage
        runs.append({stage: json.loads(
            (out / f"{stage}.manifest.json").read_text())["counters"]
            for stage in ("lyapunov", "induce")})
    assert runs[0] == runs[1]
    for counters in runs[0].values():
        assert counters["landing.sweep"] == 0
        assert counters["landing.newton"] == counters["landing.orbits"] > 1
        assert counters["landing.rows"] > 0


def test_cubic_lift_streams_are_exact(tmp_path):
    # base-3 Brolin samples must follow their ternary itineraries
    cfg, out = write_cfg(tmp_path, text=CUBIC.format(out=tmp_path / "out"))
    assert main(["tower-build", "--config", str(cfg)]) == EXIT_OK
    assert main(["lift", "--config", str(cfg)]) == EXIT_OK
    assert json.loads((out / "lift.json").read_text())["verdict"] == \
        "liftable"
    g = tower_from_json(json.loads((out / "tower.json").read_text()))
    mu = brolin_samples(g.partition, 50, 200, seed=5)
    ens = make_ensemble(mu, g, 200)
    for row, a in zip(ens.symbols, mu.angles):
        assert list(row) == list(itinerary(a, g.partition, 200))


def test_shipped_cubic_config_runs_every_stage(tmp_path):
    cfg = Path(__file__).resolve().parents[1] / "configs" / "cubic.ini"
    for stage in ("tower-build", "tower-export", "census", "lift",
                  "lyapunov", "induce", "conformal", "report"):
        assert main([stage, "--config", str(cfg),
                     "--out", str(tmp_path)]) == EXIT_OK, stage


def test_shipped_cubic_landings_read_the_cycle_mean(tmp_path):
    # the ray 1619/1640 is periodic, so its landings.csv row is the mean
    # of log|Df| over its landed cycle
    cfg = Path(__file__).resolve().parents[1] / "configs" / "cubic.ini"
    for stage in ("tower-build", "lyapunov"):
        assert main([stage, "--config", str(cfg),
                     "--out", str(tmp_path)]) == EXIT_OK, stage
    with open(tmp_path / "landings.csv", newline="") as fh:
        rows = {r["angle"]: r for r in csv.DictReader(fh)}
    model = PolynomialModel(3, complex(0.34062501931660666,
                                       1.2712298784187062))
    landing = LandingSolver(model).land_orbit(Fraction(1619, 1640))
    cycle = [model.log_deriv(z) for z in landing.points]
    exact = math.fsum(cycle) / len(cycle)
    assert float(rows["1619/1640"]["lyapunov"]) == \
        pytest.approx(exact, rel=1e-12)


def test_shallow_tower_is_dependency_error(tmp_path, capsys):
    # with no levels beyond the truncation, the horizon-1000 traces of
    # lift and conformal step off the tower: a too-shallow prerequisite
    shipped = Path(__file__).resolve().parents[1] / "configs" / "chebyshev.ini"
    text = shipped.read_text().replace("extra_levels = 64", "extra_levels = 0")
    cfg, _ = write_cfg(tmp_path, text=text)
    out = ["--out", str(tmp_path / "out")]
    assert main(["tower-build", "--config", str(cfg)] + out) == EXIT_OK
    capsys.readouterr()
    for stage in ("lift", "conformal"):
        assert main([stage, "--config", str(cfg)] + out) == \
            EXIT_DEPENDENCY, stage
        err = capsys.readouterr().err
        assert err.startswith("dependency error:")
        assert "rebuild the tower with extra_levels at least" in err


def test_both_shallow_tower_errors_exit_3(tmp_path, capsys):
    # census stops on an unexpanded domain (InsufficientDepth), lift on a
    # trace into one (FrontierReached): one exit-3 base the CLI catches
    assert issubclass(InsufficientDepth, TowerTooShallow)
    assert issubclass(FrontierReached, TowerTooShallow)
    shipped = Path(__file__).resolve().parents[1] / "configs" / "chebyshev.ini"
    text = shipped.read_text().replace("extra_levels = 64", "extra_levels = 0")
    cfg, _ = write_cfg(tmp_path, text=text)
    out = ["--out", str(tmp_path / "out")]
    assert main(["tower-build", "--config", str(cfg)] + out) == EXIT_OK
    capsys.readouterr()
    for stage, message in (("census", "unexpanded frontier marker"),
                           ("lift", "out-edge of a frontier domain")):
        assert main([stage, "--config", str(cfg)] + out) == \
            EXIT_DEPENDENCY, stage
        assert message in capsys.readouterr().err, stage


def test_induce_stage_peak_on_dendrite(tmp_path):
    # the induce body on the shipped dendrite config at seed 7 traced 30.9
    # MiB with whole-ensemble visit matrices, int64 records and np.unique's
    # copies; the blocked fill and the sorted counts hold it to 22 MiB
    cfg = Path(__file__).resolve().parents[1] / "configs" / "dendrite.ini"
    argv = ["--config", str(cfg), "--out", str(tmp_path), "--seed", "7"]
    assert main(["tower-build"] + argv) == EXIT_OK
    run = load_config(build_parser().parse_args(["induce"] + argv))
    tracemalloc.start()
    try:
        files, failures, _ = COMMANDS["induce"](run, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert failures == [] and "induce.json" in files
    assert peak <= 22 * 2 ** 20


def test_stale_tower_is_dependency_error(tmp_path, capsys):
    # a tower built from another config must not feed a later stage: not
    # another map, not another degree, not another expansion depth
    configs = Path(__file__).resolve().parents[1] / "configs"
    out = ["--out", str(tmp_path / "out")]
    assert main(["tower-build", "--config", str(configs / "dendrite.ini")]
                + out) == EXIT_OK
    capsys.readouterr()
    for name, stage in (("chebyshev.ini", "lift"), ("cubic.ini", "census")):
        assert main([stage, "--config", str(configs / name)] + out) == \
            EXIT_DEPENDENCY, name
        err = capsys.readouterr().err
        assert "built from another config" in err and "rerun tower-build" \
            in err, name
    deep, out = write_cfg(tmp_path, "deep.ini", extra=16)
    shallow, _ = write_cfg(tmp_path, "shallow.ini", extra=8)
    assert main(["tower-build", "--config", str(deep)]) == EXIT_OK
    assert main(["tower-export", "--config", str(shallow)]) == \
        EXIT_DEPENDENCY
    assert not (out / "tower.dot").exists()


def _truncated(text):
    return text[:len(text) // 2]


def _no_frontier(text):
    payload = json.loads(text)
    del payload["frontier"]
    return json.dumps(payload)


def _off_lattice(text):
    # the chebyshev lattice is 1/4, so no cutpoint can sit at 1/3
    payload = json.loads(text)
    payload["domains"][1]["cutpoints"][0]["angles"] = ["1/3"]
    return json.dumps(payload)


def _second_critical_point(text):
    # z^d + c has one critical point, so every cutpoint's origin is 0
    payload = json.loads(text)
    payload["domains"][1]["cutpoints"][0]["origin"] = 1
    return json.dumps(payload)


def _domain_angle(where, value):
    """Set the end of domain 1's first arc, or its first cutpoint angle."""
    def corrupt(text):
        payload = json.loads(text)
        dom = payload["domains"][1]
        if where == "arc":
            dom["arcs"][0][1] = value
        else:
            dom["cutpoints"][0]["angles"][0] = value
        return json.dumps(payload)
    return corrupt


CORRUPT_TOWERS = {
    "truncated": _truncated,
    "no-frontier": _no_frontier,
    "off-lattice": _off_lattice,
    "numeric-arc-end": _domain_angle("arc", 0.5),
    "numeric-cutpoint": _domain_angle("cutpoint", 0),
    "zero-denominator": _domain_angle("arc", "1/0"),
    "negative-arc-end": _domain_angle("arc", "-1/4"),
    "arc-end-past-one": _domain_angle("arc", "5/4"),
    "negative-denominator": _domain_angle("arc", "1/-4"),
    "cutpoint-past-one": _domain_angle("cutpoint", "5/4"),
    "cutpoint-origin-one": _second_critical_point,
}


@pytest.mark.parametrize("corrupt", list(CORRUPT_TOWERS.values()),
                         ids=list(CORRUPT_TOWERS))
def test_corrupt_tower_is_dependency_error(tmp_path, capsys, corrupt):
    cfg, out = write_cfg(tmp_path)
    assert main(["tower-build", "--config", str(cfg)]) == EXIT_OK
    path = out / "tower.json"
    path.write_text(corrupt(path.read_text()))
    capsys.readouterr()
    assert main(["tower-export", "--config", str(cfg)]) == EXIT_DEPENDENCY
    err = capsys.readouterr().err
    assert err.startswith("dependency error:")
    assert f"{path} is corrupt" in err and "rerun tower-build" in err


@pytest.mark.parametrize("sampler,n_grid,message", [
    ("brolin", "100 250", "n_grid entries must be <= 200"),
    ("brolin", "0 100", "n_grid entries must be >= 1"),
    ("brolin-periodic", "0 100", "n_grid entries must be >= 1"),
], ids=["past-horizon", "zero", "periodic-zero"])
def test_lift_grid_out_of_range_is_config_error(tmp_path, capsys, sampler,
                                                n_grid, message):
    # the Brolin measure is exact to [sampling] horizon = 200
    text = BASE.format(R=5, extra=16, out=tmp_path / "o")
    text = text.replace("n_grid = 100 200", f"n_grid = {n_grid}")
    text = text.replace("sampler = brolin", f"sampler = {sampler}")
    cfg, _ = write_cfg(tmp_path, text=text)
    line = text.splitlines().index(f"n_grid = {n_grid}") + 1
    # every key is checked at load: tower-build refuses it as lift does
    assert_refused(capsys, cfg, ("tower-build", "lift"),
                   f"{cfg}:{line}: {message}")


def test_periodic_lift_grid_may_pass_the_horizon(tmp_path):
    # periodic samples have no horizon, so n may exceed [sampling] horizon
    text = BASE.format(R=5, extra=16, out=tmp_path / "out")
    text = text.replace("n_grid = 100 200", "n_grid = 100 250")
    text = text.replace("sampler = brolin\ncount = 200",
                        "sampler = brolin-periodic\ncount = 50")
    cfg, out = write_cfg(tmp_path, text=text)
    assert main(["tower-build", "--config", str(cfg)]) == EXIT_OK
    assert main(["lift", "--config", str(cfg)]) == EXIT_OK
    curves = (out / "curves.csv").read_text().splitlines()
    assert {row.split(",")[0] for row in curves[1:]} == {"100", "250"}


@pytest.mark.parametrize("entry,message", [
    ("horizons = 0 8", "horizons entries must be >= 1"),
    ("horizons = 6 3000", "horizons entries must be <= 200"),
    ("lambdas = 0 1.2", "lambdas entries must be > 0"),
], ids=["zero", "past-lift-horizon", "lambda-zero"])
def test_conformal_horizons_out_of_range_is_config_error(tmp_path, capsys,
                                                         entry, message):
    # lift_horizon defaults to [sampling] horizon = 200; a lambda <= 0 is
    # refused at load too, not left to fail in log(lambda)
    text = (BASE.format(R=5, extra=16, out=tmp_path / "o")
            + f"\n[conformal]\ndepth = 4\n{entry}\n")
    cfg, _ = write_cfg(tmp_path, text=text)
    line = text.splitlines().index(entry) + 1
    assert_refused(capsys, cfg, ("tower-build", "conformal"),
                   f"{cfg}:{line}: {message}")


def test_lyapunov_stage_lands_each_sample_once(tmp_path, monkeypatch):
    # landings.csv formats the landings lyapunov_consistency made; the
    # config's own ray is landed apart, in a batch of one
    batches = []
    land_many = LandingSolver.land_many

    def counted(self, angles):
        angles = list(angles)
        batches.append(len(angles))
        return land_many(self, angles)

    monkeypatch.setattr(LandingSolver, "land_many", counted)
    text = (BASE.format(R=5, extra=16, out=tmp_path / "out")
            + "\n[lyapunov]\ncount = 24\nbits = 8\nn = 40\n"
            "landing_rows = 5\n")
    cfg, out = write_cfg(tmp_path, text=text)
    assert main(["tower-build", "--config", str(cfg)]) == EXIT_OK
    assert main(["lyapunov", "--config", str(cfg)]) == EXIT_OK
    assert batches.count(24) == 1
    rows = (out / "landings.csv").read_text().splitlines()
    assert len(rows) == 1 + 5


def test_config_error_is_line_anchored(tmp_path, capsys):
    text = BASE.format(R=5, extra=0, out=tmp_path / "o")
    text = text.replace("degree = 2", "degree = two")
    cfg, _ = write_cfg(tmp_path, text=text)
    assert main(["tower-build", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{cfg}:2" in err and "degree" in err


def test_bad_angle_is_config_error(tmp_path, capsys):
    text = BASE.format(R=5, extra=0, out=tmp_path / "o")
    text = text.replace("angle = 1/2", "angle = 0/1")
    cfg, _ = write_cfg(tmp_path, text=text)
    assert main(["tower-build", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{cfg}:5" in err and "preperiodic" in err


def test_off_parameter_is_config_error(tmp_path, capsys):
    # c = 1.0000006i is off the dendrite parameter, and its critical orbit
    # escapes: every stage rejects it at load, citing the c_imag line
    shipped = Path(__file__).resolve().parents[1] / "configs" / "dendrite.ini"
    text = shipped.read_text().replace("c_imag = 1.0\n",
                                       "c_imag = 1.0000006\n")
    cfg, _ = write_cfg(tmp_path, text=text)
    line = text.splitlines().index("c_imag = 1.0000006") + 1
    out = ["--out", str(tmp_path / "out")]
    for stage in ("tower-build", "lyapunov"):
        assert main([stage, "--config", str(cfg)] + out) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{cfg}:{line}" in err and "escapes" in err, stage
    # with no c_imag key, the c_real line is cited
    text = BASE.format(R=5, extra=0, out=tmp_path / "o")
    text = text.replace("c_real = -2.0\nc_imag = 0.0\n", "c_real = -2.01\n")
    cfg, _ = write_cfg(tmp_path, name="real.ini", text=text)
    assert main(["tower-build", "--config", str(cfg)]) == EXIT_CONFIG
    assert f"{cfg}:3" in capsys.readouterr().err
    # the ray at 1/6 lands 3 away from c = -2: the angle line is cited
    text = BASE.format(R=5, extra=16, out=tmp_path / "o")
    text = text.replace("angle = 1/2", "angle = 1/6")
    cfg, _ = write_cfg(tmp_path, name="ray.ini", text=text)
    for stage in ("tower-build", "lift"):
        assert main([stage, "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{cfg}:5" in err and "1/6 lands 3 from c" in err, stage


def test_missing_seed_is_config_error(tmp_path, capsys):
    text = BASE.format(R=5, extra=0, out=tmp_path / "o")
    text = text.replace("seed = 3\n", "")
    cfg, _ = write_cfg(tmp_path, text=text)
    assert main(["tower-build", "--config", str(cfg)]) == EXIT_CONFIG
    assert "seed is mandatory" in capsys.readouterr().err
    # the flag substitutes for the config key
    assert main(["tower-build", "--config", str(cfg),
                 "--seed", "11"]) == EXIT_OK


def test_negative_seed_flag_is_refused_as_it_is_parsed(tmp_path, capsys):
    # the config's own seed is good, so its line is not cited
    cfg, out = write_cfg(tmp_path)
    with pytest.raises(SystemExit) as refused:
        main(["lift", "--config", str(cfg), "--seed", "-3"])
    assert refused.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "argument --seed: must be >= 0, not -3" in err
    assert str(cfg) not in err and not out.exists()


def test_unknown_sampler_is_config_error(tmp_path, capsys):
    text = BASE.format(R=5, extra=16, out=tmp_path / "o")
    text = text.replace("sampler = brolin", "sampler = uniform")
    cfg, _ = write_cfg(tmp_path, text=text)
    line = text.splitlines().index("sampler = uniform") + 1
    assert_refused(capsys, cfg, ("tower-build", "lift"),
                   f"{cfg}:{line}: sampler must be one of ['brolin', "
                   f"'brolin-periodic', 'dirac'], not 'uniform'")


# (config text, the text to replace, its replacement, whose last key line
# is refused with the message); the draws of brolin_period_samples need
# d**bits - 1 to fit int64
LOAD_BOUNDS = {
    "subset-eps-one": (BASE, "subset_eps = 1/10", "subset_eps = 1/10 1",
                       "subset_eps entries must be < 1"),
    "subset-eps-zero": (BASE, "subset_eps = 1/10", "subset_eps = 0",
                        "subset_eps entries must be > 0"),
    "subset-eps-past-one": (BASE, "subset_eps = 1/10", "subset_eps = 2",
                            "subset_eps entries must be < 1"),
    "subset-n-zero": (BASE, "subset_n = 20", "subset_n = 20 0",
                      "subset_n entries must be >= 1"),
    "lift-bits": (BASE, "count = 200", "count = 200\nbits = 64",
                  "bits must be <= 63"),
    "lyapunov-bits": (BASE, "[output]", "[lyapunov]\nbits = 70\n[output]",
                      "bits must be <= 63"),
    "induce-bits": (BASE, "[output]", "[induce]\nbits = 64\n[output]",
                    "bits must be <= 63"),
    "cubic-induce-bits": (CUBIC, "[output]", "[induce]\nbits = 40\n[output]",
                          "bits must be <= 39"),
    "seed-negative": (BASE, "seed = 3", "seed = -1", "seed must be >= 0"),
    "R-grid-negative": (BASE, "R_grid = 4 5", "R_grid = -2 8",
                        "R_grid entries must be >= 0"),
}


@pytest.mark.parametrize("case", list(LOAD_BOUNDS))
def test_out_of_range_is_config_error_at_load(tmp_path, capsys, case):
    template, old, new, message = LOAD_BOUNDS[case]
    text = template.format(R=5, extra=16, out=tmp_path / "o")
    assert text.count(old) == 1
    text = text.replace(old, new)
    cfg, _ = write_cfg(tmp_path, text=text)
    bad = [ln for ln in new.splitlines() if not ln.startswith("[")][-1]
    line = text.splitlines().index(bad) + 1
    assert_refused(capsys, cfg, ("tower-build",), f"{cfg}:{line}: {message}")


def test_dirac_without_angle_is_config_error(tmp_path, capsys):
    text = BASE.format(R=5, extra=16, out=tmp_path / "o")
    text = text.replace("sampler = brolin", "sampler = dirac")
    cfg, _ = write_cfg(tmp_path, text=text)
    assert_refused(capsys, cfg, ("tower-build", "lift"),
                   f"{cfg} (lift.angle): angle is mandatory")


def _unknown_json(tmp_path):
    blob = {"map": {"degree": 2, "c_real": -2.0, "angle": "1/2"},
            "sampling": {"seed": 3},
            "lift": {"flor": 0.1},
            "output": {"dir": str(tmp_path / "o")}}
    text = json.dumps(blob, indent=1)
    line = text.splitlines().index('  "flor": 0.1') + 1
    return "run.json", text, line, "unknown key [lift] flor"


def _unknown_ini(old, new, bad, message):
    def case(tmp_path):
        text = BASE.format(R=5, extra=16, out=tmp_path / "o")
        text = text.replace(old, new)
        return "run.ini", text, text.splitlines().index(bad) + 1, message
    return case


UNKNOWN = {
    "key": _unknown_ini("count = 200", "count = 200\nflor = 0.1",
                        "flor = 0.1", "unknown key [lift] flor"),
    "section": _unknown_ini("[output]", "[conformall]\ndepth = 4\n[output]",
                            "[conformall]", "unknown section [conformall]"),
    "json-key": _unknown_json,
}


@pytest.mark.parametrize("case", list(UNKNOWN))
def test_unknown_key_or_section_is_refused_by_every_stage(tmp_path, capsys,
                                                          case):
    # a misspelled key is not left to its default: every stage refuses it
    name, text, line, message = UNKNOWN[case](tmp_path)
    cfg, _ = write_cfg(tmp_path, name=name, text=text)
    assert_refused(capsys, cfg, COMMANDS, f"{cfg}:{line}: {message}")


# every key a config may set, loaded from a config that sets only the
# mandatory ones: the defaults the stages run on
MINIMAL = """\
[map]
c_real = -2.0
angle = 1/2

[sampling]
seed = 3

[output]
dir = runs/minimal
"""
DEFAULTS = {
    ("map", "degree"): 2,
    ("map", "c_real"): -2.0,
    ("map", "c_imag"): 0.0,
    ("map", "angle"): (Fraction(1, 2),),
    ("map", "kappa"): 1,
    ("tower", "R"): 8,
    ("tower", "extra_levels"): 0,
    ("sampling", "seed"): 3,
    ("sampling", "samples"): 1000,
    ("sampling", "horizon"): 1000,
    ("sampling", "n_grid"): (250, 500, 1000),
    ("sampling", "R_grid"): (4, 6, 8),
    ("tolerances", "tol_land"): 1e-12,
    ("tolerances", "tol_orbit"): 1e-9,
    ("tolerances", "eigen_tol"): 1e-10,
    ("tolerances", "bisection_tol"): 1e-6,
    ("margins", "cutpoint_margin"): Fraction(1, 64),
    ("output", "dir"): "runs/minimal",
    ("census", "R"): 2,
    ("census", "horizon"): 20,
    ("census", "brute_depth"): 8,
    ("census", "subset_n"): (20, 40, 60),
    ("census", "subset_eps"): (Fraction(1, 20), Fraction(1, 10),
                               Fraction(1, 5), Fraction(3, 10)),
    ("lift", "sampler"): "brolin",
    ("lift", "count"): 1000,
    ("lift", "bits"): 16,
    ("lift", "angle"): None,
    ("lyapunov", "count"): 512,
    ("lyapunov", "bits"): 12,
    ("lyapunov", "n"): 240,
    ("lyapunov", "landing_rows"): 12,
    ("induce", "count"): 768,
    ("induce", "bits"): 16,
    ("induce", "horizon"): 1600,
    ("induce", "branch_words"): 200,
    ("conformal", "depth"): 8,
    ("conformal", "lambdas"): (1.1, 1.2, 1.5),
    ("conformal", "lift_horizon"): 1000,
    ("conformal", "horizons"): (6, 8, 10),
    ("conformal", "eps"): (0.05, 0.1, 0.2),
}


def test_minimal_config_loads_the_defaults(tmp_path):
    cfg, _ = write_cfg(tmp_path, text=MINIMAL)
    args = build_parser().parse_args(["census", "--config", str(cfg)])
    assert len(DEFAULTS) == 40
    assert load_config(args).values == DEFAULTS


def test_readme_lists_every_key():
    # the README's key table, row by row, in the order of the schema
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| `\[(\w+)\] (\w+)` \|", readme.read_text(),
                      re.MULTILINE)
    assert rows == list(SCHEMA)


def test_missing_config_file(tmp_path, capsys):
    missing = tmp_path / "nope.ini"
    assert main(["report", "--config", str(missing)]) == EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err


def test_module_error_maps_to_check_failure(tmp_path, capsys):
    # 1/4 is strictly preperiodic, so a point mass on its cycle is empty
    text = BASE.format(R=5, extra=16, out=tmp_path / "o")
    text = text.replace("sampler = brolin\ncount = 200",
                        "sampler = dirac\nangle = 1/4")
    cfg, _ = write_cfg(tmp_path, text=text)
    main(["tower-build", "--config", str(cfg)])
    assert main(["lift", "--config", str(cfg)]) == EXIT_CHECK
    assert "check failure" in capsys.readouterr().err


def test_json_config(tmp_path):
    out = tmp_path / "jout"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "map": {"degree": 2, "c_real": -2.0, "angle": "1/2"},
        "tower": {"R": 5, "extra_levels": 16},
        "sampling": {"seed": 3, "n_grid": [100, 200], "R_grid": [4, 5]},
        "lift": {"sampler": "brolin", "count": 150},
        "output": {"dir": str(out)},
    }))
    assert main(["tower-build", "--config", str(cfg)]) == EXIT_OK
    assert main(["lift", "--config", str(cfg)]) == EXIT_OK
    blob = json.loads((out / "lift.json").read_text())
    assert blob["samples"] == 150


def test_bad_json_reports_line(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{\n "map": {,}\n}\n')
    assert main(["tower-build", "--config", str(cfg)]) == EXIT_CONFIG
    assert f"{cfg}:2" in capsys.readouterr().err


def test_seed_echoed(tmp_path):
    cfg, out = write_cfg(tmp_path)
    main(["tower-build", "--config", str(cfg)])
    assert main(["lift", "--config", str(cfg), "--seed", "99"]) == EXIT_OK
    manifest = json.loads((out / "lift.manifest.json").read_text())
    assert manifest["seed"] == 99
    assert manifest["config"]["sampling"]["seed"] == "3"


def test_manifest_hashes_cover_outputs(tmp_path):
    cfg, out = write_cfg(tmp_path)
    main(["tower-build", "--config", str(cfg)])
    manifest = json.loads((out / "tower-build.manifest.json").read_text())
    for name, digest in manifest["outputs"].items():
        assert git_blob_sha1((out / name).read_text()) == digest
    recombined = hashlib.sha1("\n".join(
        f"{n}:{h}" for n, h in sorted(manifest["outputs"].items())
    ).encode()).hexdigest()
    assert recombined == manifest["content_hash"]
    assert "wall_time_s" in manifest  # recorded but outside the hash


def test_reproducible_runs(tmp_path):
    cfg, _ = write_cfg(tmp_path)
    results = {}
    for tag in ("a", "b"):
        out = tmp_path / tag
        for cmd in ("tower-build", "census", "lift", "report"):
            assert main([cmd, "--config", str(cfg),
                         "--out", str(out)]) == EXIT_OK
        results[tag] = out
    names_a = sorted(p.name for p in results["a"].iterdir())
    names_b = sorted(p.name for p in results["b"].iterdir())
    assert names_a == names_b
    for name in names_a:
        pa = (results["a"] / name).read_text()
        pb = (results["b"] / name).read_text()
        if name.endswith(".manifest.json"):
            ma, mb = json.loads(pa), json.loads(pb)
            ma.pop("wall_time_s")
            mb.pop("wall_time_s")
            assert ma == mb, name
        else:
            assert pa == pb, name


def test_report_requires_artifacts(tmp_path, capsys):
    text = BASE.format(R=5, extra=0, out=tmp_path / "empty")
    cfg, _ = write_cfg(tmp_path, text=text)
    assert main(["report", "--config", str(cfg)]) == EXIT_DEPENDENCY
    assert "no artifacts" in capsys.readouterr().err


def test_report_json_is_the_full_reencode(tmp_path):
    # tower.json's text is spliced into report.json; the bytes must be
    # those of encoding the whole parsed report, tower included
    cfg, out = write_cfg(tmp_path)
    for cmd in ("tower-build", "census", "lift", "report"):
        assert main([cmd, "--config", str(cfg)]) == EXIT_OK
    text = (out / "report.json").read_text()
    blob = json.loads(text)
    assert text == json.dumps(blob, indent=1, sort_keys=True) + "\n"
    assert blob["artifacts"]["tower.json"] == json.loads(
        (out / "tower.json").read_text())
    assert blob["artifacts"]["structure.json"] == json.loads(
        (out / "structure.json").read_text())


def test_report_aggregates(tmp_path):
    cfg, out = write_cfg(tmp_path)
    for cmd in ("tower-build", "census", "lift", "report"):
        assert main([cmd, "--config", str(cfg)]) == EXIT_OK
    blob = json.loads((out / "report.json").read_text())
    assert set(blob["headlines"]) == {"tower.json", "structure.json",
                                      "census.json", "lift.json"}
    assert "lift.manifest.json" in blob["manifests"]
    assert "wall_time_s" not in blob["manifests"]["lift.manifest.json"]
    table = (out / "report.txt").read_text()
    assert "tower.json" in table and "lift.json" in table
