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

from angletower import lifting, streams
from angletower.angles import itinerary
from angletower.cli import (COMMANDS, EXIT_CHECK, EXIT_CONFIG,
                            EXIT_DEPENDENCY, EXIT_OK, SCHEMA, build_parser,
                            git_blob_sha1, load_config, main)
from angletower.geometry import LandingSolver, PolynomialModel
from angletower.lifting import brolin_samples, make_ensemble
from angletower.tower import tower_from_json

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


# sha1 of every artifact of each shipped config at seed 7 but the
# manifests and report.json, which embeds the run's paths: the first five
# made while the conformal experiment walked its ensemble four times and
# the induce stage twice, the next five while the streams router still
# split a mixed-denominator ensemble by each sample's denominator, the
# rest while LandingSolver still took its depth and floor as options
FROZEN_SHIPPED = {
    "chebyshev": {
        "lyapunov.json": "7cea8c64c779d2cc640bf4874bea26c67136896d",
        "induce.json": "3f2b4e54931674e2ceb94e30ca7f5c6575940760",
        "tau_histogram.csv": "c70541ad795ac2b508f6226af77dd97cd0aa74f0",
        "branch_words.csv": "f74c2203045fc2050d014c25cdba8041c8f8f489",
        "conformal.json": "cd6bf49a505e9d09800da167b53ea99a6757814c",
        "lift.json": "c9c6fc9eb1688f862fc4871bacfc86e2ec63f34a",
        "curves.csv": "e27da34ac65bd23502d800a92237f758a0d6187d",
        "landings.csv": "817d6d19e5f5504d31b15e677a85b8905dbc7335",
        "weights.csv": "719c388bdb7357698f46cf41a3e8955828ef26b0",
        "delta_curve.csv": "75d2dfb36de461c28a4e5b846112a38681536df2",
        "census.json": "eee5b0b171dd439a6f07e619336429a18893d4dd",
        "l_table_D2.csv": "71a621b397f98281a7a3cdc382141b926532a1d1",
        "report.txt": "77c05afd392c9bfe4c3f3e2947174d38092d2c5d",
        "s_table_D2.csv": "760c06ee0e8e778c1d0f435595ee6f2a7ccd3397",
        "structure.json": "539f1af014c46c15a6e050f2a32bfe6f718d1990",
        "tower.dot": "f2c59d33bccf8f601cf336763d779d3a9e46b6b8",
        "tower.json": "490c875dfa0b48c52cb851070f09892536294124",
    },
    "dendrite": {
        "lyapunov.json": "6e404b5cd107ecdd1358bd458c7937bc98b07ae9",
        "induce.json": "b10e8a29f05b2bf28ac7b1cbf2ea518c372f218a",
        "tau_histogram.csv": "25d24f348fa6fa7d6634ad8bfd06a26d8090d026",
        "branch_words.csv": "a37bf924a7587acb1142def6ee26ddc00289930c",
        "conformal.json": "de2f7f3f159ba83a639e01f18cecc08ad099609f",
        "lift.json": "4cbdfb5c9e6dcf5981c34a3f0c991935b7113ac5",
        "curves.csv": "42363cf9b76886c77ec2a669a769fa3dbb086975",
        "landings.csv": "e6ac341c5cca0c3fc8d21fced87d3d889c33429c",
        "weights.csv": "4218c8ca1a097ed1b287897e031c1ff8b87868a2",
        "delta_curve.csv": "3b991f3a62412bfa2136a7def053a87589258d97",
        "census.json": "eee5b0b171dd439a6f07e619336429a18893d4dd",
        "l_table_D2.csv": "b72126a6b03370d29bc4eb0249835c0432b312a8",
        "report.txt": "b42ac18d5c449c578e39bbf7bbe9f885b4bbce77",
        "s_table_D2.csv": "989b0624012b6aa867355ce146a3f165636d33fd",
        "structure.json": "af5ad83bb90fe7bd14c48dbbcbec9046b9d96808",
        "tower.dot": "3923654f41fa9eab124c1aebe3cb08af7434e653",
        "tower.json": "9b5027b0bb04b6f912cb6019339005d7bf425984",
    },
    "cubic": {
        "lyapunov.json": "b1248cb538d01c84a8ada0e2d76c9a86163c518d",
        "induce.json": "962e39a3c26aacd32c06400a8e03173dcad59063",
        "tau_histogram.csv": "df50ee5a055e9cb7c94171df0de1d7350b625e60",
        "branch_words.csv": "a27f222d679feaac9fa58c62f56b787f0027220e",
        "conformal.json": "fb101a6f3d526d94936337c14085b44184cb88b4",
        "lift.json": "bb0f9f34a69ef1dba50c81f6d28982942ec8839e",
        "curves.csv": "287f4a7689997ba56f1699fa484e49e33dbb7f9f",
        "landings.csv": "38a8b497225e8e79b233edc64f4ec6920cdd6fb6",
        "weights.csv": "dd6c4c589d754e0041d22654605d5903c166a21c",
        "delta_curve.csv": "555a1b21663ebb000f8a1f1375ac2f0f973bbad5",
        "census.json": "7f775e86d98c5118293b55c68335106c05fc66c4",
        "l_table_D2.csv": "06067c546bdb82014e01c5e71bb60e9858f8675c",
        "report.txt": "d3ae4a04bf3e866e4a7a392d98a75259d5d42cf6",
        "s_table_D2.csv": "dd38a0160c832e8f9df520153a26b75c209df845",
        "structure.json": "67430d0368f67e42218a74d82634a2dcbd7637c4",
        "tower.dot": "e2df577e6c42241da36daf9ffb66de3d957fb91b",
        "tower.json": "3dc035897b109690118dbbab0c11d4db8df799dc",
    },
    "pair": {
        "lyapunov.json": "6bb95e60f8e2d696677023a26db04abb894348b2",
        "induce.json": "7977ca823174e64b17b506126647fd6e5f846c0f",
        "tau_histogram.csv": "352a977dc145aacfa261158de267a3591377497d",
        "branch_words.csv": "3035fdd4106943c1e8b91619aac69f4660e42eff",
        "conformal.json": "86d452f1e134f39959fd1abd02cf4b2def9d6876",
        "lift.json": "548315c754b81a1abe4567fb3338e53d3cfb220e",
        "curves.csv": "5a1b7f8af707ac835981d96e301de4b0d62119be",
        "landings.csv": "4633f5046137e8745d52b9c00acb888071c85e44",
        "weights.csv": "5c1d729001266f3c5739dc07fa42cd98e9dba851",
        "delta_curve.csv": "b5ad313e1b6c94e613dce92615cf65db66893129",
        "census.json": "109a2e6b9b29fb975d077a9e0626b2a76c480f98",
        "l_table_D3.csv": "d8f2bdaedaf31ee954b52616e9f69b1f206fc628",
        "l_table_D4.csv": "ea2e9c51557e4c4ade4b4e3f2cfd07aadf145764",
        "report.txt": "447db9846438d4945f7bab8ddede360f4164e24a",
        "s_table_D3.csv": "e693da65072b57f740cb56d7374ba5aa7d43d1f9",
        "s_table_D4.csv": "7c0faaf63864bbde325dfa83d1fefe8b241b2b18",
        "structure.json": "bb1395c20187093de4191e9269453b0d3a230128",
        "tower.dot": "3932e85d812cc35f3a942fc068c07e8d5a63ff1a",
        "tower.json": "d3e488b32867ff7693111881948be612e170e8f4",
    },
}
WALKING_STAGES = ("lift", "lyapunov", "induce", "conformal")


@pytest.fixture(scope="module", params=list(FROZEN_SHIPPED))
def shipped_run(request, tmp_path_factory):
    """A shipped config's eight stages at seed 7, with the stage of every
    tower walk they made: (name, out dir, walks)."""
    name = request.param
    cfg = Path(__file__).resolve().parents[1] / "configs" / f"{name}.ini"
    out = tmp_path_factory.mktemp(name)
    walks, walk = [], streams.walk_blocks

    def counted(*args):
        walks.append(stage)
        return walk(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(streams, "walk_blocks", counted)
        for stage in (("tower-build", "tower-export", "census")
                      + WALKING_STAGES + ("report",)):
            assert main([stage, "--config", str(cfg), "--out", str(out),
                         "--seed", "7"]) == EXIT_OK, stage
    return name, out, walks


def test_each_stage_walks_its_ensemble_once(shipped_run):
    name, _, walks = shipped_run
    assert walks == list(WALKING_STAGES), name


def test_shipped_sampled_artifacts_bytes_frozen(shipped_run):
    name, out, _ = shipped_run
    got = {f: hashlib.sha1((out / f).read_bytes()).hexdigest()
           for f in FROZEN_SHIPPED[name]}
    assert got == FROZEN_SHIPPED[name]


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
    # census stops on an unexpanded domain, lift on a trace into one: one
    # TowerTooShallow, which the CLI maps to exit 3
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


def test_witnessless_shallow_tower_exits_3_in_induce_and_conformal(
        tmp_path, capsys):
    # at R = 1 with no levels beyond it no strongly connected set of two
    # or more domains stays clear of the frontier, so there is no witness
    # domain; both stages refuse the walk into the frontier first, with
    # its extra_levels advice
    shipped = Path(__file__).resolve().parents[1] / "configs" / "chebyshev.ini"
    text = shipped.read_text().replace("extra_levels = 64", "extra_levels = 0")
    cfg, _ = write_cfg(tmp_path, text=text.replace("R = 8", "R = 1"))
    out = ["--out", str(tmp_path / "out")]
    assert main(["tower-build", "--config", str(cfg)] + out) == EXIT_OK
    capsys.readouterr()
    for stage in ("induce", "conformal"):
        assert main([stage, "--config", str(cfg)] + out) == \
            EXIT_DEPENDENCY, stage
        err = capsys.readouterr().err
        assert err.startswith("dependency error:"), stage
        assert "rebuild the tower with extra_levels at least" in err, stage
        assert not (tmp_path / "out" / f"{stage}.json").exists()


def test_induce_stage_peak_on_dendrite(tmp_path):
    # the induce body on the shipped dendrite config at seed 7 traced 30.9
    # MiB with whole-ensemble visit matrices, int64 records and np.unique's
    # copies, and about 19 MiB with the blocked fill, the sorted counts
    # and a 768 x 1601 int32 state matrix; with the walk folded and no
    # state matrix held it traces about 15 MiB
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
    assert peak <= 16 * 2 ** 20


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


def _graph(corrupt):
    """Corrupt the first edge, or domain 1's id, of the tower's graph."""
    def edit(text):
        payload = json.loads(text)
        corrupt(payload, len(payload["domains"]))
        return json.dumps(payload)
    return edit


CORRUPT_GRAPHS = {
    # the chebyshev partition has N = 2 symbols
    "edge-symbol-N": _graph(lambda p, n: p["edges"][0].update(symbol=2)),
    "edge-to-past-n": _graph(lambda p, n: p["edges"][0].update(to=n + 3)),
    "domain-id-past-n": _graph(lambda p, n: p["domains"][1].update(id=n + 5)),
}


@pytest.mark.parametrize("corrupt", list(CORRUPT_GRAPHS.values()),
                         ids=list(CORRUPT_GRAPHS))
def test_corrupt_tower_graph_is_dependency_error(tmp_path, capsys, corrupt):
    cfg, out = write_cfg(tmp_path)
    assert main(["tower-build", "--config", str(cfg)]) == EXIT_OK
    path = out / "tower.json"
    path.write_text(corrupt(path.read_text()))
    capsys.readouterr()
    for stage, artifact in (("lift", "lift.json"), ("census", "census.json")):
        assert main([stage, "--config", str(cfg)]) == EXIT_DEPENDENCY, stage
        err = capsys.readouterr().err
        assert f"{path} is corrupt" in err and "rerun tower-build" in err
        assert not (out / artifact).exists(), stage


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
    "margin-zero": (BASE, "[output]", "[margins]\ncutpoint_margin = 0\n"
                    "[output]", "cutpoint_margin must be > 0"),
    "margin-half": (BASE, "[output]", "[margins]\ncutpoint_margin = 1/2\n"
                    "[output]", "cutpoint_margin must be < 1/2"),
    "R-grid-negative": (BASE, "R_grid = 4 5", "R_grid = -2 8",
                        "R_grid entries must be >= 0"),
    # 1/4 is strictly preperiodic, so no point mass sits on its cycle
    "dirac-preperiodic": (BASE, "sampler = brolin\ncount = 200",
                          "sampler = dirac\nangle = 1/4",
                          "angle 1/4 is not periodic under multiplication "
                          "by 2"),
    # a [lift] key that the sampler never reads: the point mass on a cycle
    # has no count, only the periodic sampler reads bits, only dirac angle
    "dirac-count": (BASE, "sampler = brolin\ncount = 200",
                    "sampler = dirac\nangle = 1/3\ncount = 200",
                    "count is not read under sampler = dirac"),
    "brolin-bits": (BASE, "count = 200", "count = 200\nbits = 12",
                    "bits is not read under sampler = brolin"),
    "brolin-angle": (BASE, "count = 200", "count = 200\nangle = 1/3",
                     "angle is not read under sampler = brolin"),
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


def test_module_error_maps_to_check_failure(tmp_path, capsys, monkeypatch):
    # a ValueError raised inside a stage body is a check failure
    cfg, out = write_cfg(tmp_path)
    assert main(["tower-build", "--config", str(cfg)]) == EXIT_OK

    def refuse(*args, **kwargs):
        raise ValueError("injected refusal")

    monkeypatch.setattr(lifting, "lift_report", refuse)
    assert main(["lift", "--config", str(cfg)]) == EXIT_CHECK
    assert "check failure: injected refusal" in capsys.readouterr().err
    assert not (out / "lift.json").exists()


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
