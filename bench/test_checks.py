"""Self-tests of the benchmark's checkers and tracer.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from angletower.angles import RayChoice, build_partition, itinerary  # noqa
from angletower.lifting import brolin_samples  # noqa: E402
from angletower.tower import build_tower, tower_to_json_str  # noqa: E402

RAYS = [(2, ("1/6",)), (2, ("5/12", "7/12")), (3, ("1/6",)),
        (3, ("1/18", "7/18"))]


def random_angles(d: int, rng: random.Random, count: int):
    """Periodic j/(d^k - 1) and strictly preperiodic j/(d^m (d^k - 1))."""
    out = []
    for _ in range(count):
        k = rng.randint(1, 9)
        per = d ** k - 1
        out.append(Fraction(rng.randrange(per), per))
        m = rng.randint(1, 6)
        a = Fraction(rng.randrange(d ** m * per), d ** m * per)
        if a.denominator % d == 0:
            out.append(a)
    return out


@pytest.mark.parametrize("d,rays", RAYS)
def test_integer_itinerary_matches_program(d, rays):
    part = build_partition(RayChoice(d, tuple(Fraction(r) for r in rays)))
    boundary = checks.boundary_angles(d, rays)
    assert boundary == list(part.boundary)
    rng = random.Random(f"{d}{rays}")
    angles = random_angles(d, rng, 60) + list(part.boundary)
    assert any(a.denominator % d == 0 for a in angles)
    for a in angles:
        assert checks.integer_itinerary(a, d, boundary, 40) == \
            list(itinerary(a, part, 40)), a


def _tower_dir(tmp_path, d, rays, horizon):
    g = build_tower(RayChoice(d, tuple(Fraction(r) for r in rays)), 4,
                    extra_levels=horizon)
    (tmp_path / "tower.json").write_text(tower_to_json_str(g))
    return g


def test_stream_checker_passes_binary_brolin(tmp_path):
    g = _tower_dir(tmp_path, 2, ("1/6",), 48)
    mu = brolin_samples(g.partition, 40, 48, seed=5)
    assert checks.stream_problems("lift", mu.angles, 48, tmp_path, 2,
                                  (Fraction(1, 6),), seed=5) == []


def test_stream_checker_flags_cubic_brolin(tmp_path):
    # dyadic Brolin angles go through the base-2 window whatever the
    # degree, so for d = 3 the streams are not the exact itineraries
    g = _tower_dir(tmp_path, 3, ("1/6",), 48)
    mu = brolin_samples(g.partition, 40, 48, seed=5)
    problems = checks.stream_problems("lift", mu.angles, 48, tmp_path, 3,
                                      (Fraction(1, 6),), seed=5)
    assert problems and "symbol streams differ" in problems[0]


def test_walk_edges_follows_tower_json(tmp_path):
    g = _tower_dir(tmp_path, 2, ("1/6",), 16)
    _, edges, _ = checks.load_tower(tmp_path)
    syms = itinerary(Fraction(3, 7), g.partition, 16)
    states = checks.walk_edges(edges, syms)
    assert len(states) == 17 and states[0] == 0
    assert all(edges[(s, y)] == t
               for s, y, t in zip(states, syms, states[1:]))


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == \
        [m for m, _ in tracer.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == \
        [u for _, u in tracer.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"setup_s", "pipeline_s", "peak_rss_mb"}


def test_tracer_catches_imported_names():
    # lifting calls streams.trace_ensemble through `from .streams import`
    from angletower import lifting
    t = tracer.Tracer()
    t.install()
    g = build_tower(RayChoice(2, (Fraction(1, 6),)), 4, extra_levels=20)
    mu = brolin_samples(g.partition, 8, 20, seed=1)
    t.start_round()
    lifting.lift_report(mu, g, (10, 20), (2, 4))
    t.end_round()
    names = {s[0] for s in t.rounds[0]["spans"]}
    assert {"lifting.lift_report", "lifting.make_ensemble",
            "streams.trace_ensemble", "streams.dyadic_symbol_streams",
            "lifting.invariance_defect"} <= names
    values = t._round_values(t.rounds[0])
    assert values["streams.sample_steps"] == 8 * 20
    spans = t.rounds[0]["spans"]
    top = [i for i, s in enumerate(spans) if s[3] < 0]
    assert len(top) == 1
    total = spans[top[0]][2] - spans[top[0]][1]
    self_sum = sum(v for k, v in values.items() if k.endswith("_s"))
    assert 0 < self_sum <= total + 1e-9


def test_stream_checker_flags_cubic_dyadic_periodic_sample(tmp_path):
    # 205 / (3^8 - 1) = 1/32 is periodic under tripling, but dyadic, so
    # the program sends it through the base-2 window; skip_dyadic leaves
    # such samples out of the periodic-ensemble checks
    _tower_dir(tmp_path, 3, ("1/6",), 40)
    angles = [Fraction(205, 3 ** 8 - 1), Fraction(7, 3 ** 8 - 1)]
    args = (angles, 40, tmp_path, 3, (Fraction(1, 6),))
    problems = checks.stream_problems("lyapunov", *args, seed=1)
    assert problems and "1/2 symbol streams differ" in problems[0]
    assert checks.stream_problems("lyapunov", *args, seed=1,
                                  skip_dyadic=True) == []
