"""Tests of the benchmark's own logic: span arithmetic, the tracer's
installation, the contention correction, generator determinism and the
output checks."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import gauge  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

btrank = pytest.importorskip("btrank")
import btrank.cli  # noqa: E402


def test_self_time_subtracts_union_of_children():
    spans = [
        tracer.Span("bench.pass", 0.0, 10.0),
        tracer.Span("solver.fit", 1.0, 4.0, parent=0),
        tracer.Span("solver.fit", 3.0, 6.0, parent=0),  # overlaps its sibling
        tracer.Span("likelihood.eval", 2.0, 3.0, parent=1),
        tracer.Span("ranking.call", 9.5, 11.0, parent=0),  # runs past its parent
    ]
    assert tracer.self_times(spans) == pytest.approx([4.5, 2.0, 3.0, 1.0, 1.5])


def test_layer_shares_split_the_root_duration():
    spans = [
        tracer.Span("bench.pass", 0.0, 4.0),
        tracer.Span("solver.fit", 0.0, 3.0, parent=0),
        tracer.Span("perturbation.perturb", 0.0, 1.0, parent=1),
    ]
    assert tracer.layer_shares(spans) == pytest.approx(
        {"solver": 0.5, "perturbation": 0.25, "bench": 0.25}
    )


def test_tracer_wraps_every_reference_skips_missing_and_restores():
    original_fit = btrank.fit
    targets = tracer.TARGETS + (("btrank.solver", "no_such_entry_point", "solver.gone", ()),)
    run = tracer.Tracer("test")
    run.install(targets)
    try:
        assert btrank.fit is not original_fit and btrank.ranking.fit is btrank.fit
        with run.span("bench.pass"):
            spec = btrank.ModelSpec(btrank.Model.BRADLEY_TERRY, btrank.Improved(0.5))
            btrank.fit(spec, btrank.datasets.load_four_teams())
    finally:
        run.uninstall()
    assert btrank.fit is original_fit and btrank.ranking.fit is original_fit
    assert run.skipped == ["btrank.solver.no_such_entry_point"]
    names = {s.name for s in run.spans}
    assert {"solver.fit", "perturbation.perturb", "connectivity.check"} <= names
    own = tracer.self_times(run.spans)
    assert min(own) >= 0.0
    assert sum(own) == pytest.approx(run.spans[0].end - run.spans[0].start)
    summary = tracer.summarize(run.spans)
    assert summary["solver.fits"] == 1 and summary["solver.iterations"] > 0


def test_gauge_scales_by_the_blocks_around_an_interval():
    run = gauge.Gauge(reference_s=0.004)
    run.blocks = [0.006, 0.010, 0.004]
    assert run.slowdown(0, 1) == pytest.approx(2.0)
    assert run.corrected(3.0, 0, 1) == pytest.approx(1.5)
    assert run.corrected(3.0, 2, 2) == pytest.approx(3.0)


@pytest.mark.parametrize("unit", [gauge.kernel, gauge.process_kernel])
def test_gauge_samples_at_least_one_unit_per_block(unit):
    run = gauge.Gauge(unit)
    assert run.sample(0.0) == 0 and run.around(0.0) == 1
    assert len(run.blocks) == 2 and min(run.blocks) > 0.0


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: workloads.sparse_league(seed, 60),
        lambda seed: workloads.crowd(seed, 20, 500),
        lambda seed: workloads.venue_league(seed, 12, opponents=6),
        lambda seed: workloads.build("extended-models", seed),
    ],
)
def test_generators_are_deterministic_per_seed(make):
    first, again, other = make(3), make(3), make(4)
    assert first.csv_text() == again.csv_text()
    assert np.array_equal(first.beta, again.beta)
    assert first.csv_text() != other.csv_text()


def test_presentation_only_relabels_and_matches_the_counts():
    base = workloads.venue_league(0, 12, opponents=6)
    shown = workloads.present(base, 5)
    assert shown.teams != base.teams and sorted(shown.teams) == sorted(base.teams)
    assert shown.csv_text().splitlines()[1:] != base.csv_text().splitlines()[1:]
    for name in ("home", "away", "outcome", "beta"):
        assert np.array_equal(getattr(shown, name), getattr(base, name))
    dataset = btrank.aggregate(btrank.parse_records(shown.csv_text()))
    index = {name: k for k, name in enumerate(shown.teams)}
    order = [index[name] for name in dataset.teams]
    a_home, a_away, t_home = shown.counts()
    np.testing.assert_array_equal(dataset.counts.a_home, a_home[np.ix_(order, order)])
    np.testing.assert_array_equal(dataset.counts.a_away, a_away[np.ix_(order, order)])
    np.testing.assert_array_equal(dataset.counts.t_home, t_home[np.ix_(order, order)])


def test_ring_with_chords_is_connected_with_the_requested_degree():
    pairs = workloads.ring_with_chords(np.random.default_rng(1), 50, 6)
    assert len(pairs) == 150 and np.all(pairs[:, 0] < pairs[:, 1])
    degree = np.bincount(pairs.ravel(), minlength=50)
    assert degree.min() >= 2


def test_kendall_share_counts_discordant_pairs():
    planted = {"a": 3.0, "b": 2.0, "c": 1.0}
    assert checks.kendall_share(["a", "b", "c"], planted) == 0.0
    assert checks.kendall_share(["c", "b", "a"], planted) == 1.0
    assert checks.kendall_share(["b", "a", "c"], planted) == pytest.approx(1 / 3)


@pytest.fixture
def crowd_fit(tmp_path):
    games = workloads.crowd(2, 30, 3000)
    csv_path = tmp_path / "crowd.csv"
    out_path = tmp_path / "fit.json"
    csv_path.write_text(games.csv_text(), encoding="utf-8")
    argv = ["fit", "--data", str(csv_path), "--model", "bt", "--out", str(out_path)]
    assert btrank.cli.main(argv) == 0
    counts = (*games.counts(), games.teams)
    planted = dict(zip(games.teams, games.beta.tolist()))
    return json.loads(out_path.read_text(encoding="utf-8")), counts, planted


def test_cli_checker_accepts_the_program_output(crowd_fit):
    payload, counts, planted = crowd_fit
    failures, grad = checks.check_cli_payload(btrank, payload, counts, planted)
    assert failures == []
    assert grad == pytest.approx(payload["gradient_sup_norm"], rel=1e-6)


def test_cli_checker_rejects_a_corrupted_beta(crowd_fit):
    payload, counts, planted = crowd_fit
    payload["beta"][3] += 0.05
    failures, _ = checks.check_cli_payload(btrank, payload, counts, planted)
    assert any("gradient" in f for f in failures)


def test_cli_checker_rejects_bad_merits_and_missing_keys(crowd_fit):
    payload, counts, planted = crowd_fit
    bad = dict(payload, merits=[0.0] + payload["merits"][1:])
    assert checks.check_cli_payload(btrank, bad, counts, planted)[0]
    missing = {k: v for k, v in payload.items() if k != "beta"}
    assert checks.check_cli_payload(btrank, missing, counts, planted)[0]


def test_map_gradient_vanishes_at_a_converged_mode():
    dataset = btrank.datasets.load_ten_teams()
    config = btrank.SolverConfig(grad_tol=1e-10, rel_ll_tol=1e-300, max_iters=100000)
    result = btrank.fit_map_em(dataset, btrank.MapPriorSpec(2.0), config)
    assert checks.map_gradient(btrank, dataset, 2.0, result.beta) < 1e-6
    shifted = result.beta + np.concatenate([[0.0], np.full(9, 0.1)])
    assert checks.map_gradient(btrank, dataset, 2.0, shifted) > 1e-2
