import numpy as np
import pytest

from btrank.errors import ConfigError
from btrank.simulation import (
    ConsistencyConfig,
    expected_counts_dataset,
    max_relative_error,
    run_consistency,
)
from btrank.solver import SolverConfig
from btrank.types import Improved, Model, ModelSpec, venue_free_dataset
from btrank.perturbation import auto_epsilon
from btrank.solver import fit

from conftest import names


SMALL = ConsistencyConfig(t_grid=(4, 6), replicas=3, n_per_pair=4, seed=7)


def test_reports_are_reproducible_bit_for_bit():
    first = run_consistency(SMALL)
    second = run_consistency(SMALL)
    assert first.errors == second.errors
    assert first.medians == second.medians
    assert first.epsilons == second.epsilons


def test_each_row_equals_its_team_count_run_alone():
    report = run_consistency(SMALL)
    for k, t in enumerate(SMALL.t_grid):
        alone = run_consistency(SMALL.replace(t_grid=(t,)))
        assert alone.errors == (report.errors[k],)
        assert alone.medians == (report.medians[k],)
        assert alone.p90 == (report.p90[k],)


def test_report_shape_and_serialization():
    report = run_consistency(SMALL)
    assert report.t_grid == (4, 6)
    assert len(report.errors) == 2
    assert all(len(row) == 3 for row in report.errors)
    assert all(e > 0 for row in report.errors for e in row)
    assert len(report.epsilons) == 2
    assert report.epsilons[0] > report.epsilons[1]  # shrinks as t grows
    payload = report.to_dict()
    assert payload["medians"] == list(report.medians)
    assert payload["errors"][1] == list(report.errors[1])
    assert all(m <= p for m, p in zip(report.medians, report.p90))


def test_expected_counts_recover_planted_merits_without_noise():
    # with exact expected counts and a tiny perturbation, the only error
    # left is the perturbation bias, which should be far below the noise
    # floor of a sampled replica
    merits = np.array([1.0, 1.2, 1.5, 1.8, 2.0])
    data = expected_counts_dataset(merits, n_per_pair=8)
    spec = ModelSpec(Model.BRADLEY_TERRY, Improved(1e-6))
    result = fit(spec, data, SolverConfig(rel_ll_tol=1e-14, max_iters=200_000))
    assert max_relative_error(result.merits_u, merits) < 1e-3


def test_expected_counts_validation():
    with pytest.raises(ConfigError):
        expected_counts_dataset([1.0])
    with pytest.raises(ConfigError):
        expected_counts_dataset([1.0, -2.0])
    with pytest.raises(ConfigError):
        expected_counts_dataset([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ConfigError):
        expected_counts_dataset([1.0, np.inf])
    # Every pair must hold games: no count of zero or less, no bool taken
    # as one game, nothing non-finite.
    for n_per_pair in (0, -1, -0.5, True, False, np.True_, np.nan, np.inf, "4", None):
        with pytest.raises(ConfigError, match="n_per_pair"):
            expected_counts_dataset([1.0, 2.0, 3.0], n_per_pair=n_per_pair)
    for n_per_pair in (0.5, 3, np.int64(2), np.float32(1.5)):
        data = expected_counts_dataset([1.0, 2.0, 3.0], n_per_pair=n_per_pair)
        np.testing.assert_allclose(data.totals[:2].sum(axis=0), float(n_per_pair))


def test_max_relative_error_is_scale_free():
    planted = np.array([1.0, 2.0, 4.0])
    assert max_relative_error(planted * 17.0, planted) == pytest.approx(0.0)
    off = planted * np.array([1.1, 1.0, 1.0])
    base = max_relative_error(off, planted)
    rescaled = max_relative_error(off * 3.0, planted / 2.0)
    assert base == pytest.approx(rescaled)
    assert base > 0.0


def test_config_validation():
    with pytest.raises(ConfigError):
        ConsistencyConfig(t_grid=())
    with pytest.raises(ConfigError):
        ConsistencyConfig(t_grid=(2,))
    with pytest.raises(ConfigError):
        ConsistencyConfig(t_grid=(4,), replicas=0)
    with pytest.raises(ConfigError):
        ConsistencyConfig(t_grid=(4,), n_per_pair=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", -3),
        ("seed", 1.5),
        ("seed", True),
        ("replicas", 2.5),
        ("replicas", True),
        ("n_per_pair", 2.5),
        ("n_per_pair", np.int64(0)),
        ("t_grid", (4.7,)),
        ("t_grid", (4, False)),
    ],
)
def test_non_integer_and_negative_settings_are_refused(field, value):
    with pytest.raises(ConfigError, match=field):
        ConsistencyConfig(**{"t_grid": (4,), field: value})


def test_numpy_integer_settings_are_accepted():
    config = ConsistencyConfig(t_grid=(np.int64(4),), replicas=np.int32(2), seed=np.int64(3))
    assert config.t_grid == (4,) and type(config.t_grid[0]) is int
    assert run_consistency(config).errors == run_consistency(
        ConsistencyConfig(t_grid=(4,), replicas=2, seed=3)
    ).errors


def test_replica_streams_do_not_depend_on_the_grid():
    # a replica's draw is keyed by (seed, t, replica), so adding another t
    # to the grid must not move existing results
    wide = run_consistency(ConsistencyConfig(t_grid=(4, 5), replicas=2, seed=3))
    narrow = run_consistency(ConsistencyConfig(t_grid=(4,), replicas=2, seed=3))
    assert wide.errors[0] == narrow.errors[0]


def _replica_drawn_alone(config: ConsistencyConfig, t: int, replica: int) -> float:
    """One replica with nothing shared between replicas: its own pairs, team
    names, win matrix and spec, built through the public API."""
    rng = np.random.default_rng([config.seed, t, replica])
    u = rng.uniform(1.0, 2.0, t)
    rows, cols = np.triu_indices(t, k=1)
    wins = rng.binomial(config.n_per_pair, u[rows] / (u[rows] + u[cols]))
    a = np.zeros((t, t))
    a[rows, cols], a[cols, rows] = wins, config.n_per_pair - wins
    spec = ModelSpec(Model.BRADLEY_TERRY, Improved(auto_epsilon(t)))
    return max_relative_error(fit(spec, venue_free_dataset(names(t), a)).merits_u, u)


def test_replicas_sharing_one_layout_per_t_match_replicas_drawn_alone_bit_for_bit():
    config = ConsistencyConfig(t_grid=(3, 7), replicas=4, seed=11)
    want = [tuple(_replica_drawn_alone(config, t, r) for r in range(4)) for t in config.t_grid]
    got = run_consistency(config).errors
    assert [np.array(row).tobytes() for row in got] == [np.array(row).tobytes() for row in want]
