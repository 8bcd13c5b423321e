"""Command line frontend: check, fit, sweep, map, seeds, simulate.

Exit codes, by error family:

* 0  success
* 1  the requested estimate does not exist for the data (connectivity or
     tie preconditions fail; the witness is printed)
* 2  the input could not be parsed or read
* 3  the solver ran out of iterations without converging
* 4  invalid flags or configuration

Tables print floats with 3 decimals; JSON output keeps full precision,
sorts keys, and uses compact separators so identical results render to
identical bytes. Results are identical for a given numpy and BLAS build and
thread count: the last digits of a dense LU solve vary with the thread
count. ``--out`` accepts ``table``, ``json``, or a path ending in ``.json``
to write the JSON report to a file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .connectivity import check_condition_a, check_condition_b, check_condition_c
from .errors import (
    ConfigError,
    DimensionError,
    EmptyInputError,
    ExistenceError,
    NegativeCountError,
    NonConvergenceError,
    NonPositiveEpsilonError,
    NoTiesError,
    ParseError,
    SelfPlayError,
    ShapeError,
    ThetaDomainError,
    VenuelessDataError,
)
from .ingestion import _decode, aggregate, parse_matrix, parse_records
from .ranking import (
    extract_ranking,
    merit_table,
    monotone_ratio_check,
    pct_table,
    select_seeds,
    sweep_epsilon,
)
from .simulation import ConsistencyConfig, run_consistency
from .solver import MapPriorSpec, SolverConfig, fit, fit_map_em
from .types import (
    AUTO_EPSILON,
    ConnerGrant,
    Dataset,
    FitResult,
    Improved,
    MatrixShift,
    Model,
    ModelSpec,
    Normalization,
)

EXIT_OK = 0
EXIT_EXISTENCE = 1
EXIT_PARSE = 2
EXIT_NONCONVERGENCE = 3
EXIT_CONFIG = 4

#: The exit code of each error family; any other exception propagates.
_EXIT_CODES = (
    ((ParseError, SelfPlayError, ShapeError, NegativeCountError, EmptyInputError, OSError),
     EXIT_PARSE),
    ((ExistenceError, NoTiesError, VenuelessDataError), EXIT_EXISTENCE),
    ((NonConvergenceError,), EXIT_NONCONVERGENCE),
    ((ConfigError, NonPositiveEpsilonError, ThetaDomainError, DimensionError), EXIT_CONFIG),
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _render_table(rows: list[list[str]]) -> str:
    """Align columns on width; rows are lists of already-formatted cells."""
    widths = [0] * max(len(r) for r in rows)
    for row in rows:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    lines = []
    for row in rows:
        cells = [cell.ljust(widths[k]) for k, cell in enumerate(row)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _emit(args, payload: dict, table) -> None:
    """Write ``payload`` as JSON, or ``table``, the text or a function that
    renders it, for ``--out table``."""
    if args.out == "table":
        sys.stdout.write(table() if callable(table) else table)
        return
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out == "json":
        sys.stdout.write(text)
        return
    Path(args.out).write_text(text, encoding="utf-8")


def _out_value(value: str) -> str:
    if value in ("table", "json") or value.endswith(".json"):
        return value
    raise argparse.ArgumentTypeError("expected 'table', 'json', or a path ending in .json")


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return n


def _list_of(cast, noun: str):
    """An argparse type for a comma-separated list; empty items are dropped."""

    def parse(value: str) -> tuple:
        try:
            return tuple(cast(tok) for tok in value.split(",") if tok.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {value!r}")

    return parse


def _read_text(path: str) -> str:
    """A UTF-8 file's text, without a byte-order mark as the parsers read
    it (``ingestion._decode``); an error names the byte offset in the file."""
    try:
        return _decode(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _load_dataset(args) -> Dataset:
    text = _read_text(args.data)
    fmt = args.format
    if fmt is None:
        suffix = Path(args.data).suffix.lower()
        if suffix == ".csv":
            fmt = "csv"
        elif suffix == ".json":
            fmt = "records-json" if text.lstrip().startswith("[") else "matrix-json"
        else:
            raise ConfigError(
                f"cannot infer format from {args.data!r}; pass --format "
                "{csv,records-json,matrix-json}"
            )
    if fmt == "matrix-json":
        return parse_matrix(text)
    return aggregate(parse_records(text, "csv" if fmt == "csv" else "json"))


def _perturbation(args):
    raw = args.perturbation
    if raw.startswith("matrix:"):
        if args.epsilon is not None:
            raise ConfigError("a matrix shift takes no --epsilon")
        path = raw[len("matrix:") :]
        payload = json.loads(_read_text(path))
        if isinstance(payload, dict) and "a0" in payload:
            payload = payload["a0"]
        if not isinstance(payload, list):
            raise ParseError(f"{path}: expected an a0 matrix (list of rows)")
        try:
            a0 = np.array(payload, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: a0 is not a numeric matrix ({exc})") from None
        return MatrixShift(a0)
    try:
        scheme = {"improved": Improved, "conner-grant": ConnerGrant}[raw]
    except KeyError:
        raise ConfigError(
            f"unknown perturbation {raw!r}; expected improved, conner-grant, "
            "or matrix:<file>"
        ) from None
    epsilon = AUTO_EPSILON if args.epsilon is None else args.epsilon
    if epsilon != AUTO_EPSILON:
        try:
            epsilon = float(epsilon)
        except ValueError:
            raise ConfigError(f"--epsilon must be a number or 'auto', got {epsilon!r}")
    return scheme(epsilon)


def _model_spec(args) -> ModelSpec:
    return ModelSpec(
        model=Model(args.model),
        perturbation=_perturbation(args),
        normalization=Normalization(args.normalization),
    )


def _witness_dict(witness, teams) -> dict | None:
    if witness is None:
        return None
    return {
        "condition": witness.condition,
        "q1": [teams[i] for i in witness.q1],
        "q2": [teams[i] for i in witness.q2],
        "detail": witness.detail,
    }


def cmd_check(args) -> int:
    dataset = _load_dataset(args)
    teams = dataset.teams
    required = []
    if args.require:
        for token in args.require.split(","):
            token = token.strip().lower()
            if token not in ("a", "b", "c"):
                raise ConfigError(f"--require expects letters from a,b,c, got {token!r}")
            required.append(token)
    if "c" in required and dataset.venueless:
        raise ConfigError("condition c cannot be required: the data carry no venues")

    verdicts = {}
    rows = [["condition", "verdict", "note"]]
    for name, check in zip("abc", (check_condition_a, check_condition_b, check_condition_c)):
        if name == "c" and dataset.venueless:
            verdicts[name] = {"holds": None, "witness": None}
            rows.append(["C", "n/a", "data carry no venue structure"])
            continue
        witness = check(dataset)
        verdicts[name] = {"holds": witness is None, "witness": _witness_dict(witness, teams)}
        note = "" if witness is None else witness.describe(teams)
        rows.append([name.upper(), "pass" if witness is None else "fail", note])
    verdicts["c"]["applicable"] = not dataset.venueless
    ok = all(verdicts[name]["holds"] for name in required)
    payload = {"conditions": verdicts, "required": required, "ok": ok}
    _emit(args, payload, _render_table(rows))
    return EXIT_OK if ok else EXIT_EXISTENCE


def _fit_payload(result: FitResult, ranking) -> dict:
    return {
        "model": result.model.value,
        "epsilon": result.epsilon,
        "normalization": result.normalization.value,
        "teams": list(result.teams),
        "merits": [float(u) for u in result.merits_u],
        "beta": [float(b) for b in result.beta],
        "theta_hat": result.theta_hat,
        "gamma_hat": result.gamma_hat,
        "log_likelihood": result.log_likelihood,
        "iterations": result.iterations,
        "converged": result.converged,
        "gradient_sup_norm": result.gradient_sup_norm,
        "ranking": list(ranking.team_order()),
        "ranking_description": ranking.describe(),
    }


def _fit_table(result: FitResult, ranking) -> str:
    rows = [["team", "merit", "beta", "score"]]
    for k, team in enumerate(result.teams):
        rows.append(
            [team, _fmt(result.merits_u[k]), _fmt(result.beta[k]), _fmt(result.scores[k])]
        )
    header = [
        f"model            {result.model.value}",
        f"epsilon          {'-' if result.epsilon is None else _fmt(result.epsilon)}",
        f"log-likelihood   {_fmt(result.log_likelihood)}",
        f"iterations       {result.iterations}",
        f"converged        {'yes' if result.converged else 'no'}",
    ]
    if result.theta_hat is not None:
        header.append(f"theta            {_fmt(result.theta_hat)}")
    if result.gamma_hat is not None:
        header.append(f"gamma            {_fmt(result.gamma_hat)}")
    body = _render_table(rows)
    return "\n".join(header) + "\n\n" + body + f"\nranking: {ranking.describe()}\n"


def cmd_fit(args) -> int:
    dataset = _load_dataset(args)
    spec = _model_spec(args)
    result = fit(spec, dataset, SolverConfig(max_iters=args.max_iters)).ensure_converged()
    ranking = extract_ranking(result)
    _emit(args, _fit_payload(result, ranking), lambda: _fit_table(result, ranking))
    return EXIT_OK


def cmd_sweep(args) -> int:
    dataset = _load_dataset(args)
    if args.perturbation.startswith("matrix:"):
        raise ConfigError("a matrix shift has no epsilon to sweep")
    spec = _model_spec(args)  # sweep has no --epsilon, so the spec holds AUTO_EPSILON
    sweep = sweep_epsilon(spec, dataset, args.epsilons, SolverConfig(max_iters=args.max_iters))
    payload = {
        "model": args.model,
        "perturbation": args.perturbation,
        "epsilons": list(sweep.epsilons),
        "stable": sweep.stable,
        "kendall_distances": [list(row) for row in sweep.kendall_distances],
        "entries": [
            {
                "epsilon": entry.epsilon,
                "merits": [float(u) for u in entry.fit.merits_u],
                "ranking": list(entry.ranking.team_order()),
                "ranking_description": entry.ranking.describe(),
            }
            for entry in sweep.entries
        ],
    }
    rows = [["epsilon", "log-likelihood", "ranking"]]
    for entry in sweep.entries:
        rows.append(
            [_fmt(entry.epsilon), _fmt(entry.fit.log_likelihood), entry.ranking.describe()]
        )
    table = _render_table(rows)
    table += f"\nstable: {'yes' if sweep.stable else 'no'}\n"
    if not sweep.stable:
        table += "pairwise discordant-pair counts:\n"
        table += _render_table(
            [[str(d) for d in row] for row in sweep.kendall_distances]
        )
    if args.ratios:
        report = monotone_ratio_check(sweep)
        payload["ratio_report"] = {
            "sweep_stable": report.sweep_stable,
            "all_non_increasing": report.all_non_increasing,
            "trends": [
                {
                    "better": trend.better,
                    "worse": trend.worse,
                    "ratios": list(trend.ratios),
                    "non_increasing": trend.non_increasing,
                }
                for trend in report.trends
            ],
        }
        table += "\nmerit ratios across the grid (best-to-worst adjacent pairs):\n"
        ratio_rows = [["pair", "ratios", "non-increasing"]]
        for trend in report.trends:
            ratio_rows.append(
                [
                    f"{trend.better}/{trend.worse}",
                    " ".join(_fmt(r) for r in trend.ratios),
                    "yes" if trend.non_increasing else "no",
                ]
            )
        table += _render_table(ratio_rows)
    _emit(args, payload, table)
    return EXIT_OK


def cmd_map(args) -> int:
    dataset = _load_dataset(args)
    prior = MapPriorSpec(shape=args.shape, rate=args.rate)
    result = fit_map_em(
        dataset,
        prior,
        SolverConfig(max_iters=args.max_iters),
        normalization=Normalization(args.normalization),
    ).ensure_converged()
    ranking = extract_ranking(result)
    payload = _fit_payload(result, ranking)
    payload["prior"] = {"shape": args.shape, "rate": prior.resolved_rate(dataset.num_teams)}
    del payload["epsilon"]
    _emit(args, payload, lambda: _fit_table(result, ranking))
    return EXIT_OK


def cmd_seeds(args) -> int:
    dataset = _load_dataset(args)
    structure = json.loads(_read_text(args.divisions))
    if not isinstance(structure, dict) or "conferences" not in structure:
        raise ParseError(f'{args.divisions}: expected an object with a "conferences" key')
    conferences = structure["conferences"]
    if not isinstance(conferences, dict):
        raise ParseError(f'{args.divisions}: "conferences" must map names to divisions')
    for conf, divisions in conferences.items():
        if not isinstance(divisions, dict):
            raise ParseError(f"{args.divisions}: conference {conf!r} must map divisions to teams")
        for div, teams in divisions.items():
            if not isinstance(teams, list):
                raise ParseError(f"{args.divisions}: division {div!r} must list teams")

    if args.key == "pct":
        values = pct_table(dataset)
    else:
        result = fit(_model_spec(args), dataset, SolverConfig(max_iters=args.max_iters))
        values = merit_table(result.ensure_converged())

    table_result = select_seeds(values, conferences, args.seeds_per_conference)
    payload = {"key": args.key, "conferences": table_result.to_dict()}
    rows = [["conference", "seed", "team", "division", "value", "division winner"]]
    for conf, entries in table_result.conferences:
        for e in entries:
            rows.append(
                [conf, str(e.seed), e.team, e.division, _fmt(e.value),
                 "yes" if e.division_winner else "no"]
            )
    _emit(args, payload, _render_table(rows))
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = ConsistencyConfig(
        t_grid=args.t_grid,
        replicas=args.replicas,
        n_per_pair=args.n_per_pair,
        seed=args.seed,
    )
    report = run_consistency(config)
    payload = report.to_dict()
    rows = [["t", "epsilon", "median max error", "p90 max error"]]
    for k, t in enumerate(report.t_grid):
        rows.append(
            [str(t), _fmt(report.epsilons[k]), _fmt(report.medians[k]), _fmt(report.p90[k])]
        )
    _emit(args, payload, _render_table(rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", required=True, help="input file")
    data.add_argument(
        "--format",
        choices=["csv", "records-json", "matrix-json"],
        help="input format (inferred from the file when omitted)",
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument(
        "--out",
        type=_out_value,
        default="table",
        help="'table', 'json', or a .json path to write the report to",
    )
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument(
        "--model", choices=[m.value for m in Model], default=Model.BRADLEY_TERRY.value
    )
    model.add_argument(
        "--normalization",
        choices=[n.value for n in Normalization],
        default=Normalization.REFERENCE.value,
    )
    perturbation = argparse.ArgumentParser(add_help=False)
    perturbation.add_argument("--epsilon", help="positive number or 'auto' (default)")
    perturbation.add_argument(
        "--perturbation",
        default="improved",
        help="improved (default), conner-grant, or matrix:<json file> "
        "(bt, rao-kupper and davidson only)",
    )
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--max-iters", type=_positive_int, default=SolverConfig.max_iters)

    parser = _Parser(prog="btrank", description="Rank teams from paired comparisons.")
    parser.add_argument("--version", action="version", version=f"btrank {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    check = subs.add_parser("check", parents=[data, out], help="connectivity diagnostics")
    check.add_argument(
        "--require",
        help="comma list from a,b,c; exit 1 unless all the listed conditions hold",
    )
    check.set_defaults(handler=cmd_check)

    fit_cmd = subs.add_parser(
        "fit", parents=[data, out, model, perturbation, solver], help="fit one model"
    )
    fit_cmd.set_defaults(handler=cmd_fit)

    sweep = subs.add_parser(
        "sweep", parents=[data, out, model, solver], help="refit across an epsilon grid"
    )
    sweep.add_argument("--epsilons", type=_list_of(float, "numbers"), required=True)
    sweep.add_argument(
        "--perturbation", default="improved", help="improved (default) or conner-grant"
    )
    sweep.add_argument("--ratios", action="store_true", help="include the merit-ratio trend report")
    sweep.set_defaults(handler=cmd_sweep, epsilon=None)

    map_cmd = subs.add_parser(
        "map", parents=[data, out, solver], help="posterior mode under Gamma priors"
    )
    map_cmd.add_argument("--shape", type=float, required=True)
    map_cmd.add_argument("--rate", type=float, default=None, help="default: shape * teams - 1")
    map_cmd.add_argument(
        "--normalization",
        choices=[n.value for n in Normalization],
        default=Normalization.SIMPLEX.value,
    )
    map_cmd.set_defaults(handler=cmd_map)

    seeds = subs.add_parser(
        "seeds",
        parents=[data, out, model, perturbation, solver],
        help="playoff seeding from divisions",
    )
    seeds.add_argument(
        "--divisions",
        required=True,
        help='JSON file: {"conferences": {conf: {division: [teams]}}}',
    )
    seeds.add_argument("--key", choices=["merit", "pct"], default="merit")
    seeds.add_argument("--seeds-per-conference", type=_positive_int, default=6)
    seeds.set_defaults(handler=cmd_seeds)

    simulate = subs.add_parser("simulate", parents=[out], help="consistency experiment")
    simulate.add_argument("--t-grid", type=_list_of(int, "integers"), required=True)
    simulate.add_argument("--replicas", type=_positive_int, default=50)
    simulate.add_argument("--n-per-pair", type=_positive_int, default=4)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.set_defaults(handler=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"btrank: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as exc:  # --help and --version exit directly
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except json.JSONDecodeError as err:
        print(f"btrank: invalid JSON: {err}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as err:
        code = next((code for kinds, code in _EXIT_CODES if isinstance(err, kinds)), None)
        if code is None:
            raise
        print(f"btrank: {err}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
