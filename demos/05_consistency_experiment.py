"""Does the perturbed estimate actually converge to the truth?

Perturbing the counts biases the estimate, so it is fair to ask whether
the bias matters as leagues grow. This experiment plants random merits,
simulates full round-robins, refits with the automatic epsilon
sqrt(log t / t), and tracks the worst relative merit error per replica.
The medians fall as t grows, which is the consistency the estimator is
built around. Takes a few seconds at the default sizes.
"""

import argparse

import btrank

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--replicas", type=int, default=50)
parser.add_argument("--games-per-pair", type=int, default=4)
parser.add_argument("--seed", type=int, default=0)
args = parser.parse_args()

config = btrank.ConsistencyConfig(
    t_grid=(20, 50, 100),
    replicas=args.replicas,
    n_per_pair=args.games_per_pair,
    seed=args.seed,
)
report = btrank.run_consistency(config)

print(f"{args.replicas} replicas per league size, "
      f"{args.games_per_pair} games per pair, seed {args.seed}")
print(f"{'teams':>6} {'median err':>11} {'worst err':>10}")
for t, median, row in zip(config.t_grid, report.medians, report.errors):
    print(f"{t:>6} {median:>11.3f} {max(row):>10.3f}")

# The sampling noise itself shrinks like 1/sqrt(games per team), and the
# perturbation shrinks with t, so both error sources fade together.
