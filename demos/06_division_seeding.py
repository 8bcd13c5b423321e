"""Playoff seeding by win percentage versus seeding by fitted merit.

Win percentage ignores who the wins came against. In this eight-team
league the Drakes fatten their record against the winless Bolts while
the Cranes lose narrowly to the dominant Aces and take the head-to-head
against the Drakes. Percentage hands the division to the Drakes; the
fitted merits hand it to the Cranes, and the seed table shifts.
"""

import numpy as np

import btrank

teams = ("Aces", "Bolts", "Cranes", "Drakes", "Eels", "Foxes", "Gulls", "Herons")
idx = {name: k for k, name in enumerate(teams)}

wins = np.zeros((8, 8))


def played(winner, loser, count):
    wins[idx[winner], idx[loser]] += count


# North conference. The Aces are a wrecking crew, the Bolts are winless,
# and the Cranes' schedule is much harder than the Drakes'.
played("Aces", "Bolts", 4)
played("Aces", "Cranes", 2)
played("Cranes", "Aces", 1)
played("Cranes", "Drakes", 2)
played("Drakes", "Cranes", 1)
played("Drakes", "Bolts", 4)

# South conference, plus two interconference games to tie the league together.
played("Eels", "Foxes", 3)
played("Foxes", "Eels", 1)
played("Gulls", "Herons", 3)
played("Herons", "Gulls", 1)
played("Eels", "Gulls", 2)
played("Gulls", "Eels", 1)
played("Foxes", "Herons", 1)
played("Herons", "Foxes", 1)
played("Eels", "Bolts", 1)
played("Aces", "Gulls", 1)

data = btrank.venue_free_dataset(teams, wins)
conferences = {
    "North": {"East": ["Aces", "Bolts"], "West": ["Cranes", "Drakes"]},
    "South": {"East": ["Eels", "Foxes"], "West": ["Gulls", "Herons"]},
}

result = btrank.fit(
    btrank.ModelSpec(btrank.Model.BRADLEY_TERRY, btrank.Improved("auto")), data
)

pct = btrank.pct_table(data)
merit = btrank.merit_table(result)
print(f"{'team':<8} {'record':>7} {'pct':>6} {'merit':>8}")
for name in teams:
    k = idx[name]
    w = int(wins[k].sum())
    losses = int(wins[:, k].sum())
    print(f"{name:<8} {f'{w}-{losses}':>7} {pct[name]:>6.3f} {merit[name]:>8.3f}")

for label, values in (("win percentage", pct), ("fitted merit", merit)):
    table = btrank.select_seeds(values, conferences, seeds_per_conference=3)
    print(f"\nSeeds by {label}:")
    for conf in ("North", "South"):
        entries = table.conference(conf)
        line = ", ".join(f"{e.seed}. {e.team}" for e in entries)
        print(f"  {conf}: {line}")
