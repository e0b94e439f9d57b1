"""Seeded synthetic census-style dataset for experiments and tests.

UCI files are not bundled or downloaded; this generator produces a dataset
with the same structure (race x gender groups, income label with strongly
group-dependent positive rates and features) so the pipeline and the
experiment harness can run end to end.
"""
from __future__ import annotations

import csv

import numpy as np

SCHEMA = {
    "age": "feature:numeric",
    "education_years": "feature:numeric",
    "hours_per_week": "feature:numeric",
    "capital_score": "feature:numeric",
    "workclass": "feature:categorical",
    "race": "sensitive",
    "gender": "sensitive",
    "income": "label",
}

# P(income > 50K | race, gender), loosely census-like.
POSITIVE_RATES = {
    ("Black", "female"): 0.08,
    ("Black", "male"): 0.22,
    ("White", "female"): 0.12,
    ("White", "male"): 0.32,
}

HEADER = list(SCHEMA)
# Rows formatted at a time: only one block's cells exist as Python strings.
BLOCK_ROWS = 1024


def write_csv(path, n, seed=0):
    """Write n seeded records under HEADER, BLOCK_ROWS rows at a time."""
    rng = np.random.default_rng(seed)
    races = rng.choice(["Black", "White"], size=n, p=[0.15, 0.85])
    genders = rng.choice(["female", "male"], size=n, p=[0.4, 0.6])
    male = (genders == "male").astype(float)
    white = (races == "White").astype(float)
    rate = np.array([[POSITIVE_RATES[(r, g)] for g in ("female", "male")]
                     for r in ("Black", "White")])
    y = (rng.random(n) < rate[white.astype(int), male.astype(int)]).astype(int)
    age = 37 + 6 * y + rng.normal(0, 22, n)
    edu = 10 + 3.0 * y + 1.0 * male + 0.6 * white + rng.normal(0, 5.0, n)
    hours = 40 + 7.5 * y + 4 * male + rng.normal(0, 20, n)
    capital = y * rng.normal(2.25, 1.2, n) + rng.normal(0, 2.0, n)
    workclass = rng.choice(["private", "public", "self"], size=n,
                           p=[0.7, 0.2, 0.1])
    columns = [("{:.2f}", age), ("{:.2f}", edu), ("{:.2f}", hours), ("{:.3f}", capital),
               ("{}", workclass), ("{}", races), ("{}", genders),
               ("{}", np.where(y == 1, ">50K", "<=50K"))]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        for start in range(0, n, BLOCK_ROWS):
            writer.writerows(zip(*(
                map(fmt.format, col[start:start + BLOCK_ROWS].tolist())
                for fmt, col in columns)))
    return path
