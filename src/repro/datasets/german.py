"""German-credit style dataset (average credit risk per loan purpose).

The German dataset has no attributes functionally determined by the grouping
attribute (loan purpose), so each group needs its own explanation — the case
CauSumX handles with per-group singleton grouping patterns (Figure 18).
Checking/saving account status, credit history, and loan duration drive the
risk score, mirroring the Schufa-style discussion of Appendix B.
"""

from __future__ import annotations

import numpy as np

from repro.dataframe import Column, Table
from repro.datasets.registry import DatasetBundle, register
from repro.graph import CausalDAG
from repro.sql import GroupByAvgQuery

PURPOSES = ["new car", "used car", "furniture/equipment", "radio/TV",
            "domestic appliances", "repairs", "education", "vacation",
            "retraining", "business"]
CHECKING = ["none", "<0 DM", "0-200 DM", ">=200 DM"]
SAVINGS = ["<100 DM", "100-500 DM", "500-1000 DM", ">=1000 DM"]
HISTORY = ["delayed", "existing paid", "all paid duly", "critical"]
HOUSING = ["rent", "own", "free"]
EMPLOYMENT = ["unemployed", "<1 year", "1-4 years", "4-7 years", ">=7 years"]


def make_german(n: int = 1000, seed: int = 0) -> DatasetBundle:
    """Generate a German-credit-like table with ``n`` loan applications."""
    rng = np.random.default_rng(seed)
    purpose = rng.choice(PURPOSES, size=n,
                         p=[0.22, 0.10, 0.18, 0.12, 0.12, 0.06, 0.06, 0.04, 0.04, 0.06])
    age = rng.integers(19, 75, size=n)
    employment = rng.choice(EMPLOYMENT, size=n, p=[0.06, 0.17, 0.34, 0.18, 0.25])
    housing = rng.choice(HOUSING, size=n, p=[0.28, 0.62, 0.10])
    checking = rng.choice(CHECKING, size=n, p=[0.39, 0.27, 0.21, 0.13])
    savings = rng.choice(SAVINGS, size=n, p=[0.60, 0.17, 0.11, 0.12])
    history = rng.choice(HISTORY, size=n, p=[0.09, 0.53, 0.25, 0.13])
    duration_bucket = rng.choice(["<=12 months", "13-24 months", "25-48 months",
                                  ">48 months"], size=n, p=[0.30, 0.38, 0.25, 0.07])
    amount = np.round(np.exp(rng.normal(7.7, 0.9, size=n)), 0)

    checking_effect = {"none": -0.35, "<0 DM": -0.25, "0-200 DM": 0.05, ">=200 DM": 0.5}
    savings_effect = {"<100 DM": -0.15, "100-500 DM": 0.05, "500-1000 DM": 0.2,
                      ">=1000 DM": 0.4}
    history_effect = {"delayed": -0.5, "existing paid": 0.0, "all paid duly": 0.45,
                      "critical": -0.3}
    duration_effect = {"<=12 months": 0.35, "13-24 months": 0.05,
                       "25-48 months": -0.25, ">48 months": -0.6}
    housing_effect = {"rent": -0.15, "own": 0.15, "free": 0.0}

    logits = 0.6 * np.ones(n)
    logits += np.array([checking_effect[c] for c in checking])
    logits += np.array([savings_effect[s] for s in savings])
    logits += np.array([history_effect[h] for h in history])
    logits += np.array([duration_effect[d] for d in duration_bucket])
    logits += np.array([housing_effect[h] for h in housing])
    logits += 0.008 * (age - 35)
    logits += np.where(employment == "unemployed", -0.35, 0.0)
    logits -= 0.00002 * (amount - (amount.mean() if n else 0.0))
    risk = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(float)

    table = Table([
        Column("Purpose", purpose, numeric=False),
        Column("Age", age, numeric=True),
        Column("Employment", employment, numeric=False),
        Column("Housing", housing, numeric=False),
        Column("CheckingAccount", checking, numeric=False),
        Column("SavingsAccount", savings, numeric=False),
        Column("CreditHistory", history, numeric=False),
        Column("Duration", duration_bucket, numeric=False),
        Column("CreditAmount", amount, numeric=True),
        Column("RiskScore", risk, numeric=True),
    ], name="german")

    dag = CausalDAG.from_dict({
        "CheckingAccount": ["Employment", "Age"],
        "SavingsAccount": ["Employment", "Age"],
        "CreditHistory": ["Age"],
        "Housing": ["Age", "Employment"],
        "Duration": ["Purpose", "CreditAmount"],
        "CreditAmount": ["Purpose"],
        "RiskScore": ["CheckingAccount", "SavingsAccount", "CreditHistory",
                      "Duration", "Housing", "Age", "Employment", "CreditAmount"],
        "Purpose": [],
        "Age": [],
        "Employment": [],
    })

    query = GroupByAvgQuery(group_by="Purpose", average="RiskScore",
                            table_name="german")
    return DatasetBundle(
        name="german",
        table=table,
        dag=dag,
        query=query,
        grouping_attributes=[],  # no FDs from Purpose — per-group explanations
        treatment_attributes=["CheckingAccount", "SavingsAccount", "CreditHistory",
                              "Duration", "Housing", "Employment", "Age"],
        ground_truth={
            "positive_drivers": ["CheckingAccount", "CreditHistory", "SavingsAccount"],
            "negative_drivers": ["Duration", "CreditHistory"],
        },
    )


@register("german")
def _load(**kwargs) -> DatasetBundle:
    return make_german(**kwargs)
