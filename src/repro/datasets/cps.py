"""IPUMS-CPS style census dataset (average income per state / occupation group).

Used in the scalability experiments (Figures 11 and 13) — it is the large,
low-attribute-count dataset of Table 3.  The schema has 10 attributes and the
income is generated from education, occupation category, age, sex, and hours
worked, following the causal DAG adopted from the fairness literature.
"""

from __future__ import annotations

import numpy as np

from repro.dataframe import Column, Table
from repro.datasets.registry import DatasetBundle, choice_by, register
from repro.graph import CausalDAG
from repro.sql import GroupByAvgQuery

STATES = {
    "California": "West", "Washington": "West", "Oregon": "West", "Nevada": "West",
    "Texas": "South", "Florida": "South", "Georgia": "South", "Virginia": "South",
    "New York": "Northeast", "Massachusetts": "Northeast", "Pennsylvania": "Northeast",
    "Illinois": "Midwest", "Ohio": "Midwest", "Michigan": "Midwest", "Minnesota": "Midwest",
}
STATE_WAGE_LEVEL = {
    "California": "High", "Washington": "High", "New York": "High",
    "Massachusetts": "High", "Illinois": "Medium", "Virginia": "Medium",
    "Minnesota": "Medium", "Pennsylvania": "Medium", "Texas": "Medium",
    "Oregon": "Medium", "Nevada": "Medium", "Florida": "Low", "Georgia": "Low",
    "Ohio": "Low", "Michigan": "Low",
}
EDUCATIONS = ["No diploma", "High school", "Some college", "Bachelors", "Advanced"]
OCC_CATEGORIES = ["Management", "Professional", "Service", "Sales", "Production"]


def make_cps(n: int = 8000, seed: int = 0) -> DatasetBundle:
    """Generate an IPUMS-CPS-like table with ``n`` respondents."""
    rng = np.random.default_rng(seed)
    states = rng.choice(list(STATES), size=n)
    region = np.array([STATES[s] for s in states], dtype=object)
    wage_level = np.array([STATE_WAGE_LEVEL[s] for s in states], dtype=object)

    age = rng.integers(18, 70, size=n)
    sex = rng.choice(["Male", "Female"], size=n, p=[0.52, 0.48])
    marital = np.where(age < 28,
                       rng.choice(["Married", "Single"], size=n, p=[0.25, 0.75]),
                       rng.choice(["Married", "Single"], size=n, p=[0.6, 0.4])).astype(object)

    def education_p(young):
        probs = np.array([0.08, 0.28, 0.28, 0.24, 0.12])
        if young:
            probs = probs * np.array([1.3, 1.4, 1.2, 0.5, 0.1])
        return probs / probs.sum()

    education = choice_by(rng.random(n), (age < 24,), education_p, EDUCATIONS)

    education_rank = {e: i for i, e in enumerate(EDUCATIONS)}

    def occupation_p(education):
        probs = np.array([0.12, 0.20, 0.25, 0.20, 0.23])
        rank = education_rank[education]
        probs = probs * np.array([0.6 + 0.3 * rank, 0.5 + 0.4 * rank, 1.6 - 0.25 * rank,
                                  1.0, 1.5 - 0.25 * rank])
        probs = np.clip(probs, 0.02, None)
        return probs / probs.sum()

    occupation = choice_by(rng.random(n), (education,), occupation_p, OCC_CATEGORIES)

    hours = np.clip(rng.normal(39, 9, size=n).round(), 5, 80)

    wage_effect = {"High": 18.0, "Medium": 6.0, "Low": 0.0}
    occ_effect = {"Management": 30.0, "Professional": 24.0, "Service": 2.0,
                  "Sales": 10.0, "Production": 6.0}
    income = 20.0 * np.ones(n)
    income += np.array([wage_effect[w] for w in wage_level])
    income += np.array([occ_effect[o] for o in occupation])
    income += 7.0 * np.array([education_rank[e] for e in education])
    income += 0.25 * (age - 18)
    income += 0.5 * (hours - 39)
    income += np.where(sex == "Male", 5.0, -2.0)
    income += np.where(marital == "Married", 4.0, 0.0)
    income += rng.normal(0.0, 8.0, size=n)
    income = np.clip(income, 2.0, None) * 1000.0

    table = Table([
        Column("State", states, numeric=False),
        Column("Region", region, numeric=False),
        Column("WageLevel", wage_level, numeric=False),
        Column("Age", age, numeric=True),
        Column("Sex", sex, numeric=False),
        Column("MaritalStatus", marital, numeric=False),
        Column("Education", education, numeric=False),
        Column("OccupationCategory", occupation, numeric=False),
        Column("HoursPerWeek", hours, numeric=True),
        Column("Income", income, numeric=True),
    ], name="cps")

    dag = CausalDAG.from_dict({
        "Region": ["State"],
        "WageLevel": ["State"],
        "Education": ["Age"],
        "OccupationCategory": ["Education"],
        "MaritalStatus": ["Age"],
        "HoursPerWeek": ["OccupationCategory", "Sex"],
        "Income": ["WageLevel", "OccupationCategory", "Education", "Age", "Sex",
                   "HoursPerWeek", "MaritalStatus"],
        "State": [],
        "Sex": [],
        "Age": [],
    })

    query = GroupByAvgQuery(group_by="State", average="Income", table_name="cps")
    return DatasetBundle(
        name="cps",
        table=table,
        dag=dag,
        query=query,
        grouping_attributes=["Region", "WageLevel"],
        treatment_attributes=["Age", "Sex", "MaritalStatus", "Education",
                              "OccupationCategory", "HoursPerWeek"],
        ground_truth={
            "positive_drivers": ["OccupationCategory", "Education"],
            "negative_drivers": ["Education", "Age"],
        },
    )


@register("cps")
def _load(**kwargs) -> DatasetBundle:
    return make_cps(**kwargs)
