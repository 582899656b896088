"""UCI-Adult style census dataset (average income per occupation).

The paper groups by occupation and uses the binary high-income indicator as
the outcome; occupations are functionally mapped to an occupation category
(blue-collar / white-collar / service), which is the grouping-pattern
attribute.  The structural equations reproduce the findings of Section 6.2 and
Figure 19: marital status, education, and gender drive income, with higher
education mattering most for white-collar occupations.
"""

from __future__ import annotations

import numpy as np

from repro.dataframe import Column, Table
from repro.datasets.registry import DatasetBundle, choice_by, register
from repro.graph import CausalDAG
from repro.sql import GroupByAvgQuery

OCCUPATIONS = {
    "Machine-op-inspct": "Blue-collar",
    "Craft-repair": "Blue-collar",
    "Transport-moving": "Blue-collar",
    "Handlers-cleaners": "Blue-collar",
    "Farming-fishing": "Blue-collar",
    "Exec-managerial": "White-collar",
    "Prof-specialty": "White-collar",
    "Adm-clerical": "White-collar",
    "Tech-support": "White-collar",
    "Sales": "Service",
    "Other-service": "Service",
    "Protective-serv": "Service",
    "Priv-house-serv": "Service",
}
EDUCATIONS = ["HS-grad", "Some-college", "Bachelors", "Masters", "Doctorate"]
MARITAL = ["Married", "Never-married", "Divorced", "Widowed"]
WORKCLASSES = ["Private", "Self-emp", "Government"]
RACES = ["White", "Black", "Asian-Pac-Islander", "Other"]


def make_adult(n: int = 4000, seed: int = 0) -> DatasetBundle:
    """Generate an Adult-census-like table with ``n`` individuals."""
    rng = np.random.default_rng(seed)
    occupations = rng.choice(list(OCCUPATIONS), size=n)
    category = np.array([OCCUPATIONS[o] for o in occupations], dtype=object)

    age = rng.integers(18, 75, size=n)
    sex = rng.choice(["Male", "Female"], size=n, p=[0.67, 0.33])
    race = rng.choice(RACES, size=n, p=[0.78, 0.10, 0.07, 0.05])
    workclass = rng.choice(WORKCLASSES, size=n, p=[0.72, 0.13, 0.15])
    hours = np.clip(rng.normal(41, 11, size=n).round(), 10, 90)

    # Education depends on sex and age (Section 6.2: males tend to have higher
    # education levels in this data).
    def education_p(male, young):
        probs = np.array([0.34, 0.28, 0.22, 0.12, 0.04])
        if male:
            probs = probs * np.array([0.9, 0.95, 1.1, 1.2, 1.3])
        if young:
            probs = probs * np.array([1.4, 1.3, 0.7, 0.3, 0.1])
        return probs / probs.sum()

    education = choice_by(rng.random(n), (sex == "Male", age < 25), education_p,
                          EDUCATIONS)

    # Marital status depends on age: under 28, under 50, 50 and over.
    marital_p = [[0.25, 0.68, 0.06, 0.01], [0.62, 0.20, 0.16, 0.02],
                 [0.60, 0.08, 0.22, 0.10]]
    marital = choice_by(rng.random(n), (np.digitize(age, [28, 50]),),
                        marital_p.__getitem__, MARITAL)

    education_rank = {e: i for i, e in enumerate(EDUCATIONS)}
    logits = -1.2 * np.ones(n)
    logits += np.where(marital == "Married", 1.3, 0.0)
    logits += np.where(marital == "Never-married", -0.7, 0.0)
    edu_term = np.array([education_rank[e] for e in education], dtype=float)
    white_collar = category == "White-collar"
    logits += 0.35 * edu_term + 0.35 * edu_term * white_collar
    logits += np.where(sex == "Male", 0.45, -0.2)
    logits += 0.012 * (age - 40)
    logits += 0.02 * (hours - 40)
    logits += np.where(category == "Blue-collar", -0.3, 0.0)
    income = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(float)

    table = Table([
        Column("Occupation", occupations, numeric=False),
        Column("OccupationCategory", category, numeric=False),
        Column("Age", age, numeric=True),
        Column("Sex", sex, numeric=False),
        Column("Race", race, numeric=False),
        Column("Education", education, numeric=False),
        Column("MaritalStatus", marital, numeric=False),
        Column("Workclass", workclass, numeric=False),
        Column("HoursPerWeek", hours, numeric=True),
        Column("Income", income, numeric=True),
    ], name="adult")

    dag = CausalDAG.from_dict({
        "OccupationCategory": ["Occupation"],
        "Education": ["Sex", "Age"],
        "MaritalStatus": ["Age"],
        "HoursPerWeek": ["Occupation", "Sex"],
        "Income": ["Education", "MaritalStatus", "Sex", "Age", "HoursPerWeek",
                   "Occupation", "Workclass"],
        "Occupation": ["Education"],
        "Workclass": [],
        "Race": [],
        "Sex": [],
        "Age": [],
    })

    query = GroupByAvgQuery(group_by="Occupation", average="Income",
                            table_name="adult")
    return DatasetBundle(
        name="adult",
        table=table,
        dag=dag,
        query=query,
        grouping_attributes=["OccupationCategory"],
        treatment_attributes=["Age", "Sex", "Race", "Education", "MaritalStatus",
                              "Workclass", "HoursPerWeek"],
        ground_truth={
            "positive_drivers": ["MaritalStatus", "Education", "Sex"],
            "negative_drivers": ["MaritalStatus"],
        },
    )


@register("adult")
def _load(**kwargs) -> DatasetBundle:
    return make_adult(**kwargs)
