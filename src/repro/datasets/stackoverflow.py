"""Stack Overflow developer-survey style dataset (the paper's running example).

The generator synthesises respondents from 20 countries on 5 continents with
country-level economic attributes (HDI, Gini, GDP — functionally determined by
the country), demographic attributes, job attributes, and an annual salary
generated from structural equations that follow the causal DAG of Figure 3:

* salary grows with GDP of the country, education, seniority (years coding /
  age band), and role (C-level executives earn the most);
* being a student strongly reduces salary;
* age above 55 reduces salary (the ageism effect discussed in Section 6.2);
* gender and ethnicity introduce the disparities analysed in Figure 6.
"""

from __future__ import annotations

import numpy as np

from repro.dataframe import Column, Table
from repro.datasets.registry import DatasetBundle, choice_by, register
from repro.graph import CausalDAG
from repro.sql import GroupByAvgQuery

# Country -> (continent, HDI level, Gini level, GDP level, base salary multiplier)
COUNTRIES = {
    "United States": ("N. America", "High", "High", "High", 1.60),
    "Canada": ("N. America", "High", "Medium", "High", 1.25),
    "Mexico": ("N. America", "Medium", "High", "Medium", 0.45),
    "Brazil": ("S. America", "Medium", "High", "Medium", 0.40),
    "Argentina": ("S. America", "Medium", "High", "Medium", 0.35),
    "United Kingdom": ("Europe", "High", "Medium", "High", 1.20),
    "Germany": ("Europe", "High", "Low", "High", 1.15),
    "France": ("Europe", "High", "Low", "High", 1.05),
    "Spain": ("Europe", "High", "Medium", "Medium", 0.80),
    "Italy": ("Europe", "High", "Medium", "Medium", 0.75),
    "Poland": ("Europe", "High", "Low", "Medium", 0.55),
    "Sweden": ("Europe", "High", "Low", "High", 1.10),
    "Netherlands": ("Europe", "High", "Low", "High", 1.15),
    "Russia": ("Europe", "Medium", "Medium", "Medium", 0.40),
    "Turkey": ("Asia", "Medium", "High", "Medium", 0.35),
    "India": ("Asia", "Medium", "Medium", "Low", 0.25),
    "China": ("Asia", "Medium", "Medium", "Medium", 0.35),
    "Israel": ("Asia", "High", "Medium", "High", 1.10),
    "Japan": ("Asia", "High", "Low", "High", 0.95),
    "Australia": ("Oceania", "High", "Low", "High", 1.25),
}

ROLES = ["Back-end developer", "Front-end developer", "Full-stack developer",
         "QA developer", "Data Scientist", "DevOps specialist",
         "Machine learning specialist", "C-suite executive", "Product manager"]
ROLE_EFFECT = {  # thousands of USD added to the base salary
    "Back-end developer": 8, "Front-end developer": 5, "Full-stack developer": 9,
    "QA developer": 0, "Data Scientist": 18, "DevOps specialist": 14,
    "Machine learning specialist": 22, "C-suite executive": 45, "Product manager": 16,
}

EDUCATIONS = ["No degree", "B.Sc.", "Master's degree", "PhD"]
EDUCATION_EFFECT = {"No degree": -12, "B.Sc.": 0, "Master's degree": 14, "PhD": 20}

MAJORS = ["C.S", "Math.", "Mech. Eng.", "Elec. Eng.", "Other"]
GENDERS = ["Male", "Female", "Non-binary"]
ETHNICITIES = ["White", "Asian", "Hispanic", "Black", "Other"]
AGE_BANDS = ["Under 25", "25-34", "35-44", "45-54", "55+"]
AGE_EFFECT = {"Under 25": -14, "25-34": 6, "35-44": 10, "45-54": 2, "55+": -16}
GDP_EFFECT = {"Low": -8, "Medium": 0, "High": 18}


def make_stackoverflow(n: int = 4000, seed: int = 0) -> DatasetBundle:
    """Generate a Stack-Overflow-like survey table with ``n`` respondents."""
    rng = np.random.default_rng(seed)
    country_names = list(COUNTRIES)
    # Larger, richer countries are over-represented among respondents.
    weights = np.array([COUNTRIES[c][4] for c in country_names])
    weights = (weights + 0.3) / (weights + 0.3).sum()
    countries = rng.choice(country_names, size=n, p=weights)

    continent = np.array([COUNTRIES[c][0] for c in countries], dtype=object)
    hdi = np.array([COUNTRIES[c][1] for c in countries], dtype=object)
    gini = np.array([COUNTRIES[c][2] for c in countries], dtype=object)
    gdp = np.array([COUNTRIES[c][3] for c in countries], dtype=object)

    gender = rng.choice(GENDERS, size=n, p=[0.72, 0.24, 0.04])
    ethnicity = rng.choice(ETHNICITIES, size=n, p=[0.52, 0.24, 0.10, 0.08, 0.06])
    age_band = rng.choice(AGE_BANDS, size=n, p=[0.22, 0.40, 0.22, 0.10, 0.06])

    # Education depends on age (older people have had more time for degrees)
    # and mildly on gender (matches the Adult-dataset discussion in the paper).
    def education_p(band, male):
        base = np.array([0.18, 0.45, 0.27, 0.10])
        if band == "Under 25":
            base = np.array([0.35, 0.50, 0.13, 0.02])
        elif band in ("45-54", "55+"):
            base = np.array([0.15, 0.40, 0.30, 0.15])
        if male:
            base = base * np.array([1.0, 1.0, 1.05, 1.1])
        return base / base.sum()

    education = choice_by(rng.random(n), (age_band, gender == "Male"), education_p,
                          EDUCATIONS)

    major = rng.choice(MAJORS, size=n, p=[0.55, 0.12, 0.10, 0.13, 0.10])
    student = np.where((age_band == "Under 25") & (rng.random(n) < 0.55), "Yes",
                       np.where(rng.random(n) < 0.05, "Yes", "No")).astype(object)

    # Each band's bins, zero-padded to all five: a leading or trailing 0 leaves
    # the cdf's searchsorted landing on the same bin.
    years_p = {"Under 25": [0.55, 0.35, 0.10, 0, 0], "25-34": [0.10, 0.35, 0.40, 0.15, 0],
               "35-44": [0, 0.10, 0.30, 0.45, 0.15]}
    years_effect = {"0-2": -10, "3-5": -2, "6-10": 6, "11-20": 10, "20+": 4}
    years_coding = choice_by(rng.random(n), (age_band,),
                             lambda band: years_p.get(band, [0, 0, 0.15, 0.40, 0.45]),
                             list(years_effect))

    # Role depends on education, major, years coding, and age (Figure 3).
    def role_p(advanced, senior, cs_major, is_student):
        probs = np.ones(len(ROLES))
        if advanced:
            probs[ROLES.index("Data Scientist")] += 2.0
            probs[ROLES.index("Machine learning specialist")] += 2.0
        if senior:
            probs[ROLES.index("C-suite executive")] += 2.5
            probs[ROLES.index("Product manager")] += 1.5
        if cs_major:
            probs[ROLES.index("Back-end developer")] += 1.0
            probs[ROLES.index("Full-stack developer")] += 1.0
        if is_student:
            probs[ROLES.index("QA developer")] += 1.0
            probs[ROLES.index("C-suite executive")] = 0.05
        return probs / probs.sum()

    senior = (np.isin(years_coding, ["11-20", "20+"])
              & np.isin(age_band, ["35-44", "45-54", "55+"]))
    role = choice_by(rng.random(n), (np.isin(education, ["Master's degree", "PhD"]),
                                     senior, major == "C.S", student == "Yes"),
                     role_p, ROLES)

    dependents = rng.choice(["Yes", "No"], size=n, p=[0.35, 0.65])
    hobby = rng.choice(["Yes", "No"], size=n, p=[0.8, 0.2])
    sexual_orientation = rng.choice(["Straight", "LGBTQ+", "Undisclosed"], size=n,
                                    p=[0.82, 0.10, 0.08])
    education_parents = rng.choice(EDUCATIONS, size=n, p=[0.35, 0.40, 0.18, 0.07])
    hours_computer = rng.choice(["<5", "5-8", "9-12", ">12"], size=n,
                                p=[0.05, 0.45, 0.40, 0.10])
    exercise = rng.choice(["Never", "1-2/week", "3+/week"], size=n, p=[0.3, 0.45, 0.25])

    base = np.array([COUNTRIES[c][4] for c in countries]) * 55.0  # thousands USD
    salary = base.copy()
    salary += np.array([ROLE_EFFECT[r] for r in role])
    salary += np.array([EDUCATION_EFFECT[e] for e in education])
    salary += np.array([AGE_EFFECT[a] for a in age_band])
    salary += np.array([years_effect[y] for y in years_coding])
    salary += np.array([GDP_EFFECT[g] for g in gdp])
    salary += np.where(student == "Yes", -30.0, 0.0)
    salary += np.where(gender == "Male", 6.0, np.where(gender == "Female", -4.0, -2.0))
    salary += np.where(ethnicity == "White", 5.0, 0.0)
    salary += rng.normal(0.0, 8.0, size=n)
    salary = np.clip(salary, 3.0, None) * 1000.0

    table = Table([
        Column("Country", countries, numeric=False),
        Column("Continent", continent, numeric=False),
        Column("HDI", hdi, numeric=False),
        Column("Gini", gini, numeric=False),
        Column("GDP", gdp, numeric=False),
        Column("Gender", gender, numeric=False),
        Column("Ethnicity", ethnicity, numeric=False),
        Column("AgeBand", age_band, numeric=False),
        Column("Education", education, numeric=False),
        Column("EducationParents", education_parents, numeric=False),
        Column("Major", major, numeric=False),
        Column("Role", role, numeric=False),
        Column("YearsCoding", years_coding, numeric=False),
        Column("Student", student, numeric=False),
        Column("Dependents", dependents, numeric=False),
        Column("Hobby", hobby, numeric=False),
        Column("SexualOrientation", sexual_orientation, numeric=False),
        Column("HoursComputer", hours_computer, numeric=False),
        Column("Exercise", exercise, numeric=False),
        Column("Salary", salary, numeric=True),
    ], name="stackoverflow")

    dag = CausalDAG.from_dict({
        "Continent": ["Country"],
        "HDI": ["Country"],
        "Gini": ["Country"],
        "GDP": ["Country"],
        "Education": ["AgeBand", "Gender", "EducationParents", "Country"],
        "Role": ["Education", "AgeBand", "Major", "YearsCoding", "Student"],
        "YearsCoding": ["AgeBand"],
        "Student": ["AgeBand"],
        "Major": [],
        "Salary": ["Country", "GDP", "Role", "Education", "AgeBand", "YearsCoding",
                   "Student", "Gender", "Ethnicity"],
        "Dependents": ["AgeBand"],
        "Hobby": [],
        "SexualOrientation": [],
        "HoursComputer": ["Role"],
        "Exercise": [],
        "EducationParents": [],
        "Gender": [],
        "Ethnicity": [],
        "AgeBand": [],
        "Country": [],
    })

    query = GroupByAvgQuery(group_by="Country", average="Salary",
                            table_name="stackoverflow")
    return DatasetBundle(
        name="stackoverflow",
        table=table,
        dag=dag,
        query=query,
        grouping_attributes=["Continent", "HDI", "Gini", "GDP"],
        treatment_attributes=["Gender", "Ethnicity", "AgeBand", "Education",
                              "Role", "YearsCoding", "Student", "Major"],
        ground_truth={
            "positive_drivers": ["Role", "Education", "AgeBand"],
            "negative_drivers": ["Student", "AgeBand"],
            "sensitive_attributes": ["Gender", "Ethnicity", "AgeBand"],
        },
    )


@register("stackoverflow")
def _load(**kwargs) -> DatasetBundle:
    return make_stackoverflow(**kwargs)
