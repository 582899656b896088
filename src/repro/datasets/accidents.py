"""US-Accidents style dataset (average accident severity per city).

Cities are functionally mapped to one of four regions (Northeast, Midwest,
South, West).  Weather exposure differs by region — snow and cold dominate the
Midwest, rain dominates the South — and severity is generated from structural
equations where adverse weather and poor visibility raise severity while
traffic signals and calming measures reduce it (Figure 7).
"""

from __future__ import annotations

import numpy as np

from repro.dataframe import Column, Table
from repro.datasets.registry import DatasetBundle, choice_by, register
from repro.graph import CausalDAG
from repro.sql import GroupByAvgQuery

CITIES = {
    "Boston": "Northeast", "Albany": "Northeast", "New York": "Northeast",
    "Philadelphia": "Northeast", "Pittsburgh": "Northeast",
    "Chicago": "Midwest", "Detroit": "Midwest", "Minneapolis": "Midwest",
    "Cleveland": "Midwest", "Kansas City": "Midwest",
    "Houston": "South", "Miami": "South", "Atlanta": "South",
    "Dallas": "South", "Charlotte": "South",
    "Phoenix": "West", "Los Angeles": "West", "Seattle": "West",
    "Denver": "West", "San Francisco": "West",
}
WEATHER = ["Clear", "Rain", "Snow", "Overcast", "Fog"]
REGION_WEATHER_P = {
    "Northeast": [0.40, 0.20, 0.14, 0.18, 0.08],
    "Midwest": [0.38, 0.16, 0.22, 0.16, 0.08],
    "South": [0.48, 0.30, 0.02, 0.14, 0.06],
    "West": [0.58, 0.16, 0.06, 0.14, 0.06],
}
REGION_TEMPERATURE_P = {"Northeast": [0.25, 0.50, 0.25], "Midwest": [0.45, 0.40, 0.15],
                        "South": [0.10, 0.45, 0.45], "West": [0.25, 0.50, 0.25]}


def make_accidents(n: int = 6000, seed: int = 0) -> DatasetBundle:
    """Generate an Accidents-like table with ``n`` accident records."""
    rng = np.random.default_rng(seed)
    city_names = list(CITIES)
    cities = rng.choice(city_names, size=n)
    region = np.array([CITIES[c] for c in cities], dtype=object)

    # Each row draws its weather, then its temperature.
    uniforms = rng.random((n, 2))
    weather = choice_by(uniforms[:, 0], (region,), REGION_WEATHER_P.get, WEATHER)
    temperature = choice_by(uniforms[:, 1], (region,), REGION_TEMPERATURE_P.get,
                            ["Cold", "Mild", "Hot"])

    visibility = np.where(
        np.isin(weather, ["Fog", "Snow"]) & (rng.random(n) < 0.7), "Low",
        np.where(rng.random(n) < 0.15, "Low", "Normal")).astype(object)
    traffic_signal = rng.choice(["Yes", "No"], size=n, p=[0.35, 0.65])
    traffic_calming = rng.choice(["Yes", "No"], size=n, p=[0.12, 0.88])
    road_type = rng.choice(["Highway", "City road"], size=n, p=[0.4, 0.6])
    rush_hour = rng.choice(["Yes", "No"], size=n, p=[0.3, 0.7])
    daylight = rng.choice(["Day", "Night"], size=n, p=[0.65, 0.35])

    severity = 2.0 * np.ones(n)
    severity += np.where(weather == "Snow", 0.55, 0.0)
    severity += np.where(weather == "Rain", 0.30, 0.0)
    severity += np.where(weather == "Overcast", 0.15, 0.0)
    severity += np.where(weather == "Fog", 0.40, 0.0)
    severity += np.where(temperature == "Cold", 0.25, 0.0)
    severity += np.where(visibility == "Low", 0.35, 0.0)
    severity += np.where(traffic_signal == "Yes", -0.40, 0.0)
    severity += np.where(traffic_calming == "Yes", -0.35, 0.0)
    severity += np.where(road_type == "Highway", 0.25, -0.10)
    severity += np.where(daylight == "Night", 0.15, 0.0)
    severity += rng.normal(0.0, 0.35, size=n)
    severity = np.clip(np.round(severity), 1, 4)

    table = Table([
        Column("City", cities, numeric=False),
        Column("Region", region, numeric=False),
        Column("Weather", weather, numeric=False),
        Column("Temperature", temperature, numeric=False),
        Column("Visibility", visibility, numeric=False),
        Column("TrafficSignal", traffic_signal, numeric=False),
        Column("TrafficCalming", traffic_calming, numeric=False),
        Column("RoadType", road_type, numeric=False),
        Column("RushHour", rush_hour, numeric=False),
        Column("Daylight", daylight, numeric=False),
        Column("Severity", severity, numeric=True),
    ], name="accidents")

    dag = CausalDAG.from_dict({
        "Region": ["City"],
        "Weather": ["Region"],
        "Temperature": ["Region"],
        "Visibility": ["Weather"],
        "Severity": ["Weather", "Temperature", "Visibility", "TrafficSignal",
                     "TrafficCalming", "RoadType", "Daylight"],
        "TrafficSignal": ["City"],
        "TrafficCalming": ["City"],
        "RoadType": [],
        "RushHour": [],
        "Daylight": [],
        "City": [],
    })

    query = GroupByAvgQuery(group_by="City", average="Severity",
                            table_name="accidents")
    return DatasetBundle(
        name="accidents",
        table=table,
        dag=dag,
        query=query,
        grouping_attributes=["Region"],
        treatment_attributes=["Weather", "Temperature", "Visibility", "TrafficSignal",
                              "TrafficCalming", "RoadType", "RushHour", "Daylight"],
        ground_truth={
            "positive_drivers": ["Weather", "Temperature", "Visibility"],
            "negative_drivers": ["TrafficSignal", "TrafficCalming"],
        },
    )


@register("accidents")
def _load(**kwargs) -> DatasetBundle:
    return make_accidents(**kwargs)
