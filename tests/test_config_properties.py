"""Property test: config validation rejects bad input with a ConfigError naming the field."""

import copy
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wxleak.errors import ConfigError
from wxleak.experiment import config_from_dict

SHIPPED_PATH = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
SHIPPED = yaml.safe_load(SHIPPED_PATH.read_text())
SHIPPED_HASH = "3f56851edb7137a29f3412ddda28e083fc7e9250d22e660f9b16cfee5d4493f3"

# Every top-level key and every key of every section, as a path.
PATHS = sorted(
    [(key,) for key in SHIPPED]
    + [(key, sub) for key, value in SHIPPED.items() if isinstance(value, dict) for sub in value]
)

# Checks that span two fields name the one whose constraint failed. Every
# level must give a finite brightness error through the antenna, whose
# efficiency divides it, and a finite observation cost, which the
# observation error stddev divides; under per_device, the field's count and
# elevation gain scale each level. The mask's leaked fraction scales it too,
# but a mask that fails, or leaks more than it emits, is named itself. A few
# RK4 steps from the nature run's initial state, which every model field
# shapes, must not blow up, or the time step is named. Explicit locations set
# the observation count, so a count written beside them that disagrees is
# named.
RELATED = {
    "antenna.radiation_efficiency": {"leakage_levels"},
    "covariances.observation_stddev_k": {"leakage_levels"},
    "field.count": {"leakage_levels"},
    "field.elevation_gain_db": {"leakage_levels"},
    "field.density_class": {"field.count"},
    "model.dt": {"forecast_length"},
    "model.grid_size": {"observations.count", "observations.locations", "model.dt"},
    "observations.locations": {"observations.count"},
    "model.forcing": {"model.dt"},
    "model.moisture_coupling": {"model.dt"},
    "model.condensation_threshold": {"model.dt"},
    "model.condensation_rate": {"model.dt"},
}

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**4), 10**4),
    st.floats(),
    st.text(max_size=4),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=2)
    ),
    max_leaves=6,
)


def mutated(interpretation, mutations):
    raw = dict(copy.deepcopy(SHIPPED), leakage_interpretation=interpretation)
    for path, value in mutations:
        target = raw[path[0]] if len(path) == 2 else raw
        if isinstance(target, dict):  # an earlier mutation may have replaced the section
            target[path[-1]] = value
    return raw


def allowed_fields(mutations):
    fields = set()
    for path, _ in mutations:
        dotted = ".".join(path)
        fields |= {dotted, path[0]} | RELATED.get(dotted, set())
    return fields


# The mask and field checks run only under per_device, so both readings of a
# level are mutated.
@pytest.mark.parametrize("interpretation", ["aggregate", "per_device"])
@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(st.tuples(st.sampled_from(PATHS), VALUES), min_size=1, max_size=2))
def test_rejected_mutation_raises_config_error_naming_its_field(interpretation, mutations):
    try:
        config_from_dict(mutated(interpretation, mutations))
    except ConfigError as exc:
        assert exc.field in allowed_fields(mutations), str(exc)
    assert config_from_dict(copy.deepcopy(SHIPPED)).config_hash == SHIPPED_HASH
