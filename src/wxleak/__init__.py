"""Out-of-band 5G leakage versus radiometric weather prediction, desk scale.

The package chains an adjacent-channel leakage model (emission mask, link
budget, induced noise temperature) into a toy numerical weather prediction
testbed (chaotic grid model, radiance observation operator, variational
analysis with bias-correction coefficients) so the forecast impact of a
given leakage level can be measured end to end on one machine.
"""

from .assim import (
    AnalysisResult,
    AssimilationProblem,
    build_problem,
    cost,
    gradient,
    minimize,
)
from .errors import (
    ConfigError,
    MinimizationError,
    ModelBlowUpError,
    ValidationError,
)
from .leakage import (
    AGGRESSOR_CHANNEL,
    AntennaModel,
    BOLTZMANN_J_PER_K,
    ChannelSpec,
    EmissionMask,
    LinkBudget,
    NO_LEAKAGE_DBW,
    TransmitterField,
    VICTIM_CHANNEL,
    aci_leakage_fraction,
    aggregate_leakage_power,
    antenna_temperature,
    brightness_perturbation,
    default_emission_mask,
    induced_noise_temperature,
    received_power,
)
from .model import (
    Forecast,
    ModelParams,
    ModelState,
    diagnostics,
    integrate,
    nature_run,
    step,
)
from .osse import (
    BiasModel,
    ColumnMapping,
    RadianceOperator,
    bias_corrected_forward,
    default_obs_locations,
    synthesize_observations,
)
from .experiment import (
    ScenarioConfig,
    ScenarioReport,
    config_from_dict,
    emit_csv,
    emit_summary,
    leakage_chain,
    load_config,
    noise_table,
    run_scenario,
)
from .rng import SeededRng, derive_seed

__version__ = "0.1.0"
