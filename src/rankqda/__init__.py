"""Rank-based robust QDA with random-projection ensembles.

Features are mapped to probit scores through their empirical CDFs, so
every downstream quantity depends on the data only through ranks; random
projections reduce the score space before a quadratic discriminant with
class-specific covariances is fitted, and many such classifiers vote.
"""

import types

from .ensemble import (
    Block,
    EnsembleConfig,
    EnsembleModel,
    classify,
    predict,
    select_alpha,
    train_ensemble,
    training_error,
    vote_fraction,
    vote_fractions,
)
from .errors import DataError, SingularMatrixError, TrainingError
from .marginals import (
    MarginalModel,
    fit_transform,
    inv_norm_cdf,
    norm_cdf,
    transform_new,
)
from .model_io import load_model, save_model
from .projections import FLAVORS, Projection, project, sample_projection
from .qda import (
    RqdaModel,
    discriminant,
    estimate_priors,
    estimate_projected_covariance,
    fit_rqda,
    inverse_spd,
    log_det_spd,
    rqda_classify,
)
from .rng import substream
from .synthdata import (
    BayesRiskEstimate,
    Dataset,
    MARGINAL_MAPS,
    ScenarioSpec,
    block_correlation_matrix,
    monte_carlo_bayes_risk,
    oracle_model,
    piecewise_linear_map,
    random_correlation_matrix,
    sample_meta_gaussian,
)

__version__ = "0.1.0"

# every public name the imports above bind, each written once; the
# submodules the package also binds as attributes are not exported
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
