"""Dyadic Hausdorff contents, Choquet-Lorentz quasi-norms, and the
operators and experiments built on them."""

__version__ = "0.1.0"

from .grid import (
    CellSet,
    DyadicCube,
    DyadicGrid,
    GridError,
    GridFunction,
    Sampler,
    gradient_magnitude,
    make_grid,
    sample,
)
from .content import (
    ContentEngine,
    ContentError,
    CoverSolution,
    ball_cover_bracket,
    content_oracle,
    content_value,
    dyadic_content,
    subadditivity_slack,
)
from .choquet import (
    LorentzExponents,
    StepDistribution,
    choquet_integral,
    choquet_p_norm,
    distribution,
    lorentz_norm,
    lorentz_norm_dyadic,
)
from .operators import (
    MaximalParams,
    l1_content_ratio,
    maximal,
    riesz,
)
from .domains import JohnDomain, Shape, make_john_domain, mean_value, mean_value_ball
from .interp import InterpPair, interpolation_norm, k_functional_upper
